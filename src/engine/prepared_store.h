#ifndef PITRACT_ENGINE_PREPARED_STORE_H_
#define PITRACT_ENGINE_PREPARED_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cost_meter.h"
#include "common/result.h"

namespace pitract {
namespace engine {

/// 64-bit FNV-1a-style digest used for content addressing. Processes the
/// input 8 bytes per iteration (word-at-a-time fold with an extra shift
/// mix, byte-at-a-time only for the tail), so hashing a data part costs
/// |D|/8 multiplies instead of |D|. Digests are only ever compared against
/// digests produced by this same function (in memory or recomputed from a
/// spill file's stored key), so the deviation from canonical FNV-1a is
/// unobservable; a collision still degrades to a miss via the full-key
/// guard, never to a wrong structure.
uint64_t Fnv1a64(std::string_view bytes);

/// Content-addressed cache of preprocessed structures: a digest of
/// (problem, witness, data part) maps to Π(D), so repeated queries against
/// the same data never re-run Π — Definition 1's one-time/amortized
/// asymmetry, enforced by construction rather than by caller discipline.
///
/// The store is a concurrent serving structure whose *warm hit path is
/// lock-free*:
///
///  * **RCU-style snapshot reads.** Each shard publishes its entry table
///    as an immutable snapshot behind an atomic shared-pointer cell
///    (`SnapshotCell`, functionally `std::atomic<std::shared_ptr>` — see
///    its comment for why it is hand-rolled). A warm hit loads the
///    snapshot, probes it, and returns — it acquires
///    no mutex and splices no shared LRU list (`Stats::locked_hits` counts
///    the rare hits that *did* need the shard mutex: races with a
///    concurrent publish, Load, or re-key). Writers — miss publish,
///    eviction, `UpdateData` re-key, `Load`, `Clear` — copy the table
///    under the shard mutex, mutate the copy, and publish it atomically.
///  * **Lock striping.** Entries live in N shards selected by digest
///    (`Options::shards`, 0 = auto-size from the core count); a Π run for
///    one data part never blocks lookups landing in other shards.
///  * **In-flight Π deduplication.** Concurrent misses on the same data
///    part rendezvous on one std::shared_future: exactly one caller runs Π
///    (outside the shard lock), the rest block until it publishes, so Π
///    provably executes once per distinct data part even under a miss
///    storm.
///  * **Byte-budgeted approximate-LRU eviction.** Every entry carries a
///    size estimate (caller-supplied `SizeFn` hook, defaulting to
///    payload+key bytes); once resident bytes exceed `Options::byte_budget`,
///    victims are shed until the store is back under budget. Recency is
///    tracked by a relaxed per-entry atomic epoch stamp, not a shared list:
///    hits in the same epoch (the span between two writer events) tie
///    arbitrarily, but an entry untouched since an older epoch is always
///    shed before one touched since. Exact-LRU order is *not* guaranteed;
///    the byte-budget invariant is.
///  * **Tiered residency.** Budget pressure moves entries down a three-tier
///    ladder instead of straight to eviction:
///      hot  — payload + decoded view resident (the fast answer path);
///      warm — payload only: the view is *demoted* (dropped) first, the
///             entry keeps serving via the string path and re-promotes to
///             hot through the lazy view rebuild on its next hit;
///      cold — evicted from memory, but (when a spill directory is active)
///             the payload is written as a v3 spill frame on the way out,
///             so the next miss *promotes* it back by reading one file
///             instead of re-running Π.
///    Demotion and eviction share one victim order: entries without a
///    CLOCK bit (no hit since the previous sweep) first, then superseded
///    versions, then the oldest recency stamp. Demotion publishes a
///    view-less *clone* of the entry through the normal snapshot swap, so
///    the warm hit path never takes a lock.
///  * **MVCC version window.** UpdateData publishes the post-delta Π(D)
///    under its new digest *without* dropping the pre-delta entry: the
///    current version and its predecessor (`kVersions` = 2) stay resident,
///    the predecessor superseded but digest-addressable, so a reader that
///    took its Key just before a delta keeps answering its own version
///    warm. Publishing k+1 drops k−1. Every read face answers exactly the
///    version its Key names: a Key whose version has left the window
///    misses, and the miss runs Π on that Key's own data part — never a
///    newer version. Superseded versions count bytes individually, are the
///    preferred eviction victims, and are skipped by Spill.
///  * **Persistence.** Spill serializes every spillable entry to one
///    serde-framed file per entry under a spill directory; Load rehydrates
///    a (possibly restarted) store from such a directory. Entries inserted
///    as non-spillable are skipped by Spill and simply recompute on their
///    first post-restart miss.
///
/// Entries keep their full key alongside the digest, so a digest collision
/// degrades to a cache miss, never to a wrong structure.
class PreparedStore {
 public:
  struct Options {
    /// Number of lock stripes. 0 = auto: the next power of two >=
    /// 2 x std::thread::hardware_concurrency(), so a fully loaded machine
    /// rarely maps two hot data parts onto one stripe. Clamped to >= 1.
    size_t shards = 0;
    /// 0 = unbounded; otherwise entries are demoted and evicted once the
    /// summed size estimates exceed this many bytes.
    size_t byte_budget = 0;
  };

  /// MVCC window: how many versions of one delta stream stay resident
  /// after UpdateData re-keys — the current version plus one superseded
  /// predecessor.
  static constexpr size_t kVersions = 2;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Calls that blocked on another caller's in-flight Π instead of
    /// running their own (each also counts as a hit: Π did not run).
    int64_t inflight_waits = 0;
    int64_t spilled = 0;
    int64_t loaded = 0;
    /// UpdateData calls that Δ-patched a resident Π(D) in place.
    int64_t patches = 0;
    /// UpdateData calls that could not patch (no resident entry, an
    /// in-flight Π still on the old key after the retry, or a failed patch
    /// fn) and left the new data part to recompute-on-miss.
    int64_t patch_fallbacks = 0;
    /// O(|D|) full-key materializations (copy + hash of the data part):
    /// one per BuildKeyCounted or string-keyed Contains, two per
    /// UpdateData. Admission through a precomputed Key pays zero — the
    /// counter a warm digest-handle batch must leave untouched.
    int64_t key_builds = 0;
    /// Decoded Π-views built (once per entry under the in-flight-dedup
    /// discipline; again after a Load or a Δ-patch re-key).
    int64_t view_builds = 0;
    /// Hits that could not be served from the published snapshot and fell
    /// back to a probe under the shard mutex (a race with a concurrent
    /// publish/Load/re-key). A warm steady-state run must leave this at 0
    /// — the proof that the hit path is lock-free.
    int64_t locked_hits = 0;
    /// UpdateData calls that found a Π in flight on the pre-delta key,
    /// blocked on its shared_future, and retried (instead of immediately
    /// degrading to recompute-on-miss).
    int64_t update_retries = 0;
    /// Retired: always 0. No read forwards a Key whose version left the
    /// MVCC window to a newer version any more; such a read misses and
    /// answers its own version. Kept only while perfbench still reports
    /// it as a metric; drop it with that metric.
    int64_t lineage_resolves = 0;
    /// Spill-file writes that failed — per-entry errors in a Spill pass
    /// (the pass continues; see Spill) and failed best-effort rewrites
    /// after a Δ-patch. Each leaves a missing/stale file that Load already
    /// degrades to recompute-on-miss; a climbing counter is the operator's
    /// dying-disk signal, where these failures used to be invisible.
    int64_t respill_failures = 0;
    /// Load-pass files skipped for *non-corruption* reasons: foreign magic,
    /// an older/newer spill format version, or an unreadable file. Expected
    /// after a format bump; not a data-integrity signal.
    int64_t load_skipped = 0;
    /// Load-pass files rejected as corrupt: checksum mismatch (bit rot in
    /// the key/payload/size regions) or a structurally torn frame behind a
    /// valid magic+version header. Every rejection degrades to
    /// recompute-on-miss — a non-zero counter means the spill medium
    /// damaged bytes that would otherwise have been *served*.
    int64_t load_corrupt = 0;
    /// Hot→warm demotions: decoded views dropped under byte pressure while
    /// the payload stayed resident (the entry re-promotes via the lazy
    /// view rebuild on its next hit). Each saves an eviction.
    int64_t view_demotions = 0;
    /// Warm→cold demotions: evicted entries whose payload was written to
    /// the active spill directory on the way out, so the next miss can
    /// promote it back with one file read instead of a Π run.
    int64_t cold_demotions = 0;
    /// Cold→warm promotions: misses served by reading the digest's spill
    /// frame instead of running Π (the miss is still counted; Π was not).
    int64_t cold_promotions = 0;

    /// One JSON object with every counter, e.g.
    /// {"hits":12,"misses":3,...} — the single observability blob benches
    /// and operators embed instead of hand-formatting counters.
    std::string ToJson() const;
  };

  PreparedStore();
  explicit PreparedStore(const Options& options);

  using ComputeFn = std::function<Result<std::string>(CostMeter*)>;
  /// Size-estimate hook for byte-budgeted eviction: maps a prepared Π(D)
  /// payload to its resident byte estimate.
  using SizeFn = std::function<size_t(const std::string&)>;
  /// Decoded-view hook: Σ*-payload -> typed in-memory structure (a
  /// PiWitness::deserialize, type-erased). The payload arrives as the
  /// entry's shared_ptr so a hook may return an aliasing view copy-free.
  /// A failing build is not an error: the entry is marked and serves the
  /// string path (the failure is not retried on later hits).
  using ViewFn = std::function<Result<std::shared_ptr<const void>>(
      const std::shared_ptr<const std::string>& prepared, CostMeter*)>;

  /// Fixed per-entry overhead the default size estimate adds on top of
  /// key+payload bytes (map node, shared_ptr control block, bookkeeping).
  /// Custom SizeFn hooks that want to stay comparable can add it too.
  static constexpr size_t kEntryOverheadBytes = 64;

  /// Per-call knobs supplied by the registry entry that owns the key.
  struct EntryOptions {
    SizeFn size_of;            // unset: payload + key + kEntryOverheadBytes
    bool spillable = true;     // false: Spill skips, recompute after restart
    ViewFn make_view;          // unset: no decoded view is memoized
  };

  /// A content-addressed store key, materialized once and reusable across
  /// any number of batches: the full (problem, witness, data) key bytes
  /// plus their digest. Entries inserted through a Key share its bytes, so
  /// a warm hit re-validates by pointer equality — zero O(|D|) copies,
  /// hashes or compares per batch (the engine's DataHandle wraps this).
  struct Key {
    std::shared_ptr<const std::string> bytes;
    uint64_t digest = 0;
  };
  /// Builds a Key: the one place the O(|D|) copy + hash is paid.
  static Key InternKey(std::string_view problem, std::string_view witness,
                       std::string_view data);
  /// InternKey plus the Stats::key_builds charge — for callers (e.g. the
  /// engine's Intern) whose key builds must stay visible to the
  /// admission-cost counters.
  Key BuildKeyCounted(std::string_view problem, std::string_view witness,
                      std::string_view data) const;

  /// One warm answer-path snapshot: the raw Σ* payload plus (when the
  /// entry carries a ViewFn and the build succeeded) its memoized decoded
  /// view. `view` aliases the entry until eviction; holders keep it alive.
  struct PreparedView {
    std::shared_ptr<const std::string> prepared;
    std::shared_ptr<const void> view;  // null: answer via the string path
    /// Bytes the entry charges against the byte budget when served:
    /// payload estimate plus decoded view.
    size_t charged_bytes = 0;
  };

  /// Returns the cached Π(D) for `key`, or runs `compute` on a miss and
  /// stores the result. `meter` is charged the full preprocessing cost on
  /// a miss and a single probe op on a hit or an in-flight wait; `hit`
  /// (optional) reports whether Π ran in this call. The decoded view is
  /// built at most once per entry under the in-flight-dedup discipline
  /// (the miss winner builds it before publishing, so a whole miss storm
  /// shares one build), rebuilt lazily on the first hit after a Load or a
  /// demotion (spill files carry only the payload), rebuilt from the
  /// patched payload on an UpdateData re-key, and dropped with the entry
  /// on eviction. A Key is materialized once, so warm calls are O(1) in
  /// |D| end to end, and a warm hit is *lock-free* — one snapshot load, one
  /// table probe, one relaxed recency stamp.
  Result<PreparedView> GetOrComputeView(const Key& key,
                                        const ComputeFn& compute,
                                        CostMeter* meter, bool* hit,
                                        const EntryOptions& entry_options);

  /// Warm-only probe for the completion pipeline: serves the entry iff it
  /// is resident in the published snapshot, and *never* runs Π, blocks on
  /// an in-flight Π, or takes a mutex on a miss. Returns true (and fills
  /// `out`, counting one hit) on a snapshot hit — exactly the version
  /// `key` names, as GetOrComputeView would serve it. False on anything
  /// else, including a version that left the MVCC window: the caller owns
  /// the miss (typically by parking the work and handing the key to a
  /// preparer thread, whose Π runs on the key's own data part). A false
  /// return counts nothing: the miss is charged by whichever
  /// GetOrComputeView eventually runs Π.
  bool TryGetView(const Key& key, const EntryOptions& entry_options,
                  CostMeter* meter, PreparedView* out);

  /// True iff an entry for (problem, witness, data) is resident and not
  /// superseded. Lock-free (probes the published snapshot), but it builds
  /// the O(|D|) key, counted in Stats::key_builds.
  bool Contains(std::string_view problem, std::string_view witness,
                std::string_view data) const;

  /// Retires `key`'s entry after a witness upgrade moved its data part to
  /// another entry: the entry is marked superseded (it still serves probes
  /// by digest, but leaves Contains and Spill, and a delta no longer
  /// patches it) and loses its CLOCK bit, so it is the first eviction
  /// victim. An eviction pass then brings the store back under budget.
  /// No-op when the entry is not resident.
  void Retire(const Key& key);

  /// Patches Π(old_data) in place so the entry serves (problem, witness,
  /// new_data): the incremental-maintenance path (Section 1's D ⊕ ΔD).
  /// `patch` receives a private copy of the resident payload — concurrent
  /// readers keep their consistent pre-delta snapshot through their
  /// shared_ptr — and must leave it equal to Π(new_data). On success the
  /// post-delta entry is published under the new digest within the owning
  /// shards' stripes, the pre-delta version is retained as a superseded
  /// predecessor (until it falls out of the `kVersions` window —
  /// see the MVCC bullet above), recency/byte accounting is fixed through
  /// `entry_options.size_of`, and (when a spill directory is active) the
  /// entry is respilled.
  ///
  /// Fallback contract: returns NotFound when no entry for old_data is
  /// resident, and the patch's own status when it fails. A Π for old_data
  /// in flight at call time is waited out once (the call blocks on the
  /// miss storm's shared_future, then retries — Stats::update_retries);
  /// only a *second* in-flight Π observed after that retry returns
  /// Unavailable (the entry must never be re-keyed out from under waiters
  /// on the shared_future). In every non-OK case the store is untouched
  /// and the caller degrades to recompute-on-miss.
  using PatchFn = std::function<Status(std::string* prepared, CostMeter*)>;
  Status UpdateData(std::string_view problem, std::string_view witness,
                    std::string_view old_data, std::string_view new_data,
                    const PatchFn& patch, CostMeter* meter,
                    const EntryOptions& entry_options);

  /// Serializes every resident spillable entry to `dir` (created if
  /// missing), one checksummed serde-framed file per entry, so a restarted
  /// engine can rehydrate its warm cache with Load. Per-entry write
  /// failures do not abort the pass: the remaining entries still spill
  /// (each failure counts in Stats::respill_failures and leaves any older
  /// file for its digest in place), and the first failure's status — site
  /// and digest named in the message — is returned after the pass so
  /// callers still observe that the directory is degraded.
  Status Spill(const std::string& dir) const;

  /// Loads every well-formed spill file under `dir` into the store and
  /// returns how many entries were rehydrated. Files that are not ours
  /// (foreign magic, older format version, unreadable) are skipped
  /// (Stats::load_skipped); files with a valid header but a torn frame or
  /// a payload-checksum mismatch are rejected as corrupt
  /// (Stats::load_corrupt). Both degrade to recompute-on-miss — Load
  /// never admits bytes the checksum cannot vouch for. Eviction runs
  /// afterwards so the budget holds even for an over-budget spill set.
  Result<size_t> Load(const std::string& dir);

  Stats stats() const;
  size_t size() const;
  /// Summed size estimates of resident entries, decoded views included
  /// (a resident view charges ≈ its payload's bytes against the budget).
  size_t bytes_resident() const;
  /// The resolved options (shards = 0 has been replaced by the auto pick).
  const Options& options() const { return options_; }

  /// Drops every entry; counters are kept (use ResetStats to zero them).
  void Clear();
  void ResetStats();

 private:
  /// One resident Π(D). Entries are heap-allocated and shared between the
  /// authoritative shard state and every published snapshot that still
  /// references them; all fields a reader may observe after publication
  /// are either immutable (key, prepared, size_bytes, spillable) or
  /// atomic (view, recency stamp). An UpdateData re-key never mutates an
  /// Entry's payload — it publishes a *new* Entry, so readers holding the
  /// old shared_ptr keep a consistent pre-delta structure.
  struct Entry {
    /// Full (problem, witness, data) key — the digest-collision guard.
    /// Shared so entries admitted through a Key alias its bytes and warm
    /// re-validation short-circuits on pointer equality.
    std::shared_ptr<const std::string> key;
    std::shared_ptr<const std::string> prepared;
    /// Memoized decoded view of `prepared`. Write-once: set either before
    /// the entry is published (miss winner, Δ-patch) or exactly once
    /// under the shard mutex (lazy post-Load rebuild); `view_ready` below
    /// is the release/acquire marker that makes the field immutable —
    /// and therefore lock-free-readable — from a reader's perspective.
    std::shared_ptr<const void> view;
    /// Non-null (== view.get()) once `view` may be read without the shard
    /// mutex. Null: not built — no ViewFn, build failed, or freshly
    /// Loaded (the negative-cache flag below distinguishes).
    std::atomic<const void*> view_ready{nullptr};
    /// Approximate recency: the epoch (see tick_) of this entry's last
    /// touch. Hits stamp it with a relaxed store only when the value
    /// actually changes, so a hot entry's line stays in shared state
    /// between writer events instead of ping-ponging.
    std::atomic<uint64_t> last_used{0};
    /// CLOCK second-chance bit: set by hits (alongside the recency stamp),
    /// cleared by the eviction scan. An entry whose bit is set when the
    /// scan visits it is spared once — under zipf traffic a single sweep
    /// stops evicting just-touched entries whose epoch stamp happens to
    /// tie with genuinely cold ones. Never set on insert: an entry must
    /// earn its second chance with a hit.
    std::atomic<bool> referenced{false};
    size_t size_bytes = 0;
    /// Byte estimate charged for `view` against the eviction budget
    /// (≈ payload bytes when a view is resident — a typed decode of the
    /// payload is the same order of magnitude; aliasing views over-count
    /// conservatively). Kept separate from size_bytes so spill files and
    /// view-less reloads stay payload-accurate.
    std::atomic<size_t> view_size_bytes{0};
    /// Negative cache: the ViewFn failed on this payload, so warm hits
    /// skip the O(|Π(D)|) rebuild attempt instead of failing it per hit.
    std::atomic<bool> view_build_failed{false};
    bool spillable = true;
    // --- MVCC version window ---------------------------------------------
    /// The digest of the version this one was patched from: the entry the
    /// version-window trim drops when this entry is itself superseded.
    uint64_t predecessor_digest = 0;
    bool has_predecessor = false;
    /// Set under the re-key critical section when a newer version is
    /// published, or by Retire when a witness upgrade moved the data part
    /// to another entry. A superseded entry keeps serving digest-addressed
    /// probes — its payload is still exactly Π(its data) — but leaves
    /// Contains and Spill, refuses further deltas, and is the preferred
    /// eviction victim.
    std::atomic<bool> superseded{false};
  };
  using EntryPtr = std::shared_ptr<Entry>;
  /// An immutable published table: digest -> shared entry. Readers probe
  /// it lock-free; writers copy-on-write a successor under the shard
  /// mutex and publish it atomically.
  using Table = std::unordered_map<uint64_t, EntryPtr>;

  /// One published table plus its reference count, on one allocation.
  /// refs starts at 1 — the publication cell's own reference.
  struct TableBox {
    explicit TableBox(Table t) : table(std::move(t)) {}
    const Table table;
    /// mutable: references are taken/dropped through const TableBox*.
    mutable std::atomic<int64_t> refs{1};
  };

  /// Reader guard: keeps a TableBox alive for the duration of one probe.
  class TableRef {
   public:
    TableRef() = default;
    explicit TableRef(const TableBox* box) : box_(box) {}
    TableRef(TableRef&& other) noexcept : box_(other.box_) {
      other.box_ = nullptr;
    }
    TableRef& operator=(TableRef&& other) noexcept {
      if (this != &other) {
        Release(box_);
        box_ = other.box_;
        other.box_ = nullptr;
      }
      return *this;
    }
    TableRef(const TableRef&) = delete;
    TableRef& operator=(const TableRef&) = delete;
    ~TableRef() { Release(box_); }
    const Table* operator->() const { return &box_->table; }
    const Table& operator*() const { return box_->table; }
    static void Release(const TableBox* box) {
      if (box != nullptr &&
          box->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete box;
      }
    }

   private:
    const TableBox* box_ = nullptr;
  };

  /// The shard's publication slot: functionally a
  /// `std::atomic<std::shared_ptr<const Table>>` (the RCU-style cell the
  /// lock-free hit path reads), hand-rolled as a lock-bit-over-pointer
  /// protocol because libstdc++'s `_Sp_atomic` unlocks its reader side
  /// with a *relaxed* RMW — which ThreadSanitizer reports (correctly, per
  /// the letter of the memory model) as a race against the next writer's
  /// plain pointer swap. Here every lock is an acquire CAS and every
  /// unlock a release store, so the protocol is TSan-clean with no
  /// suppressions. A reader holds the bit for three straight-line
  /// instructions (read pointer, bump refcount, store back) — the same
  /// window std::atomic<shared_ptr> pays, and no mutex is ever involved.
  class SnapshotCell {
   public:
    SnapshotCell() = default;
    ~SnapshotCell();
    SnapshotCell(const SnapshotCell&) = delete;
    SnapshotCell& operator=(const SnapshotCell&) = delete;
    /// Installs the initial (empty) table; called once, pre-sharing.
    void Init(Table table);
    /// Lock-free read of the current snapshot.
    TableRef Acquire() const;
    /// Publishes `table`, dropping the cell's reference to the previous
    /// snapshot. Publishers serialize via the shard mutex; the lock bit
    /// only guards against concurrently-Acquiring readers.
    void Publish(Table table);

   private:
    static const TableBox* Box(uintptr_t raw) {
      return reinterpret_cast<const TableBox*>(raw & ~kLockBit);
    }
    /// Spins the lock bit on; returns the (unlocked) raw word.
    uintptr_t Lock(std::memory_order order) const;
    static constexpr uintptr_t kLockBit = 1;
    mutable std::atomic<uintptr_t> val_{0};
  };

  /// One rendezvous point per in-flight Π run. The winner fills `result`
  /// and then releases `ready`; promise/future ordering makes the write
  /// visible to every waiter.
  struct Inflight {
    std::promise<void> done;
    std::shared_future<void> ready;
    Result<PreparedView> result = Status::Internal("Π still in flight");
  };

  struct Shard {
    /// Writer lock: serializes snapshot replacement and the inflight map.
    /// The warm hit path never takes it.
    mutable std::mutex mutex;
    /// The published entry table. Invariant: outside a writer's critical
    /// section this is the authoritative state — every mutation publishes
    /// its successor table before releasing `mutex`.
    SnapshotCell snapshot;
    std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight;
  };

  /// Per-thread stats slots: each thread hashes to one cache-line-sized
  /// slot, so hit counting under N readers stops ping-ponging one shared
  /// line. `stats()` aggregates across slots.
  struct alignas(64) StatSlot {
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> inflight_waits{0};
    std::atomic<int64_t> spilled{0};
    std::atomic<int64_t> loaded{0};
    std::atomic<int64_t> patches{0};
    std::atomic<int64_t> patch_fallbacks{0};
    std::atomic<int64_t> key_builds{0};
    std::atomic<int64_t> view_builds{0};
    std::atomic<int64_t> locked_hits{0};
    std::atomic<int64_t> update_retries{0};
    std::atomic<int64_t> respill_failures{0};
    std::atomic<int64_t> load_skipped{0};
    std::atomic<int64_t> load_corrupt{0};
    std::atomic<int64_t> view_demotions{0};
    std::atomic<int64_t> cold_demotions{0};
    std::atomic<int64_t> cold_promotions{0};
  };
  static constexpr size_t kStatSlots = 16;  // power of two

  static std::string MakeKey(std::string_view problem, std::string_view witness,
                             std::string_view data);
  /// Collision-guard check: pointer equality first (the warm handle path),
  /// byte equality as the fallback for keys built independently.
  static bool EntryMatches(const Entry& entry, const Key& key) {
    return entry.key == key.bytes || *entry.key == *key.bytes;
  }
  Shard& ShardFor(uint64_t digest) {
    return shards_[digest % shards_.size()];
  }
  const Shard& ShardFor(uint64_t digest) const {
    return shards_[digest % shards_.size()];
  }
  /// The stats slot for the calling thread.
  StatSlot& LocalStats() const;
  /// Stamps `entry` with the current recency epoch (relaxed, write-once
  /// per epoch — the lock-free hit path's only potential shared write)
  /// and grants its CLOCK second chance. Both stores are conditional, so
  /// a hot entry's line stays in shared state between eviction passes.
  void Touch(Entry& entry) const {
    const uint64_t now = tick_.load(std::memory_order_relaxed) + 1;
    if (entry.last_used.load(std::memory_order_relaxed) != now) {
      entry.last_used.store(now, std::memory_order_relaxed);
    }
    if (!entry.referenced.load(std::memory_order_relaxed)) {
      entry.referenced.store(true, std::memory_order_relaxed);
    }
  }
  /// Copies the shard's current table for a copy-on-write mutation.
  /// Requires shard.mutex held.
  static Table CopyTable(const Shard& shard) {
    return *shard.snapshot.Acquire();
  }
  /// Publishes `table` as the shard's snapshot. Requires shard.mutex held.
  static void PublishTable(Shard* shard, Table table) {
    shard->snapshot.Publish(std::move(table));
  }
  size_t DefaultSizeBytes(const Entry& entry) const;
  /// Bytes `entry` charges against the budget: payload estimate plus view.
  static size_t ChargedBytes(const Entry& entry) {
    return entry.size_bytes +
           entry.view_size_bytes.load(std::memory_order_relaxed);
  }
  /// Adds `entry` to (or removes it from) the resident byte and entry
  /// counts — every whole-entry admission, replacement, trim, eviction
  /// and Clear goes through this pair.
  void Charge(const Entry& entry) {
    bytes_.fetch_add(static_cast<int64_t>(ChargedBytes(entry)),
                     std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  void Uncharge(const Entry& entry) {
    bytes_.fetch_sub(static_cast<int64_t>(ChargedBytes(entry)),
                     std::memory_order_relaxed);
    count_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// Runs `make_view` (if any) over `prepared`, translating failures and
  /// unwinds into a null view (string-path fallback, never an error).
  std::shared_ptr<const void> BuildView(
      const EntryOptions& entry_options,
      const std::shared_ptr<const std::string>& prepared, CostMeter* meter);
  /// Fills entry.view / view_build_failed / view_size_bytes from one
  /// BuildView run (miss publish and Δ-patch re-key share this; the entry
  /// is private to the caller, so plain relaxed stores suffice).
  void AttachView(const EntryOptions& entry_options, Entry* entry,
                  CostMeter* meter);
  /// Serves one snapshot/table hit on the entry resident under `digest`:
  /// recency stamp, stats, meter, and the lazy view repair when the entry
  /// was Loaded or demoted without one.
  Result<PreparedView> ServeHit(uint64_t digest, const EntryPtr& entry,
                                const EntryOptions& entry_options,
                                CostMeter* meter, bool* hit, bool locked);
  /// Hit-path view repair (post-Load entries have no view yet): decodes
  /// outside every lock, then publishes into the shared entry iff it is
  /// still resident and nobody else won the publish race.
  Result<PreparedView> RebuildViewLazily(uint64_t digest,
                                         const EntryPtr& entry,
                                         const EntryOptions& entry_options,
                                         CostMeter* meter);
  /// Sheds entries until the byte budget holds: scans the published
  /// snapshots (no locks) and sorts them into the victim order once, then
  /// first demotes hot entries to warm (view drop via DemoteView) and only
  /// when no view bytes are left evicts, writing spillable victims out as
  /// cold spill frames (warm→cold) before removing them.
  void EvictUntilWithinBudget();
  /// Resident bytes past Options::byte_budget (<= 0: within budget).
  int64_t BytesOver() const;
  /// Hot→warm: publishes a view-less clone of `entry` (same key, payload,
  /// version-window metadata and recency stamp) iff it is still the resident
  /// entry for `digest`. Returns the bytes freed (0 = lost the race).
  /// Readers holding the old entry keep its view alive; the clone
  /// re-promotes through the lazy view rebuild on its next hit.
  int64_t DemoteView(uint64_t digest, const EntryPtr& entry);
  /// Cold-tier probe on the miss-winner path: reads the digest's v3 spill
  /// frame from the active spill directory, validates magic/version/
  /// checksum and the stored key, and returns the payload. Any failure —
  /// no directory, no file, corrupt frame, key mismatch — degrades to
  /// running Π (returns false, counts nothing).
  bool TryLoadColdPayload(const Key& key, std::string* payload) const;
  /// Best-effort spill-directory maintenance after a successful patch:
  /// rewrites the patched entry's file under its new digest and drops the
  /// old digest's file, so Load never resurrects the pre-delta Π(D).
  void RespillPatched(uint64_t old_digest, uint64_t new_digest,
                      const std::string& key,
                      const std::shared_ptr<const std::string>& prepared,
                      size_t size_bytes, bool spillable) const;

  const Options options_;
  std::vector<Shard> shards_;
  /// Last directory handed to Spill/Load, so UpdateData can respill the
  /// one patched entry without a full Spill pass. Empty = no persistence.
  mutable std::mutex spill_dir_mutex_;
  mutable std::string spill_dir_;
  /// Serializes EvictUntilWithinBudget so concurrent publishers cannot
  /// each take a victim and over-evict below budget.
  std::mutex evict_mutex_;
  /// Recency epoch: bumped by writer events only (publish, Load, re-key,
  /// eviction pass). The lock-free hit path *reads* it and stamps
  /// `last_used = tick_ + 1`, so touched entries outrank everything
  /// untouched since the previous writer event without hits contending on
  /// a shared fetch_add.
  std::atomic<uint64_t> tick_{0};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> bytes_{0};
  mutable std::array<StatSlot, kStatSlots> stat_slots_;
};

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_PREPARED_STORE_H_
