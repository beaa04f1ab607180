#include "engine/prepared_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/serde.h"

namespace pitract {
namespace engine {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kSpillMagic = 0x31544950;  // "PIT1"
// v2: spill file names derive from the word-folded Fnv1a64. Files written
// by the byte-at-a-time v1 hash would Load fine (digests are recomputed
// from the stored key) but live under names the new hash can never point
// at, so RespillPatched's remove-the-pre-delta-file guarantee would miss
// them; bumping the version makes v1 files degrade to recompute-on-miss.
// v3: a serde::Checksum64 of the framed body follows the version word.
// v2 frames had no integrity cover beyond serde's structural lengths, so
// a flipped bit inside the key/payload/size regions still parsed and was
// *served*; v3 rejects any bit-level damage (Stats::load_corrupt) and v2
// files degrade to recompute-on-miss like every older format.
constexpr uint32_t kSpillVersion = 3;
constexpr char kSpillExtension[] = ".pit";

/// "digest=<16 hex>" — the entry-naming context every degradation-path
/// status message carries, so chaos diagnostics and wire-protocol error
/// responses can name the failing entry instead of a bare code.
std::string DigestTag(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string tag = "digest=";
  for (int i = 15; i >= 0; --i) {
    tag.push_back(kHex[(digest >> (4 * i)) & 0xf]);
  }
  return tag;
}

/// The rest of an open file in one bulk read (a stream-iterator copy goes
/// a byte at a time and dominated Load for large frames).
std::string ReadAll(std::ifstream& in) {
  std::string bytes;
  const std::streampos start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg() - start;
  if (size > 0) {
    bytes.resize(static_cast<size_t>(size));
    in.seekg(start);
    in.read(bytes.data(), size);
    bytes.resize(static_cast<size_t>(in.gcount()));
  }
  return bytes;
}

std::string DigestFileName(uint64_t digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i) {
    name[static_cast<size_t>(i)] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return name + kSpillExtension;
}

/// Serializes one entry in the spill-frame format and writes it under its
/// digest file name. Shared by the full Spill pass and the single-entry
/// respill after a Δ-patch.
Status WriteSpillFile(const std::string& dir, uint64_t digest,
                      const std::string& key, const std::string& prepared,
                      size_t size_bytes) {
  // v3 frame: [magic u32][version u32][checksum u64][body], where body is
  // PutBytes(key) + PutBytes(prepared) + PutU64(size_bytes) and the
  // checksum covers exactly the body bytes. The header is validated
  // structurally on Load; everything the store would *serve* is under the
  // checksum, so bit rot can only ever degrade to recompute-on-miss.
  std::string body;
  serde::PutBytes(&body, key);
  serde::PutBytes(&body, prepared);
  serde::PutU64(&body, static_cast<uint64_t>(size_bytes));
  std::string framed;
  framed.reserve(body.size() + 16);
  serde::PutU32(&framed, kSpillMagic);
  serde::PutU32(&framed, kSpillVersion);
  serde::PutU64(&framed, serde::Checksum64(body));
  framed.append(body);
  const fs::path path = fs::path(dir) / DigestFileName(digest);
  // Write-then-rename: a concurrent Load never observes a half-written
  // frame under the published name — it either sees the old complete file
  // or the new complete file (rename is atomic within a directory).
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || PITRACT_FAILPOINT("spill.write")) {
      std::error_code cleanup;
      fs::remove(tmp, cleanup);  // a fired site must not strand the tmp
      return Status::Internal("spill.write: cannot open spill file " +
                              tmp.string() + " (" + DigestTag(digest) + ")");
    }
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    // Close explicitly and re-check: a buffered write can fail only at
    // flush time (e.g. ENOSPC), and returning OK on a truncated file
    // would silently lose the warm cache.
    out.close();
    if (!out || PITRACT_FAILPOINT("spill.short_write")) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::Internal("spill.write: short write to spill file " +
                              tmp.string() + " (" + DigestTag(digest) + ")");
    }
  }
  // Fault-injection edge evaluated *before* the real rename: a fired site
  // must leave the filesystem exactly like a failed rename would — tmp
  // cleaned up, nothing published under the final name.
  if (PITRACT_FAILPOINT("spill.rename")) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    return Status::Internal("spill.rename: cannot publish spill file " +
                            path.string() + " (" + DigestTag(digest) +
                            "): failpoint fired");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    return Status::Internal("spill.rename: cannot publish spill file " +
                            path.string() + " (" + DigestTag(digest) +
                            "): " + ec.message());
  }
  return Status::OK();
}

/// One decoded v3 spill frame (see WriteSpillFile for the layout).
struct SpillFrame {
  std::string key;
  std::string prepared;
  uint64_t size_bytes = 0;
};

/// How a spill-file read ended. kSkipped: not ours — unreadable, foreign
/// magic, or an older/newer format version (expected after a format bump,
/// not a data-integrity signal). kCorrupt: ours by magic+version, but the
/// checksum disagrees or the frame is torn.
enum class FrameRead { kOk, kSkipped, kCorrupt };

/// Reads and validates the spill frame at `path` into `*frame`. The one
/// place the frame is parsed: Load classifies the failures into its
/// counters, the cold-tier probe degrades any failure to running Π.
FrameRead ReadSpillFrame(const fs::path& path, SpillFrame* frame) {
  // Fault-injection edge for spill-read I/O: a fired site behaves like a
  // file the filesystem refused to open.
  std::ifstream in(path, std::ios::binary);
  if (!in || PITRACT_FAILPOINT("spill.read")) return FrameRead::kSkipped;
  const std::string framed = ReadAll(in);
  serde::Reader reader(framed);
  auto magic = reader.ReadU32();
  auto version = magic.ok() ? reader.ReadU32() : magic;
  if (!version.ok() || *magic != kSpillMagic || *version != kSpillVersion) {
    return FrameRead::kSkipped;
  }
  // Ours by magic+version: from here every rejection is *corruption*
  // (torn frame or bit rot).
  auto checksum = reader.ReadU64();
  if (!checksum.ok() ||
      *checksum != serde::Checksum64(
                       std::string_view(framed).substr(reader.consumed()))) {
    return FrameRead::kCorrupt;
  }
  auto key = reader.ReadBytes();
  auto prepared = key.ok() ? reader.ReadBytes() : key;
  auto size_bytes = reader.ReadU64();
  if (!key.ok() || !prepared.ok() || !size_bytes.ok() ||
      !reader.exhausted()) {
    // Structurally torn behind a valid checksum — only reachable when the
    // checksum itself was forged, but the degradation contract is the same.
    return FrameRead::kCorrupt;
  }
  frame->key = std::move(key).value();
  frame->prepared = std::move(prepared).value();
  frame->size_bytes = *size_bytes;
  return FrameRead::kOk;
}

/// Options::shards == 0 means "size for the machine": the next power of
/// two >= 2x the core count, so a fully loaded host rarely maps two hot
/// data parts onto the same stripe.
size_t ResolveShards(size_t requested) {
  if (requested != 0) return requested;
  const size_t cores =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  size_t shards = 1;
  while (shards < 2 * cores) shards <<= 1;
  return shards;
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const char* p = bytes.data();
  size_t remaining = bytes.size();
  // Word-at-a-time fold: xor in 8 input bytes per FNV multiply, with one
  // shift-xor so all 8 lanes diffuse (the canonical byte loop gets that
  // diffusion from its 8x more multiplies). ~8x fewer operations on the
  // cold-path hashes of |D|-sized keys.
  while (remaining >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    hash ^= word;
    hash *= 0x100000001b3ull;
    hash ^= hash >> 29;
    p += 8;
    remaining -= 8;
  }
  for (; remaining > 0; --remaining) {
    hash ^= static_cast<unsigned char>(*p++);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

PreparedStore::SnapshotCell::~SnapshotCell() {
  TableRef::Release(Box(val_.load(std::memory_order_relaxed)));
}

void PreparedStore::SnapshotCell::Init(Table table) {
  val_.store(reinterpret_cast<uintptr_t>(new TableBox(std::move(table))),
             std::memory_order_relaxed);
}

uintptr_t PreparedStore::SnapshotCell::Lock(std::memory_order order) const {
  uintptr_t current = val_.load(std::memory_order_relaxed);
  for (;;) {
    if (current & kLockBit) {
      // Another reader/writer is inside its three-instruction window.
      std::this_thread::yield();
      current = val_.load(std::memory_order_relaxed);
      continue;
    }
    if (val_.compare_exchange_weak(current, current | kLockBit, order,
                                   std::memory_order_relaxed)) {
      return current;
    }
  }
}

PreparedStore::TableRef PreparedStore::SnapshotCell::Acquire() const {
  const uintptr_t raw = Lock(std::memory_order_acquire);
  const TableBox* box = Box(raw);
  box->refs.fetch_add(1, std::memory_order_relaxed);
  val_.store(raw, std::memory_order_release);  // unlock
  return TableRef(box);
}

void PreparedStore::SnapshotCell::Publish(Table table) {
  auto* fresh = new TableBox(std::move(table));
  const uintptr_t old = Lock(std::memory_order_acquire);
  // Unlock and swap in one release store: the new snapshot is live the
  // instant the bit clears.
  val_.store(reinterpret_cast<uintptr_t>(fresh), std::memory_order_release);
  TableRef::Release(Box(old));
}

PreparedStore::PreparedStore() : PreparedStore(Options{}) {}

PreparedStore::PreparedStore(const Options& options)
    : options_(Options{ResolveShards(options.shards), options.byte_budget}),
      shards_(options_.shards) {
  // Snapshots start as published empty tables, so the lock-free hit path
  // never has to special-case a null pointer.
  for (Shard& shard : shards_) {
    shard.snapshot.Init(Table{});
  }
}

PreparedStore::StatSlot& PreparedStore::LocalStats() const {
  static std::atomic<size_t> next_slot{0};
  // The slot index is per-thread across all stores: what matters is that
  // two concurrently-running threads land on different cache lines, not
  // which line a given thread gets.
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kStatSlots;
  return stat_slots_[slot];
}

std::string PreparedStore::MakeKey(std::string_view problem,
                                   std::string_view witness,
                                   std::string_view data) {
  // '\x1f' (unit separator) cannot collide with the codec alphabet, so the
  // concatenation is injective.
  std::string key;
  key.reserve(problem.size() + witness.size() + data.size() + 2);
  key.append(problem);
  key.push_back('\x1f');
  key.append(witness);
  key.push_back('\x1f');
  key.append(data);
  return key;
}

size_t PreparedStore::DefaultSizeBytes(const Entry& entry) const {
  return (entry.key != nullptr ? entry.key->size() : 0) +
         (entry.prepared != nullptr ? entry.prepared->size() : 0) +
         kEntryOverheadBytes;
}

PreparedStore::Key PreparedStore::InternKey(std::string_view problem,
                                            std::string_view witness,
                                            std::string_view data) {
  Key key;
  key.bytes =
      std::make_shared<const std::string>(MakeKey(problem, witness, data));
  key.digest = Fnv1a64(*key.bytes);
  return key;
}

std::shared_ptr<const void> PreparedStore::BuildView(
    const EntryOptions& entry_options,
    const std::shared_ptr<const std::string>& prepared, CostMeter* meter) {
  if (!entry_options.make_view) return nullptr;
  // Fault-injection edge for view deserialization: a fired site behaves
  // exactly like a PiWitness::deserialize that rejected the payload — the
  // entry serves the string path (and negative-caches the failure).
  if (PITRACT_FAILPOINT("store.view_build")) return nullptr;
  Result<std::shared_ptr<const void>> view =
      Status::Internal("view build did not run");
  try {
    view = entry_options.make_view(prepared, meter);
  } catch (...) {
    return nullptr;  // degrade to the string answer path
  }
  if (!view.ok() || *view == nullptr) return nullptr;
  LocalStats().view_builds.fetch_add(1, std::memory_order_relaxed);
  return *view;
}

void PreparedStore::AttachView(const EntryOptions& entry_options,
                               Entry* entry, CostMeter* meter) {
  if (!entry_options.make_view) return;
  // The entry is private to the caller here (not yet published), so plain
  // field writes plus relaxed marker stores suffice — the snapshot
  // publication's release ordering makes everything visible to readers.
  entry->view = BuildView(entry_options, entry->prepared, meter);
  entry->view_build_failed.store(entry->view == nullptr,
                                 std::memory_order_relaxed);
  entry->view_size_bytes.store(
      entry->view != nullptr ? entry->prepared->size() : 0,
      std::memory_order_relaxed);
  entry->view_ready.store(entry->view.get(), std::memory_order_relaxed);
}

Result<PreparedStore::PreparedView> PreparedStore::RebuildViewLazily(
    uint64_t digest, const EntryPtr& entry, const EntryOptions& entry_options,
    CostMeter* meter) {
  // Decode outside every lock — the build is O(|Π(D)|) and must not stall
  // the stripe. Two racing hitters may both decode; exactly one publishes
  // (the miss-storm path never races: the in-flight winner builds before
  // publishing the entry).
  std::shared_ptr<const void> built =
      BuildView(entry_options, entry->prepared, meter);
  std::shared_ptr<const void> serve = built;
  bool accounted = false;
  {
    Shard& shard = ShardFor(digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(digest);
    if (it != table->end() && it->second == entry) {
      if (entry->view_ready.load(std::memory_order_relaxed) != nullptr) {
        serve = entry->view;  // somebody else won the publish race
      } else if (built == nullptr) {
        // Negative-cache the failure: later hits serve the string path
        // directly instead of re-running the failing decode per hit.
        entry->view_build_failed.store(true, std::memory_order_relaxed);
        return PreparedView{entry->prepared, nullptr, ChargedBytes(*entry)};
      } else {
        // Write-once publication: the plain field store below is the only
        // post-publication write `view` ever sees, and it happens-before
        // every lock-free read via the release marker store.
        entry->view = built;
        entry->view_size_bytes.store(entry->prepared->size(),
                                     std::memory_order_relaxed);
        entry->view_ready.store(built.get(), std::memory_order_release);
        bytes_.fetch_add(static_cast<int64_t>(entry->prepared->size()),
                         std::memory_order_relaxed);
        accounted = true;
      }
    }
    // Entry not resident any more: it moved on (evicted, re-keyed) while
    // we decoded. The (prepared, built) snapshot pair is still internally
    // consistent, so serve it without publishing.
  }
  if (accounted) EvictUntilWithinBudget();
  return PreparedView{entry->prepared, serve, ChargedBytes(*entry)};
}

Result<PreparedStore::PreparedView> PreparedStore::ServeHit(
    uint64_t digest, const EntryPtr& entry, const EntryOptions& entry_options,
    CostMeter* meter, bool* hit, bool locked) {
  Touch(*entry);
  StatSlot& stats = LocalStats();
  stats.hits.fetch_add(1, std::memory_order_relaxed);
  if (locked) stats.locked_hits.fetch_add(1, std::memory_order_relaxed);
  if (meter != nullptr) meter->AddSerial(1);  // the snapshot probe
  if (hit != nullptr) *hit = true;
  // The acquire marker load makes the write-once `view` field immutable
  // from this reader's perspective: once non-null, reading (copying) the
  // shared_ptr without any lock is race-free.
  if (entry->view_ready.load(std::memory_order_acquire) != nullptr) {
    return PreparedView{entry->prepared, entry->view,
                        ChargedBytes(*entry)};
  }
  if (entry_options.make_view &&
      !entry->view_build_failed.load(std::memory_order_relaxed)) {
    // Loaded entry: spill files carry only the payload, so the first warm
    // hit repairs the decoded view (outside every lock).
    return RebuildViewLazily(digest, entry, entry_options, meter);
  }
  return PreparedView{entry->prepared, nullptr, ChargedBytes(*entry)};
}

PreparedStore::Key PreparedStore::BuildKeyCounted(std::string_view problem,
                                                  std::string_view witness,
                                                  std::string_view data) const {
  LocalStats().key_builds.fetch_add(1, std::memory_order_relaxed);
  return InternKey(problem, witness, data);
}

bool PreparedStore::TryGetView(const Key& key,
                               const EntryOptions& entry_options,
                               CostMeter* meter, PreparedView* out) {
  EntryPtr entry;
  {
    TableRef table = ShardFor(key.digest).snapshot.Acquire();
    auto it = table->find(key.digest);
    if (it == table->end() || !EntryMatches(*it->second, key)) return false;
    entry = it->second;
  }
  // ServeHit may still lock a stripe once per entry lifetime (the lazy
  // post-Load view repair), but the steady-state warm probe is the same
  // lock-free snapshot hit GetOrComputeView serves.
  auto served = ServeHit(key.digest, entry, entry_options, meter, nullptr,
                         /*locked=*/false);
  if (!served.ok()) return false;
  *out = std::move(served).value();
  return true;
}

Result<PreparedStore::PreparedView> PreparedStore::GetOrComputeView(
    const Key& key, const ComputeFn& compute, CostMeter* meter, bool* hit,
    const EntryOptions& entry_options) {
  const uint64_t digest = key.digest;
  Shard& shard = ShardFor(digest);

  // Warm hit path: probe the published snapshot. No mutex, no shared LRU
  // splice, no shared stats line — one atomic snapshot acquire, one table
  // probe, one conditional relaxed recency stamp.
  {
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(digest);
    if (it != table->end() && EntryMatches(*it->second, key)) {
      return ServeHit(digest, it->second, entry_options, meter, hit,
                      /*locked=*/false);
    }
  }

  // Snapshot miss: fall back to the locked slow path. Re-probe under the
  // mutex first — a writer may have published the entry between our
  // snapshot load and here (such hits are counted in Stats::locked_hits;
  // a warm steady-state run must produce none).
  std::shared_ptr<Inflight> flight;
  bool winner = false;
  EntryPtr resident;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(digest);
    if (it != table->end() && EntryMatches(*it->second, key)) {
      resident = it->second;
    } else {
      auto in = shard.inflight.find(*key.bytes);
      if (in != shard.inflight.end()) {
        flight = in->second;
      } else {
        winner = true;
        flight = std::make_shared<Inflight>();
        flight->ready = flight->done.get_future().share();
        shard.inflight.emplace(*key.bytes, flight);
        LocalStats().misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (resident != nullptr) {
    return ServeHit(digest, resident, entry_options, meter, hit,
                    /*locked=*/true);
  }

  if (!winner) {
    // Another caller's Π for this exact key is in flight: block on its
    // shared_future instead of running a duplicate Π.
    LocalStats().inflight_waits.fetch_add(1, std::memory_order_relaxed);
    flight->ready.wait();
    if (flight->result.ok()) {
      LocalStats().hits.fetch_add(1, std::memory_order_relaxed);
      if (meter != nullptr) meter->AddSerial(1);  // the rendezvous probe
      if (hit != nullptr) *hit = true;
      return flight->result;
    }
    if (hit != nullptr) *hit = false;
    return flight->result.status();
  }

  // We own the in-flight slot: run Π outside every lock, then publish.
  // A ComputeFn that throws (e.g. bad_alloc mid-preprocess) must not leak
  // the slot — waiters would block forever — so unwinds become a Status
  // and take the same failure path as a Status-returning Π.
  if (hit != nullptr) *hit = false;
  Result<std::string> prepared = Status::Internal("Π did not run");
  // Cold-tier promotion: a previously demoted (or spilled) entry's v3
  // frame under this digest holds exactly Π(this data part) — reading one
  // file beats re-running Π. Any validation failure degrades silently to
  // the compute below.
  bool promoted = false;
  std::string cold_payload;
  if (TryLoadColdPayload(key, &cold_payload)) {
    if (meter != nullptr) {
      meter->AddBytesRead(static_cast<int64_t>(cold_payload.size()));
    }
    prepared = std::move(cold_payload);
    promoted = true;
    LocalStats().cold_promotions.fetch_add(1, std::memory_order_relaxed);
  }
  // Fault-injection edge for the Π build itself (the miss-storm winner
  // path every Prepare and blocking AnswerBatch funnels into): a fired
  // site is indistinguishable from a Π that failed mid-preprocess.
  if (promoted) {
  } else if (PITRACT_FAILPOINT("store.pi_build")) {
    prepared = Status::Internal("failpoint store.pi_build fired");
  } else {
    try {
      prepared = compute(meter);
    } catch (const std::exception& e) {
      prepared = Status::Internal(std::string("Π threw: ") + e.what());
    } catch (...) {
      prepared = Status::Internal("Π threw a non-exception");
    }
  }
  if (!prepared.ok()) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(*key.bytes);
    }
    // Name the failing entry: the winner's status fans out to every
    // waiter on the shared_future and up through pipeline completions,
    // where a bare "Π exploded" is undebuggable.
    const Status failed(prepared.status().code(),
                        "Π build failed (" + DigestTag(digest) +
                            "): " + prepared.status().message());
    flight->result = failed;
    flight->done.set_value();
    return failed;
  }

  EntryPtr entry = std::make_shared<Entry>();
  entry->key = key.bytes;
  entry->prepared =
      std::make_shared<const std::string>(std::move(prepared).value());
  // The miss winner builds the decoded view before publishing, so the
  // whole miss storm — winner and every waiter on the shared_future —
  // shares exactly one build.
  AttachView(entry_options, entry.get(), meter);
  entry->spillable = entry_options.spillable;
  entry->size_bytes = entry_options.size_of
                          ? entry_options.size_of(*entry->prepared)
                          : DefaultSizeBytes(*entry);
  PreparedView result{entry->prepared, entry->view, ChargedBytes(*entry)};
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    entry->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
    Table table = CopyTable(shard);
    auto it = table.find(digest);
    if (it != table.end()) {
      // Digest collision (or a concurrent Load): replace, stay correct.
      Uncharge(*it->second);
      it->second = entry;
    } else {
      table.emplace(digest, entry);
    }
    Charge(*entry);
    PublishTable(&shard, std::move(table));
    shard.inflight.erase(*key.bytes);
  }
  flight->result = result;
  flight->done.set_value();
  EvictUntilWithinBudget();
  return result;
}

Status PreparedStore::UpdateData(std::string_view problem,
                                 std::string_view witness,
                                 std::string_view old_data,
                                 std::string_view new_data,
                                 const PatchFn& patch, CostMeter* meter,
                                 const EntryOptions& entry_options) {
  // Two O(|D|) key materializations (old + new): deltas are rare next to
  // answers, so the update path stays string-keyed.
  LocalStats().key_builds.fetch_add(2, std::memory_order_relaxed);
  const Key old_key = InternKey(problem, witness, old_data);
  const Key new_key = InternKey(problem, witness, new_data);
  const uint64_t old_digest = old_key.digest;
  const uint64_t new_digest = new_key.digest;
  const size_t old_index = static_cast<size_t>(old_digest) % shards_.size();
  const size_t new_index = static_cast<size_t>(new_digest) % shards_.size();

  // Phase 1: snapshot the resident entry under the old stripe. A Π for
  // old_data in flight right now is about to publish exactly the payload
  // we want to patch, so instead of immediately degrading to
  // recompute-on-miss we block on the storm's shared_future once and
  // retry; only a second storm observed after that retry gives up.
  EntryPtr old_entry;
  for (int attempt = 0;; ++attempt) {
    std::shared_ptr<Inflight> flight;
    {
      Shard& old_shard = shards_[old_index];
      std::lock_guard<std::mutex> lock(old_shard.mutex);
      auto in = old_shard.inflight.find(*old_key.bytes);
      if (in != old_shard.inflight.end()) {
        if (attempt > 0) {
          // A *new* miss storm started while we waited out the first.
          // Patching would re-key the about-to-be-published entry out
          // from under the waiters on the shared_future, so the delta
          // degrades to recompute-on-miss instead.
          LocalStats().patch_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Status::Unavailable(
              "store.patch: Π(old data) still in flight after retry; not "
              "re-keying (" +
              DigestTag(old_digest) + ")");
        }
        flight = in->second;
      } else {
        TableRef table = old_shard.snapshot.Acquire();
        auto it = table->find(old_digest);
        if (it == table->end() || !EntryMatches(*it->second, old_key)) {
          LocalStats().patch_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Status::NotFound(
              "store.patch: no resident Π for the pre-delta data part (" +
              DigestTag(old_digest) + ")");
        }
        if (it->second->superseded.load(std::memory_order_acquire)) {
          // A concurrent delta already advanced this version: version
          // retention keeps the entry resident for stale readers, but it
          // must not fork the version chain into two successors.
          LocalStats().patch_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
          return Status::Unavailable(
              "store.patch: pre-delta version already superseded; not "
              "forking the chain (" +
              DigestTag(old_digest) + ")");
        }
        old_entry = it->second;
      }
    }
    if (flight == nullptr) break;
    LocalStats().update_retries.fetch_add(1, std::memory_order_relaxed);
    flight->ready.wait();  // no locks held: the winner can publish freely
  }
  const std::shared_ptr<const std::string> snapshot = old_entry->prepared;

  // Phase 2: copy-on-write patch outside every lock. Readers holding the
  // old shared_ptr keep a consistent pre-delta snapshot throughout.
  if (meter != nullptr) meter->AddSerial(1);  // the digest probe
  std::string patched = *snapshot;
  Status status;
  // Fault-injection edge for the Δ-patch hook: a fired site behaves like
  // a PreparedPatchFn that errored mid-batch — the resident entry is
  // untouched and the post-delta data recomputes on its first miss.
  if (PITRACT_FAILPOINT("store.patch")) {
    status = Status::Internal("failpoint store.patch fired");
  } else {
    status = patch(&patched, meter);
  }
  if (!status.ok()) {
    LocalStats().patch_fallbacks.fetch_add(1, std::memory_order_relaxed);
    // Entry untouched; new data recomputes on miss. Name the version hop
    // the failed hook was asked to make.
    return Status(status.code(), "store.patch: Δ-patch hook failed (" +
                                     DigestTag(old_digest) + " -> " +
                                     DigestTag(new_digest) +
                                     "): " + status.message());
  }
  EntryPtr fresh = std::make_shared<Entry>();
  fresh->key = new_key.bytes;
  fresh->prepared = std::make_shared<const std::string>(std::move(patched));
  // The pre-patch decoded view must never survive a re-key: rebuild it
  // from the patched payload here (still outside every lock); a failed
  // build leaves a null view and the entry serves the string path.
  AttachView(entry_options, fresh.get(), meter);
  fresh->spillable = entry_options.spillable;
  fresh->size_bytes = entry_options.size_of
                          ? entry_options.size_of(*fresh->prepared)
                          : DefaultSizeBytes(*fresh);
  const std::shared_ptr<const std::string> respill_payload = fresh->prepared;
  const size_t respill_size = fresh->size_bytes;

  // Phase 3: revalidate and publish atomically under both stripes; index
  // order keeps the two-lock acquisition acyclic (every other path holds
  // at most one shard lock at a time).
  {
    std::unique_lock<std::mutex> first_lock(
        shards_[std::min(old_index, new_index)].mutex);
    std::unique_lock<std::mutex> second_lock;
    if (old_index != new_index) {
      second_lock = std::unique_lock<std::mutex>(
          shards_[std::max(old_index, new_index)].mutex);
    }
    Shard& old_shard = shards_[old_index];
    Shard& new_shard = shards_[new_index];

    TableRef old_table = old_shard.snapshot.Acquire();
    auto it = old_table->find(old_digest);
    if (old_shard.inflight.find(*old_key.bytes) != old_shard.inflight.end() ||
        it == old_table->end() || it->second != old_entry ||
        old_entry->superseded.load(std::memory_order_acquire)) {
      // The slot moved while the patch ran unlocked (evicted, replaced by
      // a fresh Π or Load, re-keyed by a concurrent delta, or a new miss
      // storm started). The patched copy matches a payload that is no
      // longer current, so publishing it could tear a newer structure —
      // degrade to recompute-on-miss instead.
      LocalStats().patch_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "store.patch: Π(old data) changed while patching; not re-keying (" +
          DigestTag(old_digest) + ")");
    }
    fresh->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);

    // Publish the patched version k+1 under the post-delta digest
    // (replacing a digest collision or a concurrently loaded duplicate).
    // A re-keyed pre-delta entry is *retained* — marked superseded, but
    // still digest-addressable so a reader that took its key just before
    // the delta keeps getting version-k answers warm; the trim below keeps
    // the window at kVersions. A delta that leaves the digest unchanged
    // replaces the entry in place, and the replacement inherits its
    // predecessor.
    const bool rekeyed = old_digest != new_digest;
    fresh->predecessor_digest =
        rekeyed ? old_digest : old_entry->predecessor_digest;
    fresh->has_predecessor = rekeyed || old_entry->has_predecessor;
    if (rekeyed) old_entry->superseded.store(true, std::memory_order_release);
    Table table = CopyTable(new_shard);
    auto dest = table.find(new_digest);
    if (dest != table.end()) {
      Uncharge(*dest->second);  // the in-place entry, or a collision
      dest->second = fresh;
    } else {
      table.emplace(new_digest, fresh);
    }
    Charge(*fresh);
    PublishTable(&new_shard, std::move(table));
    LocalStats().patches.fetch_add(1, std::memory_order_relaxed);
  }

  static_assert(kVersions == 2, "the trim below retains one predecessor");
  if (old_digest != new_digest && old_entry->has_predecessor) {
    // Trim the version window: publishing k+1 drops k−1 if it is still
    // resident and superseded. A stream that revisits a data part re-keys
    // k+1 onto k−1's digest; that head is never the victim, even once a
    // concurrent delta has superseded it. A superseded entry another
    // stream left at that digest may go too: it serves only readers pinned
    // on it, and they go cold and recompute their own version.
    const uint64_t pred_digest = old_entry->predecessor_digest;
    Shard& shard = ShardFor(pred_digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef current = shard.snapshot.Acquire();
    auto found = current->find(pred_digest);
    if (found != current->end() && found->second != fresh &&
        found->second->superseded.load(std::memory_order_acquire)) {
      const EntryPtr pred = found->second;
      Table table = *current;
      table.erase(pred_digest);
      Uncharge(*pred);
      LocalStats().evictions.fetch_add(1, std::memory_order_relaxed);
      PublishTable(&shard, std::move(table));
    }
  }

  RespillPatched(old_digest, new_digest, *new_key.bytes, respill_payload,
                 respill_size, entry_options.spillable);
  EvictUntilWithinBudget();
  return Status::OK();
}

void PreparedStore::RespillPatched(
    uint64_t old_digest, uint64_t new_digest, const std::string& key,
    const std::shared_ptr<const std::string>& prepared, size_t size_bytes,
    bool spillable) const {
  // spill_dir_mutex_ is held across the whole rewrite so chained patches
  // (v1→v2, v2→v3) cannot interleave their file writes/removes: without
  // this, a lagging v2 write could land after v3's remove of it and a
  // restart would resurrect the pre-delta Π.
  std::lock_guard<std::mutex> lock(spill_dir_mutex_);
  if (spill_dir_.empty()) return;
  // Best-effort: a failed rewrite leaves a missing or corrupt file, both
  // of which Load already degrades to recompute-on-miss.
  if (spillable && prepared != nullptr) {
    bool still_current = false;
    {
      const Shard& shard = ShardFor(new_digest);
      TableRef table = shard.snapshot.Acquire();
      auto it = table->find(new_digest);
      still_current = it != table->end() && *it->second->key == key &&
                      it->second->prepared == prepared;
    }
    // Only the payload that is still resident gets a file; if a later
    // patch or eviction already moved the entry on, its own respill (or
    // the next full Spill) owns the directory's view of it.
    if (still_current) {
      Status written = WriteSpillFile(spill_dir_, new_digest, key, *prepared,
                                      size_bytes);
      if (written.ok()) {
        LocalStats().spilled.fetch_add(1, std::memory_order_relaxed);
      } else {
        // The rewrite stays best-effort (Load degrades a missing/stale
        // file to recompute-on-miss) but is no longer *silent*: a dying
        // disk shows up in stats() instead of only after a restart.
        LocalStats().respill_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (old_digest != new_digest) {
    std::error_code ec;
    fs::remove(fs::path(spill_dir_) / DigestFileName(old_digest), ec);
  }
}

bool PreparedStore::Contains(std::string_view problem, std::string_view witness,
                             std::string_view data) const {
  const Key key = BuildKeyCounted(problem, witness, data);
  const Shard& shard = ShardFor(key.digest);
  TableRef table = shard.snapshot.Acquire();
  auto it = table->find(key.digest);
  // Superseded versions stay digest-addressable for pinned readers but do
  // not count as "the store knows this data part" — a fresh admission for
  // the key must go through the normal miss path.
  return it != table->end() && EntryMatches(*it->second, key) &&
         !it->second->superseded.load(std::memory_order_relaxed);
}

void PreparedStore::Retire(const Key& key) {
  {
    Shard& shard = ShardFor(key.digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    auto it = table->find(key.digest);
    if (it == table->end() || !EntryMatches(*it->second, key)) return;
    it->second->referenced.store(false, std::memory_order_relaxed);
    it->second->superseded.store(true, std::memory_order_release);
  }
  EvictUntilWithinBudget();
}

int64_t PreparedStore::BytesOver() const {
  if (options_.byte_budget == 0) return 0;
  return bytes_.load(std::memory_order_relaxed) -
         static_cast<int64_t>(options_.byte_budget);
}

int64_t PreparedStore::DemoteView(uint64_t digest, const EntryPtr& entry) {
  // The demoted state is a *clone* without the view, published through
  // the normal snapshot swap — the resident Entry is never mutated, so
  // concurrent lock-free readers of the old entry keep a consistent
  // (payload, view) pair and the warm hit path stays lock-free. An
  // UpdateData or lazy rebuild racing this publish revalidates by entry
  // pointer and degrades safely (patch fallback / serve-without-publish).
  Shard& shard = ShardFor(digest);
  std::lock_guard<std::mutex> lock(shard.mutex);
  TableRef table = shard.snapshot.Acquire();
  auto it = table->find(digest);
  if (it == table->end() || it->second != entry) return 0;
  const int64_t freed =
      static_cast<int64_t>(entry->view_size_bytes.load(std::memory_order_relaxed));
  if (freed <= 0) return 0;  // lazily dropped already or never built
  EntryPtr warm = std::make_shared<Entry>();
  warm->key = entry->key;
  warm->prepared = entry->prepared;
  // view / view_ready stay null and view_build_failed false: the next hit
  // re-promotes hot through the existing lazy rebuild path.
  warm->last_used.store(entry->last_used.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  warm->size_bytes = entry->size_bytes;
  warm->spillable = entry->spillable;
  warm->predecessor_digest = entry->predecessor_digest;
  warm->has_predecessor = entry->has_predecessor;
  warm->superseded.store(entry->superseded.load(std::memory_order_acquire),
                         std::memory_order_relaxed);
  Table fresh = *table;
  fresh[digest] = warm;
  bytes_.fetch_sub(freed, std::memory_order_relaxed);
  PublishTable(&shard, std::move(fresh));
  LocalStats().view_demotions.fetch_add(1, std::memory_order_relaxed);
  return freed;
}

void PreparedStore::EvictUntilWithinBudget() {
  // One evictor at a time: two publishers both observing the deficit
  // would otherwise each take a victim and over-evict below budget. The
  // eviction lock is never taken while holding a shard lock, so ordering
  // is acyclic (spill_dir_mutex_ nests inside evict_mutex_; no path takes
  // evict_mutex_ while holding it).
  std::lock_guard<std::mutex> evict_lock(evict_mutex_);
  if (BytesOver() <= 0) return;
  // New recency epoch: entries touched after this pass stamp a value that
  // outranks every pre-pass stamp, so the next pass sees them as recent.
  tick_.fetch_add(1, std::memory_order_relaxed);
  for (int64_t bytes_over = BytesOver(); bytes_over > 0;
       bytes_over = BytesOver()) {
    // Victim selection: one lock-free scan of the published snapshots
    // collects every candidate with its recency stamp, CLOCK bit and byte
    // charges; one sort then yields the whole demotion or eviction *batch*
    // for this pass (enough to clear the deficit), so a store pushed far
    // over budget (e.g. an over-budget Load) pays one scan and at most one
    // table copy per shard — not one per victim.
    struct Candidate {
      uint64_t stamp;
      bool second_chance;  // CLOCK bit was set at scan time (now cleared)
      bool superseded;     // retained old version: preferred victim
      size_t shard;
      uint64_t digest;
      EntryPtr entry;
      int64_t charge;      // bytes eviction frees (payload + view)
      int64_t view_bytes;  // bytes a hot→warm demotion frees
    };
    std::vector<Candidate> candidates;
    for (size_t si = 0; si < shards_.size(); ++si) {
      TableRef table = shards_[si].snapshot.Acquire();
      for (const auto& [digest, entry] : *table) {
        // CLOCK second chance: consume the referenced bit. An entry hit
        // since the previous sweep sorts behind every unreferenced entry
        // this pass (it is only taken when the unreferenced set cannot
        // clear the deficit — the byte-budget invariant always wins).
        const bool spare =
            entry->referenced.exchange(false, std::memory_order_relaxed);
        const int64_t view_bytes = static_cast<int64_t>(
            entry->view_size_bytes.load(std::memory_order_relaxed));
        candidates.push_back(
            {entry->last_used.load(std::memory_order_relaxed), spare,
             entry->superseded.load(std::memory_order_relaxed), si, digest,
             entry, static_cast<int64_t>(entry->size_bytes) + view_bytes,
             view_bytes});
      }
    }
    if (candidates.empty()) return;  // store drained concurrently
    // The one victim order, shared by demotion and eviction: unreferenced
    // entries first, then superseded versions (they exist only for pinned
    // readers), then the oldest recency stamp. The stamp is an epoch, so
    // entries touched in the same epoch tie arbitrarily.
    auto victim_before = [&candidates](size_t ia, size_t ib) {
      const Candidate& a = candidates[ia];
      const Candidate& b = candidates[ib];
      if (a.second_chance != b.second_chance) return !a.second_chance;
      if (a.superseded != b.superseded) return a.superseded;
      return a.stamp < b.stamp;
    };

    // Phase A: demote hot→warm before evicting anything. Dropping a
    // decoded view keeps the payload answering via the string path —
    // strictly cheaper to undo (one lazy rebuild) than an eviction (a Π
    // re-run), so views are always the first bytes to go. Only the view
    // holders are sorted here: most passes end in this phase, and a pass
    // often runs on a reader's thread, after a lazy view rebuild.
    std::vector<size_t> holders;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].view_bytes > 0) holders.push_back(i);
    }
    std::sort(holders.begin(), holders.end(), victim_before);
    int64_t demoted = 0;
    for (size_t idx : holders) {
      if (demoted >= bytes_over) break;
      demoted += DemoteView(candidates[idx].digest, candidates[idx].entry);
    }
    if (demoted > 0) continue;  // re-check the budget, rescan if needed

    // Phase B: no view bytes left to shed. Take the prefix of the victim
    // order that clears the deficit (recomputed from the live counter,
    // which concurrent publishers may have moved).
    std::vector<size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), victim_before);
    size_t take = 0;
    while (take < order.size() && bytes_over > 0) {
      bytes_over -= candidates[order[take]].charge;
      ++take;
    }
    // Evict the batch grouped by shard: one copy-on-write + publish per
    // touched shard. A candidate whose slot moved on since the scan
    // (replaced, re-keyed, already evicted) is skipped; the outer loop
    // re-checks the budget and rescans if the skips left us over.
    struct ColdDemotion {
      uint64_t digest;
      std::shared_ptr<const std::string> key;
      std::shared_ptr<const std::string> prepared;
      size_t size_bytes;
    };
    std::vector<ColdDemotion> cold;
    for (size_t si = 0; si < shards_.size(); ++si) {
      bool touched = false;
      Shard& shard = shards_[si];
      std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
      Table table;
      for (size_t ci = 0; ci < take; ++ci) {
        const Candidate& victim = candidates[order[ci]];
        if (victim.shard != si) continue;
        if (!touched) {
          lock.lock();
          table = CopyTable(shard);
          touched = true;
        }
        auto it = table.find(victim.digest);
        if (it == table.end() || it->second != victim.entry) continue;
        table.erase(it);
        // Uncharge re-reads the charge under the lock: a lazy view rebuild
        // since the scan may have grown it (the scan-time value was only
        // the prefix-size estimate).
        Uncharge(*victim.entry);
        LocalStats().evictions.fetch_add(1, std::memory_order_relaxed);
        if (victim.entry->spillable && !victim.superseded) {
          // Warm→cold: remember the payload so it can be written out as a
          // spill frame after the shard locks drop. Until the write lands
          // the entry simply recomputes on miss — the old frame from an
          // earlier Spill pass (same content-addressed payload) may even
          // still cover it.
          cold.push_back({victim.digest, victim.entry->key,
                          victim.entry->prepared, victim.entry->size_bytes});
        }
      }
      if (touched) PublishTable(&shard, std::move(table));
    }
    if (!cold.empty()) {
      // Outside every shard lock; spill_dir_mutex_ serializes against
      // Spill's stale-file sweep and RespillPatched's rewrite/remove.
      std::lock_guard<std::mutex> dir_lock(spill_dir_mutex_);
      if (!spill_dir_.empty()) {
        for (const ColdDemotion& demotion : cold) {
          Status wrote =
              WriteSpillFile(spill_dir_, demotion.digest, *demotion.key,
                             *demotion.prepared, demotion.size_bytes);
          if (wrote.ok()) {
            LocalStats().cold_demotions.fetch_add(1,
                                                  std::memory_order_relaxed);
          } else {
            // Degrade-to-recompute, loudly: the miss will run Π and the
            // dying disk shows up in stats().
            LocalStats().respill_failures.fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      }
    }
  }
}

bool PreparedStore::TryLoadColdPayload(const Key& key,
                                       std::string* payload) const {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(spill_dir_mutex_);
    if (spill_dir_.empty()) return false;
    dir = spill_dir_;
  }
  // The read runs unlocked: a concurrent RespillPatched/Spill may remove
  // or replace the file mid-read, but tmp+rename publication means we see
  // either a complete old frame or a complete new one — and every
  // validation failure just degrades to running Π.
  SpillFrame frame;
  if (ReadSpillFrame(fs::path(dir) / DigestFileName(key.digest), &frame) !=
      FrameRead::kOk) {
    return false;
  }
  // The full-key guard: a digest collision (file named like our digest
  // but holding a foreign key) degrades to a plain Π run, never to a
  // wrong structure.
  if (frame.key != *key.bytes) return false;
  *payload = std::move(frame.prepared);
  return true;
}

Status PreparedStore::Spill(const std::string& dir) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create spill directory '" + dir +
                            "': " + ec.message());
  }
  // Hold the directory lock across the writes, the stale-file sweep, and
  // the spill_dir_ switch: a RespillPatched racing this pass could
  // otherwise write a post-delta file that the sweep below (built from an
  // older residency snapshot) would immediately delete.
  std::lock_guard<std::mutex> dir_lock(spill_dir_mutex_);
  struct Snapshot {
    uint64_t digest;
    std::string key;
    std::shared_ptr<const std::string> prepared;
    size_t size_bytes;
  };
  std::vector<Snapshot> snapshots;
  for (const Shard& shard : shards_) {
    // The published table is immutable: iterating it needs no lock.
    TableRef table = shard.snapshot.Acquire();
    for (const auto& [digest, entry] : *table) {
      // Superseded versions never spill: a restart should rehydrate the
      // current head of each delta stream, not a retired predecessor.
      if (!entry->spillable ||
          entry->superseded.load(std::memory_order_relaxed)) {
        continue;
      }
      snapshots.push_back({digest, *entry->key, entry->prepared,
                           entry->size_bytes});
    }
  }
  std::vector<std::string> written;
  written.reserve(snapshots.size());
  Status first_failure;
  int64_t spilled = 0;
  int64_t failures = 0;
  for (const Snapshot& snapshot : snapshots) {
    Status wrote = WriteSpillFile(dir, snapshot.digest, snapshot.key,
                                  *snapshot.prepared, snapshot.size_bytes);
    if (!wrote.ok()) {
      // One bad write must not lose the rest of the warm set: keep
      // spilling, count the failure, and report the first error after the
      // pass. The failed digest still lands in `written` so the sweep
      // below keeps any *older* file for it — spill files are
      // content-addressed, so an earlier file under the same digest holds
      // the same payload and is strictly better than nothing.
      ++failures;
      if (first_failure.ok()) first_failure = wrote;
    } else {
      ++spilled;
    }
    written.push_back(DigestFileName(snapshot.digest));
  }
  // Drop stale spill files from earlier spills (entries since evicted or
  // replaced), so the directory always mirrors exactly this snapshot and
  // Load never resurrects dead entries.
  std::sort(written.begin(), written.end());
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file() ||
        dirent.path().extension() != kSpillExtension) {
      continue;
    }
    const std::string name = dirent.path().filename().string();
    if (!std::binary_search(written.begin(), written.end(), name)) {
      fs::remove(dirent.path(), ec);
    }
  }
  LocalStats().spilled.fetch_add(spilled, std::memory_order_relaxed);
  LocalStats().respill_failures.fetch_add(failures, std::memory_order_relaxed);
  // Remember the active spill directory so Δ-patches keep it current.
  spill_dir_ = dir;
  return first_failure;
}

Result<size_t> PreparedStore::Load(const std::string& dir) {
  // The directory lock spans the whole scan-and-admit pass: a concurrent
  // RespillPatched (which rewrites the post-delta file and removes the
  // pre-delta one under the same lock) can run entirely before or entirely
  // after this Load, never interleaved with it — so Load cannot read a
  // file whose entry was re-keyed mid-scan and resurrect the stale
  // payload. Released before the eviction pass below (the evictor takes
  // shard locks of its own and must stay outside this ordering).
  std::unique_lock<std::mutex> dir_lock(spill_dir_mutex_);
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot read spill directory '" + dir +
                            "': " + ec.message());
  }
  size_t loaded = 0;
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file() ||
        dirent.path().extension() != kSpillExtension) {
      continue;
    }
    SpillFrame frame;
    const FrameRead read = ReadSpillFrame(dirent.path(), &frame);
    if (read != FrameRead::kOk) {
      // Either way the file degrades to recompute-on-miss: Load never
      // admits bytes the checksum cannot vouch for.
      (read == FrameRead::kSkipped ? LocalStats().load_skipped
                                   : LocalStats().load_corrupt)
          .fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    EntryPtr entry = std::make_shared<Entry>();
    entry->key = std::make_shared<const std::string>(std::move(frame.key));
    entry->prepared =
        std::make_shared<const std::string>(std::move(frame.prepared));
    // Spill files carry only the payload: the decoded view is rebuilt
    // lazily on this entry's first warm hit.
    entry->size_bytes = static_cast<size_t>(frame.size_bytes);
    entry->spillable = true;
    const uint64_t digest = Fnv1a64(*entry->key);
    Shard& shard = ShardFor(digest);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      entry->last_used.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      Table table = CopyTable(shard);
      auto existing = table.find(digest);
      if (existing != table.end() &&
          *existing->second->key == *entry->key) {
        // The resident entry for this exact key wins: it carries the live
        // version-window metadata and possibly a rebuilt view, while the
        // file is at best an equal payload from an earlier spill. Loading
        // over it could splice a stale payload into a live version chain.
      } else {
        if (existing != table.end()) {
          Uncharge(*existing->second);
          existing->second = entry;
        } else {
          table.emplace(digest, entry);
        }
        Charge(*entry);  // no view yet: view_size_bytes == 0
        PublishTable(&shard, std::move(table));
        admitted = true;
      }
    }
    if (admitted) ++loaded;
  }
  LocalStats().loaded.fetch_add(static_cast<int64_t>(loaded),
                                std::memory_order_relaxed);
  spill_dir_ = dir;
  dir_lock.unlock();
  EvictUntilWithinBudget();
  return loaded;
}

PreparedStore::Stats PreparedStore::stats() const {
  Stats stats;
  for (const StatSlot& slot : stat_slots_) {
    stats.hits += slot.hits.load(std::memory_order_relaxed);
    stats.misses += slot.misses.load(std::memory_order_relaxed);
    stats.evictions += slot.evictions.load(std::memory_order_relaxed);
    stats.inflight_waits +=
        slot.inflight_waits.load(std::memory_order_relaxed);
    stats.spilled += slot.spilled.load(std::memory_order_relaxed);
    stats.loaded += slot.loaded.load(std::memory_order_relaxed);
    stats.patches += slot.patches.load(std::memory_order_relaxed);
    stats.patch_fallbacks +=
        slot.patch_fallbacks.load(std::memory_order_relaxed);
    stats.key_builds += slot.key_builds.load(std::memory_order_relaxed);
    stats.view_builds += slot.view_builds.load(std::memory_order_relaxed);
    stats.locked_hits += slot.locked_hits.load(std::memory_order_relaxed);
    stats.update_retries +=
        slot.update_retries.load(std::memory_order_relaxed);
    stats.respill_failures +=
        slot.respill_failures.load(std::memory_order_relaxed);
    stats.load_skipped += slot.load_skipped.load(std::memory_order_relaxed);
    stats.load_corrupt += slot.load_corrupt.load(std::memory_order_relaxed);
    stats.view_demotions +=
        slot.view_demotions.load(std::memory_order_relaxed);
    stats.cold_demotions +=
        slot.cold_demotions.load(std::memory_order_relaxed);
    stats.cold_promotions +=
        slot.cold_promotions.load(std::memory_order_relaxed);
  }
  return stats;
}

std::string PreparedStore::Stats::ToJson() const {
  std::string json = "{";
  bool first = true;
  auto field = [&json, &first](const char* name, int64_t value) {
    if (!first) json.push_back(',');
    first = false;
    json.push_back('"');
    json.append(name);
    json.append("\":");
    json.append(std::to_string(value));
  };
  field("hits", hits);
  field("misses", misses);
  field("evictions", evictions);
  field("inflight_waits", inflight_waits);
  field("spilled", spilled);
  field("loaded", loaded);
  field("patches", patches);
  field("patch_fallbacks", patch_fallbacks);
  field("key_builds", key_builds);
  field("view_builds", view_builds);
  field("locked_hits", locked_hits);
  field("update_retries", update_retries);
  field("lineage_resolves", lineage_resolves);
  field("respill_failures", respill_failures);
  field("load_skipped", load_skipped);
  field("load_corrupt", load_corrupt);
  field("view_demotions", view_demotions);
  field("cold_demotions", cold_demotions);
  field("cold_promotions", cold_promotions);
  json.push_back('}');
  return json;
}

size_t PreparedStore::size() const {
  const auto count = count_.load(std::memory_order_relaxed);
  return count > 0 ? static_cast<size_t>(count) : 0;
}

size_t PreparedStore::bytes_resident() const {
  const auto bytes = bytes_.load(std::memory_order_relaxed);
  return bytes > 0 ? static_cast<size_t>(bytes) : 0;
}

void PreparedStore::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    TableRef table = shard.snapshot.Acquire();
    for (const auto& [digest, entry] : *table) Uncharge(*entry);
    PublishTable(&shard, Table{});
  }
}

void PreparedStore::ResetStats() {
  for (StatSlot& slot : stat_slots_) {
    slot.hits.store(0, std::memory_order_relaxed);
    slot.misses.store(0, std::memory_order_relaxed);
    slot.evictions.store(0, std::memory_order_relaxed);
    slot.inflight_waits.store(0, std::memory_order_relaxed);
    slot.spilled.store(0, std::memory_order_relaxed);
    slot.loaded.store(0, std::memory_order_relaxed);
    slot.patches.store(0, std::memory_order_relaxed);
    slot.patch_fallbacks.store(0, std::memory_order_relaxed);
    slot.key_builds.store(0, std::memory_order_relaxed);
    slot.view_builds.store(0, std::memory_order_relaxed);
    slot.locked_hits.store(0, std::memory_order_relaxed);
    slot.update_retries.store(0, std::memory_order_relaxed);
    slot.respill_failures.store(0, std::memory_order_relaxed);
    slot.load_skipped.store(0, std::memory_order_relaxed);
    slot.load_corrupt.store(0, std::memory_order_relaxed);
    slot.view_demotions.store(0, std::memory_order_relaxed);
    slot.cold_demotions.store(0, std::memory_order_relaxed);
    slot.cold_promotions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace engine
}  // namespace pitract
