#ifndef PITRACT_ENGINE_ENGINE_H_
#define PITRACT_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/cost_meter.h"
#include "common/result.h"
#include "core/language.h"
#include "core/query_class.h"
#include "core/reduction.h"
#include "engine/cost_model.h"
#include "engine/delta.h"
#include "engine/prepared_store.h"

namespace pitract {
namespace engine {

/// One *alternative* Π-tractability witness for a registered problem: the
/// same language, prepared differently (reach: closure bitmap vs edge-scan;
/// member: sorted column vs B+-tree view). Each alternative carries its own
/// static cost descriptor, patch hook, size estimator, and measured
/// profile; the engine's CostModel picks among the primary witness and the
/// alternatives per data part at admission/cold-miss time. Store keys embed
/// the witness name, so two alternatives of the same part are distinct
/// entries and a key always identifies which hooks built its payload.
struct WitnessAlternative {
  core::PiWitness witness;
  CostDescriptor descriptor;
  /// Π-patch hook for payloads built by *this* witness (unset: this
  /// alternative degrades to recompute-on-miss after a delta).
  PreparedPatchFn prepared_patch;
  /// Size estimate override; unset: payload+key bytes.
  PreparedStore::SizeFn prepared_size_of;
  /// Measured totals (filled in by Register when left null).
  std::shared_ptr<CostProfile> profile;
};

/// One registered problem: the Σ*-level artifacts of Definition 1
/// (reference semantics, factorization Υ, Π-tractability witness) plus,
/// when the deployed in-memory form exists, its typed-case factory
/// (handed out by `QueryEngine::MakeCase`), all under this one name.
struct ProblemEntry {
  std::string name;
  std::string paper_anchor;

  /// Σ*-string path (absent for measurement-only typed classes).
  bool has_language = false;
  core::DecisionProblem problem;
  core::Factorization factorization;
  core::PiWitness witness;

  /// Typed case factory (absent for Σ*-only entries such as reduced
  /// problems).
  std::function<std::unique_ptr<core::QueryClassCase>()> make_case;

  /// Size estimate (bytes) for this entry's prepared Π(D) payloads, used
  /// by the store's byte-budgeted eviction. Unset: payload+key bytes.
  PreparedStore::SizeFn prepared_size_of;

  /// When false, this entry's Π(D) structures are never spilled to disk;
  /// after a restart they degrade gracefully to recompute-on-miss.
  bool spillable = true;

  /// Incremental maintenance (Section 1's D ⊕ ΔD): computes the post-delta
  /// data part. Unset: the entry does not accept ApplyDelta at all.
  DataDeltaFn apply_delta_to_data;
  /// Patches a prepared Π(D) payload to Π(D ⊕ ΔD) at O(|ΔD|)-charged cost.
  /// Unset (or failing): ApplyDelta degrades to recompute-on-miss for the
  /// post-delta data part.
  PreparedPatchFn prepared_patch;

  /// Static cost prior for the primary witness (candidate index 0 in the
  /// CostModel's enumeration). Defaults model an O(|D|)-build / O(1)-answer
  /// witness, the common shape of the builtins.
  CostDescriptor witness_descriptor;
  /// Measured totals for the primary witness (filled in by Register when
  /// left null).
  std::shared_ptr<CostProfile> witness_profile;
  /// Additional candidate Π's. Empty (the default): selection is a no-op
  /// and the entry behaves exactly as a single-witness registration.
  std::vector<WitnessAlternative> alternatives;
};

/// The store key a data part's answers currently come from, shared by
/// every copy of the DataHandle that Intern made for it. Intern publishes
/// the key it built; a warm witness upgrade publishes the upgraded
/// witness's key in its place. Readers pay one acquire load. Every key
/// the route ever published stays owned by it, so a reference a reader
/// took stays valid across any later switch.
class WitnessRoute {
 public:
  explicit WitnessRoute(PreparedStore::Key key);
  WitnessRoute(const WitnessRoute&) = delete;
  WitnessRoute& operator=(const WitnessRoute&) = delete;

  const PreparedStore::Key& key() const {
    return *current_.load(std::memory_order_acquire);
  }
  /// Publishes `key` as the route's current key.
  void Switch(PreparedStore::Key key);

 private:
  std::mutex mutex_;  // guards keys_; readers never take it
  std::vector<std::unique_ptr<const PreparedStore::Key>> keys_;
  std::atomic<const PreparedStore::Key*> current_;
};

/// A prepared data part: the one thing every answer face answers through.
/// `QueryEngine::Intern` resolves the registry entry and pays the O(|D|)
/// store-key build + content hash exactly once (counted in
/// `Stats::key_builds`); every subsequent batch over the handle reuses the
/// digest and key bytes, so a warm batch does zero |D|-sized work end to
/// end (the store re-validates by shared-pointer equality). Copy/share
/// handles freely across threads.
///
/// Contract: a handle answers for the data part it was interned for, on
/// every face — blocking AnswerBatch, TryAnswerWarm, and the pipeline —
/// before and after any ApplyDelta, Spill or Load. `key` names the witness
/// the handle was interned under and never changes. The handle's answers
/// follow its `route`: when a warm upgrade moves the part to another
/// witness, every copy of the handle answers from the upgraded entry on
/// its next batch. A route moves only between witnesses of the same data
/// part, never across a delta: a cold miss runs Π on `data` under the
/// route's key. After an ApplyDelta the handle keeps answering its own
/// version (warm while the store retains it, else through one Π on a
/// miss); intern the post-delta data part for a handle on the new one.
struct DataHandle {
  std::string problem;
  /// The data part, shared so Π can still run on a (rare) cold miss
  /// without the handle's owner keeping a separate copy alive.
  std::shared_ptr<const std::string> data;
  PreparedStore::Key key;
  /// Content fingerprint of the *data part alone* (witness-independent,
  /// unlike `key`'s digest): the CostModel's per-part traffic/choice index.
  /// Computed once at Intern when the entry has alternatives and the
  /// policy is not kPrimaryOnly; 0 (any other part, or a hand-rolled
  /// handle) disables tracking.
  uint64_t part_fingerprint = 0;
  /// Set by Intern; a handle without one answers from `key`.
  std::shared_ptr<WitnessRoute> route = nullptr;

  /// The key answers come from now.
  const PreparedStore::Key& current_key() const {
    return route != nullptr ? route->key() : key;
  }
};

/// How the answering half of a batch executed.
enum class BatchAnswerMode {
  /// Per-query scalar loop: each query re-parsed and answered through
  /// `answer_view` (or the string `answer` hook).
  kScalar,
  /// Queries pre-decoded once per batch, then answered one at a time
  /// through `answer_view_decoded` — no per-query byte parsing.
  kPreDecoded,
  /// One `answer_view_batch` kernel call answered the whole span.
  kKernel,
};

/// Aggregate of one prepare-once/answer-many batch.
struct BatchResult {
  std::vector<bool> answers;
  /// Cost charged by Π this batch — zero(ish) when served from cache.
  Cost prepare_cost;
  /// Summed answering cost over the whole batch.
  Cost answer_cost;
  /// Bytes charged by the answer step (conceptual probe traffic) — the
  /// bytes/query numerator of the bandwidth-floor benchmarks.
  int64_t answer_bytes_read = 0;
  int64_t prepare_runs = 0;  // 0 or 1: how many times Π executed
  bool cache_hit = false;
  /// Which answer path actually ran (tests/benches assert on this).
  BatchAnswerMode mode = BatchAnswerMode::kScalar;
  /// TryAnswerWarm queued a witness upgrade for this batch's data part
  /// (see QueryEngine::RunPendingUpgrade): the caller's cue to wake
  /// whichever thread runs upgrades.
  bool upgrade_queued = false;
};

/// What QueryEngine::RunPendingUpgrade did.
struct UpgradeOutcome {
  /// An upgrade was attempted. False when none was queued, or when the
  /// taken job's part had already moved on (a duplicate, dropped).
  bool ran = false;
  bool ran_pi = false;  // its build executed Π
  /// OK: the part now answers from the upgraded witness. Otherwise the
  /// old witness keeps serving.
  Status status;
};

/// The prepare-once/answer-many engine: a registry of problems, a sharded
/// PreparedStore for Σ*-level Π(D) structures, and one answer face. Every
/// batch answers through a `DataHandle` (Definition 1's prepared data
/// part): blocking `AnswerBatch(handle, ...)` or warm-only
/// `TryAnswerWarm`. The string-keyed `AnswerBatch`, `Answer` and
/// `AnswerInstance` intern the part and call the handle face.
///
/// Concurrency contract: registration is expected at startup, answering
/// from any number of threads afterwards. Every answer face is
/// thread-safe; the PreparedStore synchronizes internally (published
/// snapshots for readers, lock-striped shards plus in-flight Π
/// deduplication for writers). A warm `AnswerBatch(handle, ...)` runs no
/// Π and takes no shard mutex (`PreparedStore::Stats::locked_hits` counts
/// the exceptions), but it is not free of shared writes: `Find` takes a
/// `shared_lock` on the registry mutex, the snapshot probe acquires the
/// shard's published table, `CostProfile::RecordAnswer` does two
/// `fetch_add`s per batch, and under `CostModel::Policy::kAdaptive`
/// `CostModel::NoteTraffic` takes the model's mutex. Removing those is
/// ROADMAP open item 3.
class QueryEngine {
 public:
  /// `store_options` sizes the PreparedStore (shard count, byte budget);
  /// the defaults are unbounded with shards auto-sized from the
  /// core count (see `PreparedStore::Options::shards`).
  explicit QueryEngine(const PreparedStore::Options& store_options = {});

  // --- registry ------------------------------------------------------------

  Status Register(ProblemEntry entry);

  /// Registers `name` as a problem Π-tractable *by reduction* (Theorem 5):
  /// the target's witness is looked up in this registry and transported
  /// backwards across `r` per Lemma 3 — never re-plumbed by hand. Fails if
  /// the target is unknown or its registered factorization does not match
  /// the reduction's target factorization.
  Status RegisterViaReduction(std::string name, std::string paper_anchor,
                              core::DecisionProblem source,
                              const core::NcFactorReduction& r,
                              std::string_view target);

  /// Same for an F-reduction (Lemma 8's ΠT⁰Q-compatibility half). An
  /// FReduction carries no factorizations, so the source's Υ is explicit.
  Status RegisterViaFReduction(std::string name, std::string paper_anchor,
                               core::DecisionProblem source,
                               core::Factorization source_factorization,
                               const core::FReduction& r,
                               std::string_view target);

  Result<const ProblemEntry*> Find(std::string_view name) const;
  /// Registered names in registration-stable (sorted) order.
  std::vector<std::string> Names() const;

  // --- answering ----------------------------------------------------------

  /// Admits a data part: resolves `problem`, runs the witness selection
  /// (under a live CostModel) and builds the part's store key and
  /// fingerprint once. Every answer face below goes through the handle.
  Result<DataHandle> Intern(std::string_view problem, std::string data) const;

  /// Answers a batch of queries against one prepared data part: Π(data) is
  /// fetched from (or inserted into) the PreparedStore under the handle's
  /// current key, then every query runs the witness's NC answer step.
  /// Thread-safe; concurrent batches over the same data part run Π once
  /// (in-flight deduplication). A warm batch performs no O(|D|) key build,
  /// hash or compare.
  Result<BatchResult> AnswerBatch(const DataHandle& handle,
                                  std::span<const std::string> queries);
  /// String-keyed adapter: `Intern(problem, data)`, then the handle face.
  /// Pays Intern's O(|D|) work (a copy, the key build and, under a live
  /// model, the fingerprint) on every call.
  Result<BatchResult> AnswerBatch(std::string_view problem,
                                  const std::string& data,
                                  std::span<const std::string> queries);

  /// Warm-only AnswerBatch (the completion pipeline's probe): answers iff
  /// Π(data) is already resident in the published store snapshot,
  /// returning true and filling `result` with the same BatchResult the
  /// blocking face would produce (cache_hit == true, prepare_runs == 0).
  /// Returns false on a cold part — without running Π, blocking on an
  /// in-flight Π, or touching a shard mutex — so a serving worker can park
  /// the batch and keep draining warm traffic. A handle whose version a
  /// delta stream has pushed out of the store's version window is cold
  /// too: it is never answered from a newer version. Errors (unknown
  /// problem, a query that fails to parse) are real errors, not "cold". A
  /// witness upgrade this batch triggers is queued, never run here
  /// (`result->upgrade_queued`).
  Result<bool> TryAnswerWarm(const DataHandle& handle,
                             std::span<const std::string> queries,
                             BatchResult* result);

  /// The preparer half of the completion pipeline: ensures Π(data) is
  /// resident under `key`, running Π (with in-flight dedup) on a miss.
  /// `ran_pi` reports whether this call executed Π; `meter` is charged Π's
  /// cost exactly when it did. `data` is shared, not copied — pass the
  /// handle's payload.
  Status Prepare(std::string_view problem,
                 const std::shared_ptr<const std::string>& data,
                 const PreparedStore::Key& key, CostMeter* meter = nullptr,
                 bool* ran_pi = nullptr);

  // --- warm witness upgrades ----------------------------------------------
  //
  // Under CostModel::Policy::kAdaptive, each time a part's traffic crosses
  // a doubling boundary the engine scores its candidates again, with the
  // serving witness as the (resident) incumbent. When another candidate
  // wins by more than the hysteresis margin, and the growth in measured
  // bytes fits the store's byte budget, an upgrade is due: build Π
  // under the winner, publish it, switch the part's route and sticky
  // choice to it, and retire the old entry (first eviction victim, never
  // spilled). The warm face (TryAnswerWarm) queues the upgrade for a
  // ServePipeline's preparers, which run it behind any cold jobs; the
  // blocking AnswerBatch, which already runs Π inline on a miss, runs the
  // upgrade it triggers inline after answering. One upgrade per part is
  // pending at a time. A job whose part moved on before it ran (its route
  // switched, or another handle's upgrade already set the sticky choice)
  // is dropped, not counted twice. An upgrade build counts as a Π run and
  // a store miss; if it fails (failpoint `engine.witness_upgrade`, or a
  // failed Π) the old witness keeps serving and a later doubling may try
  // again.

  /// Takes the oldest queued upgrade and runs it on this thread. `meter` is
  /// charged Π's cost when the build ran it.
  UpgradeOutcome RunPendingUpgrade(CostMeter* meter = nullptr);
  /// True iff an upgrade is queued.
  bool HasPendingUpgrades() const { return queued_upgrades_.load() > 0; }
  /// Upgrades completed / failed since construction.
  int64_t upgrades() const {
    return upgrades_.load(std::memory_order_relaxed);
  }
  int64_t upgrade_failures() const {
    return upgrade_failures_.load(std::memory_order_relaxed);
  }

  /// Single-query convenience; still routed through the PreparedStore, so a
  /// warm store answers without re-running Π. Prepare+answer costs are
  /// charged to `meter`.
  Result<bool> Answer(std::string_view problem, const std::string& data,
                      const std::string& query, CostMeter* meter = nullptr);

  /// Splits a whole instance x with the registered factorization and
  /// answers ⟨π₁(x), π₂(x)⟩ — the Definition 1 round trip.
  Result<bool> AnswerInstance(std::string_view problem, const std::string& x,
                              CostMeter* meter = nullptr);

  /// Applies ΔD to one data part of `problem`: computes D ⊕ ΔD through the
  /// entry's `apply_delta_to_data` hook and, when a `prepared_patch` hook
  /// is registered and Π(D) is resident, Δ-patches the PreparedStore entry
  /// in place (re-keying it to the post-delta digest) instead of paying a
  /// full Π recompute. Thread-safe against concurrent AnswerBatch /
  /// ServeParallel traffic: a Π in flight on the old data part is waited
  /// out once and the patch retried against what it publishes
  /// (`Stats::update_retries`) — an entry is never re-keyed out from
  /// under waiters on the shared_future — and handles on the pre-delta
  /// part keep answering it (see DataHandle). When
  /// patching is not possible the call still succeeds with
  /// `DeltaOutcome::patched == false` and the post-delta data part simply
  /// recomputes on its first miss.
  Result<DeltaOutcome> ApplyDelta(std::string_view problem,
                                  const std::string& data,
                                  const DeltaBatch& delta,
                                  CostMeter* meter = nullptr);

  // --- typed cases --------------------------------------------------------

  /// Fresh (unprepared) typed case instance: the deployed in-memory form,
  /// driven directly through the QueryClassCase interface (Generate, one
  /// Preprocess, then AnswerPrepared per query).
  Result<std::unique_ptr<core::QueryClassCase>> MakeCase(
      std::string_view problem) const;

  PreparedStore& store() { return store_; }
  const PreparedStore& store() const { return store_; }

  /// The witness-selection solver. Policy::kPrimaryOnly (the default)
  /// pins every entry to its registered primary witness — identical
  /// behavior to the pre-adaptive engine. Switch to kAdaptive (or force an
  /// index) before serving to let registered alternatives compete; a
  /// handle interned under kPrimaryOnly stays untracked.
  CostModel& cost_model() { return cost_model_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Witness-independent content fingerprint of a data part (the
  /// CostModel's per-part index); exposed for tests and benches.
  static uint64_t PartFingerprint(std::string_view data);

 private:
  /// The registry entry for `problem`, which must have a Σ*-level witness.
  Result<const ProblemEntry*> FindLanguage(std::string_view problem) const;

  /// The hooks/cost bundle of one selected witness candidate (index 0 =
  /// the entry's primary witness, i ≥ 1 = alternatives[i-1]). Pointers
  /// alias registry-owned state, which is never erased.
  struct SelectedWitness {
    const core::PiWitness* witness = nullptr;
    const CostDescriptor* descriptor = nullptr;
    CostProfile* profile = nullptr;
    const PreparedPatchFn* patch = nullptr;
    const PreparedStore::SizeFn* size_of = nullptr;
    int index = 0;
  };

  static SelectedWitness CandidateAt(const ProblemEntry& entry, int index);
  /// Parses the witness name out of a store key's bytes and returns the
  /// matching candidate — the only correct way to pick answer hooks for a
  /// key-addressed payload (trusting anything else risks decoding a view
  /// with the wrong type). Unknown names fall back to the primary.
  static SelectedWitness ResolveWitnessFromKey(const ProblemEntry& entry,
                                               const PreparedStore::Key& key);
  /// Runs the CostModel over the entry's candidates for this part (choice
  /// cache first) and returns the winner. `data` sizes the linear models
  /// and lets the solver probe per-candidate residency; fingerprint 0
  /// skips the sticky-choice cache.
  SelectedWitness SelectWitness(const ProblemEntry& entry,
                                const std::string* data,
                                uint64_t part_fingerprint) const;
  /// Traffic bookkeeping after an answered batch: feeds the measured
  /// profile and, under kAdaptive, scores the part again when its traffic
  /// crosses a doubling boundary. Returns the candidate index an upgrade
  /// is due to (and marks the part's upgrade pending), or -1.
  int NoteAnswered(const ProblemEntry& entry, const SelectedWitness& selected,
                   uint64_t part_fingerprint, size_t data_bytes,
                   int64_t queries, int64_t answer_ops);

  /// One due witness upgrade (see RunPendingUpgrade).
  struct UpgradeJob {
    const ProblemEntry* entry = nullptr;
    std::shared_ptr<const std::string> data;
    /// The route of the handle whose batch queued the job.
    std::shared_ptr<WitnessRoute> route;
    /// The key answers came from: retired once the upgrade lands.
    PreparedStore::Key from_key;
    int to = 0;
    uint64_t part_fingerprint = 0;
  };
  void QueueUpgrade(UpgradeJob job);
  UpgradeOutcome RunUpgrade(const UpgradeJob& job, CostMeter* meter);
  /// Ensures Π(data) under `sel` is resident under `key`, running it on a
  /// miss and recording the measured build in the witness's profile.
  /// `view` (optional) receives the served entry.
  Status PrepareWith(const ProblemEntry& entry, const SelectedWitness& sel,
                     const std::string& data, const PreparedStore::Key& key,
                     CostMeter* meter, bool* ran_pi,
                     PreparedStore::PreparedView* view = nullptr);
  /// Answers one query over `handle`, charging prepare+answer to `meter`.
  Result<bool> AnswerOne(const DataHandle& handle, const std::string& query,
                         CostMeter* meter);
  double BytePressure() const;

  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, ProblemEntry, std::less<>> entries_;
  PreparedStore store_;
  mutable CostModel cost_model_;

  /// upgrade_mutex_ guards the queue and the set of parts with an upgrade
  /// pending (queued or running).
  std::mutex upgrade_mutex_;
  std::deque<UpgradeJob> upgrade_queue_;
  std::unordered_set<uint64_t> upgrading_;
  /// upgrade_queue_.size(), readable without the mutex.
  std::atomic<int64_t> queued_upgrades_{0};
  std::atomic<int64_t> upgrades_{0};
  std::atomic<int64_t> upgrade_failures_{0};
};

/// The process-wide engine with every built-in problem registered (see
/// engine/builtins.h).
QueryEngine& DefaultEngine();

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_ENGINE_H_
