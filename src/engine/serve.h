#ifndef PITRACT_ENGINE_SERVE_H_
#define PITRACT_ENGINE_SERVE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "common/status.h"
#include "engine/engine.h"

namespace pitract {
namespace engine {

/// One unit of serving work: a batch of queries against one data part of
/// one registered problem, answered through the Σ*-witness path.
struct ServeWorkItem {
  std::string problem;
  std::string data;
  std::vector<std::string> queries;
  /// Pre-admitted form (see QueryEngine::Intern): when set, workers answer
  /// through it — zero O(|D|) key work per batch — and `problem`/`data`
  /// above are ignored. Unset: the pipeline interns `problem`/`data` once,
  /// at the item's first probe.
  std::shared_ptr<const DataHandle> handle;
};

struct ServeOptions {
  /// Worker threads pulling work items. 0 = auto: one per hardware
  /// thread (std::thread::hardware_concurrency, clamped to >= 1).
  int threads = 0;
  /// Passes over the whole workload (> 1 measures the warm store).
  int repeat = 1;
  /// Work items a worker claims per pull from the shared cursor (one
  /// fetch_add covers `batch` items), so N workers hammering a warm store
  /// contend on the cursor line 1/batch as often. Clamped to >= 1.
  int batch = 8;
  /// Preparer threads running Π for cold misses off the answer workers
  /// (see engine/pipeline.h). 0 = auto: as many as the resolved answer
  /// worker count, so a pure cold storm keeps the same Π parallelism the
  /// pre-pipeline driver had.
  int preparers = 0;
  /// Bound on cold work items parked awaiting a preparer; past it, further
  /// misses are shed (counted in ServeReport::shed, completed with
  /// Status::Unavailable). 0 = unbounded.
  size_t queue_depth = 0;
  /// Per-item deadline, relative to the run's start (this is the batch
  /// driver; the pipeline's Submit face takes per-item deadlines). Items
  /// dequeued after it complete with Status::DeadlineExceeded instead of
  /// burning answer work (ServeReport::deadline_expired). 0 = none.
  int64_t deadline_ns = 0;
};

/// Aggregate of one ServeParallel run.
struct ServeReport {
  int64_t batches = 0;     // successfully answered work items
  int64_t queries = 0;     // queries answered across those batches
  int64_t pi_runs = 0;     // how many batches actually executed Π
  int64_t cache_hits = 0;  // batches served from the PreparedStore
  /// Batches answered by one `answer_view_batch` kernel call (vs the
  /// scalar per-query loop) — warm kernel-enabled entries should show
  /// kernel_batches == batches.
  int64_t kernel_batches = 0;
  /// Bytes charged by the answer step across all batches (probe traffic).
  int64_t answer_bytes_read = 0;
  int64_t errors = 0;
  Status first_error;  // OK when errors == 0
  double wall_seconds = 0;
  double queries_per_second = 0;
  /// Summed Π cost across workers and preparers (charged only on actual
  /// Π runs plus the per-batch probe op).
  Cost prepare_cost;
  /// Summed per-query answering cost across workers.
  Cost answer_cost;
  int threads = 0;  // resolved worker count (after the 0 = auto default)
  // --- completion-pipeline visibility (PR 5-style per-thread slots,
  // merged after the join) --------------------------------------------------
  /// Work items completed with Status::DeadlineExceeded at dequeue.
  int64_t deadline_expired = 0;
  /// Work items shed because an admission/pending queue was at depth
  /// (completed with Status::Unavailable). Not counted in `errors`.
  int64_t shed = 0;
  /// High-water mark of items queued (parked cold + submitted-not-started).
  int64_t queue_depth_max = 0;
  /// Wall nanoseconds preparer threads spent inside Prepare (Π + store
  /// admission) — the head-of-line blocking the pipeline keeps off the
  /// answer workers.
  int64_t preparer_busy_ns = 0;
  int preparers = 0;  // resolved preparer count
  // --- Π-failure policy visibility (see PipelineOptions::pi_retries /
  // quarantine_ttl_ns) -------------------------------------------------------
  /// Π builds that exhausted the retry budget and failed terminally —
  /// each fails its parked items and (with quarantine on) poisons the
  /// digest for quarantine_ttl_ns.
  int64_t pi_failures = 0;
  /// Individual Π retry attempts made by the preparer pool (a build that
  /// succeeds on attempt 3 contributes 2 here and 0 to pi_failures).
  int64_t pi_retries = 0;
  /// Work items failed *fast* with Status::Internal because their digest
  /// was quarantined — the retry storm the negative cache absorbed. Also
  /// counted in `errors`.
  int64_t quarantined = 0;
  /// Warm witness upgrades the preparers completed (each switched a part's
  /// route and sticky choice to the upgraded witness) and that failed
  /// (the old witness kept serving). An upgrade's Π run is also counted
  /// in `pi_runs`.
  int64_t upgrades = 0;
  int64_t upgrade_failures = 0;

  /// One observability blob: every counter above as a flat JSON object
  /// (costs flattened to `prepare_work`/`prepare_depth`/...), so benches
  /// and operators embed the full report instead of hand-formatting a
  /// subset in each emitter. Pairs with PreparedStore::Stats::ToJson().
  std::string ToJson() const;
};

/// Drives `workload` through the completion pipeline (engine/pipeline.h)
/// from `options.threads` concurrent answer workers: the multi-threaded
/// face of the prepare-once/answer-many contract. Workers claim
/// `options.batch` work items per pull from a shared atomic cursor and
/// keep every tally — batch/query counts and a thread-local CostMeter —
/// in private storage, merged once after the join, so the warm serving
/// loop touches no shared mutable state between pulls. Warm items answer
/// immediately on the kernel path; a cold miss *parks* its item on the
/// preparer pool (`options.preparers`) and the worker keeps draining warm
/// traffic — no worker ever blocks on Π, so one expensive prepare cannot
/// head-of-line-block cheap answers. Concurrent misses on the same data
/// part still dedup onto one Π run inside the store, and warm hits stay
/// lock-free end to end. Used by bench_x3_concurrency for both the
/// closed-loop queries/sec rows and (through ServePipeline::Submit) the
/// open-loop latency rows.
ServeReport ServeParallel(QueryEngine* engine,
                          std::span<const ServeWorkItem> workload,
                          const ServeOptions& options);

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_SERVE_H_
