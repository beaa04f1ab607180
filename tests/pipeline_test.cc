// Coverage for the completion-based serving pipeline (engine/pipeline.h):
// the no-head-of-line-blocking property pinned with a blocking Π witness,
// deadline expiry at dequeue, admission / park-time load shedding,
// string-keyed items interned once at their first probe, and a TSan suite
// racing submitters against preparers against eviction.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cost_meter.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/serve.h"
#include "graph/generators.h"

namespace pitract {
namespace engine {
namespace {

std::unique_ptr<QueryEngine> MakeEngine(PreparedStore::Options options = {}) {
  auto engine = std::make_unique<QueryEngine>(options);
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

std::string MemberData(int64_t universe, const std::vector<int64_t>& list) {
  return core::MemberFactorization()
      .pi1(core::MakeMemberInstance(universe, list, 0))
      .value();
}

std::string ReachData(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  auto g = graph::ErdosRenyi(static_cast<graph::NodeId>(n), m,
                             /*directed=*/true, &rng);
  return core::ReachFactorization()
      .pi1(core::MakeReachInstance(g, 0, 0))
      .value();
}

std::vector<std::string> ReachQueries(int64_t n, int count, Rng* rng) {
  std::vector<std::string> queries;
  for (int i = 0; i < count; ++i) {
    queries.push_back(
        std::to_string(rng->NextBelow(static_cast<uint64_t>(n))) + "#" +
        std::to_string(rng->NextBelow(static_cast<uint64_t>(n))));
  }
  return queries;
}

/// A problem whose Π spins until `release` flips: the deterministic witness
/// for "a cold prepare is in flight right now".
struct BlockingPi {
  std::atomic<bool> release{false};
  std::atomic<int> computes{0};
};

void RegisterBlocking(QueryEngine* engine, BlockingPi* pi) {
  ProblemEntry entry;
  entry.name = "blocking-echo";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness.name = "echo";
  entry.witness.preprocess = [pi](const std::string& data,
                                  CostMeter*) -> Result<std::string> {
    pi->computes.fetch_add(1);
    while (!pi->release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return "pi:" + data;
  };
  entry.witness.answer = [](const std::string& prepared,
                            const std::string& query,
                            CostMeter*) -> Result<bool> {
    return prepared.find(query) != std::string::npos;
  };
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());
}

// ---------------------------------------------------------------------------
// The tentpole property: a cold Π in flight never head-of-line-blocks warm
// traffic. The blocking witness holds Π open for the whole middle of the
// test, so every warm completion observed there is *proof* the workers
// kept draining instead of parking on the shared_future.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, WarmItemsCompleteWhileColdPiInFlight) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);

  // Pre-warm a list-membership part so its batches are pure snapshot hits.
  const std::string warm_data = MemberData(64, {1, 2, 3});
  const std::vector<std::string> warm_queries = {"1", "2", "63"};
  ASSERT_TRUE(
      engine->AnswerBatch("list-membership", warm_data, warm_queries).ok());

  PipelineOptions options;
  options.threads = 2;
  options.preparers = 1;
  ServePipeline pipeline(engine.get(), options);

  std::atomic<bool> cold_done{false};
  ServeWorkItem cold;
  cold.problem = "blocking-echo";
  cold.data = "base";
  cold.queries = {"pi:base"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(cold),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            EXPECT_EQ(outcome.queries, 1);
                            cold_done.store(true, std::memory_order_release);
                          })
                  .ok());
  // Π(base) is provably in flight on the preparer pool from here on.
  while (pi.computes.load() == 0) std::this_thread::yield();

  constexpr int kWarm = 64;
  std::atomic<int> warm_done{0};
  for (int i = 0; i < kWarm; ++i) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = warm_data;
    item.queries = warm_queries;
    ASSERT_TRUE(pipeline
                    .Submit(std::move(item),
                            [&](const ItemOutcome& outcome) {
                              EXPECT_TRUE(outcome.status.ok())
                                  << outcome.status.ToString();
                              EXPECT_GE(outcome.latency_ns, 0);
                              warm_done.fetch_add(1);
                            })
                    .ok());
  }

  // Bounded wall-clock: Π stays held, so warm completions can only happen
  // if no worker is blocked behind it. Pre-pipeline, a worker parked on
  // the in-flight future and this loop timed out.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (warm_done.load() < kWarm &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(warm_done.load(), kWarm)
      << "warm items head-of-line-blocked behind a cold Π";
  EXPECT_FALSE(cold_done.load(std::memory_order_acquire));
  EXPECT_EQ(pi.computes.load(), 1);

  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();
  EXPECT_TRUE(cold_done.load(std::memory_order_acquire));

  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches, kWarm + 1);
  EXPECT_EQ(report.pi_runs, 1);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.deadline_expired, 0);
  EXPECT_GT(report.preparer_busy_ns, 0);
}

// ---------------------------------------------------------------------------
// Deadlines: an item whose deadline passed before dequeue completes with
// DeadlineExceeded and burns no answer work.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, ExpiredDeadlineCompletesWithDeadlineExceeded) {
  auto engine = MakeEngine();
  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  ServePipeline pipeline(engine.get(), options);

  ServeWorkItem item;
  item.problem = "list-membership";
  item.data = MemberData(16, {1, 2});
  item.queries = {"1"};

  Status got = Status::OK();
  std::atomic<bool> done{false};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(item),
                          [&](const ItemOutcome& outcome) {
                            got = outcome.status;
                            EXPECT_EQ(outcome.queries, 0);
                            done.store(true, std::memory_order_release);
                          },
                          /*client=*/0,
                          /*deadline_ns=*/MonotonicNowNanos() - 1)
                  .ok());
  pipeline.Drain();

  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_EQ(got.code(), StatusCode::kDeadlineExceeded) << got.ToString();
  const auto report = pipeline.report();
  EXPECT_EQ(report.deadline_expired, 1);
  EXPECT_EQ(report.batches, 0);
  EXPECT_EQ(report.errors, 0);
}

// ---------------------------------------------------------------------------
// Load shedding, Submit face: past queue_depth the call returns
// Unavailable synchronously and the callback never fires.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, SubmitShedsWithUnavailableWhenGlobalQueueFull) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.queue_depth = 1;
  ServePipeline pipeline(engine.get(), options);

  // One admitted-but-incomplete item fills the depth-1 queue: it can only
  // complete once Π(base) is released, so the next Submit must shed.
  std::atomic<bool> first_done{false};
  ServeWorkItem first;
  first.problem = "blocking-echo";
  first.data = "base";
  first.queries = {"pi:base"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(first),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok());
                            first_done.store(true, std::memory_order_release);
                          })
                  .ok());

  std::atomic<bool> second_callback_ran{false};
  ServeWorkItem second;
  second.problem = "blocking-echo";
  second.data = "other";
  second.queries = {"pi:other"};
  const Status shed = pipeline.Submit(
      std::move(second),
      [&](const ItemOutcome&) { second_callback_ran.store(true); });
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.ToString();

  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();
  EXPECT_TRUE(first_done.load(std::memory_order_acquire));
  EXPECT_FALSE(second_callback_ran.load());

  const auto report = pipeline.report();
  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.errors, 0);  // shed items are not errors
  EXPECT_EQ(report.batches, 1);
}

TEST(ServePipelineTest, PerClientDepthShedsOnlyTheGreedyClient) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);
  const std::string warm_data = MemberData(16, {3});
  ASSERT_TRUE(engine
                  ->AnswerBatch("list-membership", warm_data,
                                std::vector<std::string>{"3"})
                  .ok());

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.per_client_depth = 1;
  ServePipeline pipeline(engine.get(), options);

  // Client 1 parks one cold item (incomplete until release) — at its depth.
  ServeWorkItem first;
  first.problem = "blocking-echo";
  first.data = "base";
  first.queries = {"pi:base"};
  ASSERT_TRUE(pipeline.Submit(std::move(first), nullptr, /*client=*/1).ok());

  ServeWorkItem second;
  second.problem = "list-membership";
  second.data = warm_data;
  second.queries = {"3"};
  const Status shed =
      pipeline.Submit(std::move(second), nullptr, /*client=*/1);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);

  // A different client is admitted fine.
  std::atomic<bool> other_done{false};
  ServeWorkItem third;
  third.problem = "list-membership";
  third.data = warm_data;
  third.queries = {"3"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(third),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok());
                            other_done.store(true, std::memory_order_release);
                          },
                          /*client=*/2)
                  .ok());

  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();
  EXPECT_TRUE(other_done.load(std::memory_order_acquire));
  EXPECT_EQ(pipeline.report().shed, 1);
}

// ---------------------------------------------------------------------------
// Load shedding, workload face: cold items past queue_depth are shed at
// park time (warm items never queue, so depth only gates the cold side).
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, WorkloadColdItemsShedWhenPendingQueueFull) {
  auto engine = MakeEngine();
  BlockingPi pi;
  RegisterBlocking(engine.get(), &pi);

  // A pre-warmed part used as a sequencing witness below: the single
  // worker processes a claimed workload span in order, so a snapshot hit
  // on the *last* index proves the earlier cold indexes already ran.
  const std::string warm_data = MemberData(16, {5});
  ASSERT_TRUE(engine
                  ->AnswerBatch("list-membership", warm_data,
                                std::vector<std::string>{"5"})
                  .ok());
  ASSERT_EQ(engine->store().stats().hits, 0);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.queue_depth = 1;
  ServePipeline pipeline(engine.get(), options);

  // Occupy the pending queue: one parked cold item whose Π is held open.
  ServeWorkItem holder;
  holder.problem = "blocking-echo";
  holder.data = "base";
  holder.queries = {"pi:base"};
  ASSERT_TRUE(pipeline.Submit(std::move(holder)).ok());
  while (pi.computes.load() == 0) std::this_thread::yield();
  // parked >= 1 stays true until release: Π(base) gates the only drain.

  std::vector<ServeWorkItem> workload(3);
  workload[0].problem = "blocking-echo";
  workload[0].data = "cold-b";
  workload[0].queries = {"pi:cold-b"};
  workload[1].problem = "blocking-echo";
  workload[1].data = "cold-c";
  workload[1].queries = {"pi:cold-c"};
  workload[2].problem = "list-membership";  // the sequencing witness
  workload[2].data = warm_data;
  workload[2].queries = {"5"};
  pipeline.SubmitWorkload(workload, /*repeat=*/1);

  // The witness hit lands strictly after both cold items were shed (same
  // worker, in claim order), so Π(base) provably stayed in flight — and
  // the pending queue at depth — across both shed decisions.
  while (engine->store().stats().hits == 0) std::this_thread::yield();
  pi.release.store(true, std::memory_order_release);
  pipeline.Drain();

  const auto report = pipeline.report();
  EXPECT_EQ(report.shed, 2);         // both workload colds shed at park
  EXPECT_EQ(report.batches, 2);      // the witness and the holder answered
  EXPECT_EQ(report.pi_runs, 1);
  EXPECT_EQ(pi.computes.load(), 1);  // shed items never reached Π
  EXPECT_EQ(report.errors, 0);
}

// ---------------------------------------------------------------------------
// A unit addressing a data part that Δ-patches re-keyed out of the store's
// version window (the exact state a parked unit can wake up to) answers its
// own version: it parks, one Π runs on its data, and it completes without
// errors — it is never served from the successor version.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, TrimmedPartAnswersItsOwnVersionAfterOnePi) {
  auto engine = MakeEngine();
  std::atomic<int> computes{0};
  ProblemEntry entry;
  entry.name = "echo-delta";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness.name = "echo";
  entry.witness.preprocess = [&](const std::string& data,
                                 CostMeter*) -> Result<std::string> {
    computes.fetch_add(1);
    return "pi:" + data;
  };
  entry.witness.answer = [](const std::string& prepared,
                            const std::string& query,
                            CostMeter*) -> Result<bool> {
    return prepared.find(query) != std::string::npos;
  };
  entry.apply_delta_to_data =
      [](const std::string& data, const DeltaBatch&) -> Result<std::string> {
    return data + "+d";
  };
  entry.prepared_patch = [](std::string* prepared, const DeltaBatch&,
                            CostMeter*) {
    *prepared += "+d";
    return Status::OK();
  };
  ASSERT_TRUE(engine->Register(std::move(entry)).ok());

  // Warm "base", then re-key it away twice: the version window trims
  // "base", and only "base+d" (retained) and "base+d+d" stay resident.
  ASSERT_TRUE(engine
                  ->AnswerBatch("echo-delta", "base",
                                std::vector<std::string>{"pi:base"})
                  .ok());
  for (const char* from : {"base", "base+d"}) {
    auto outcome = engine->ApplyDelta("echo-delta", from, DeltaBatch{});
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->patched);
  }
  ASSERT_EQ(engine->store().size(), PreparedStore::kVersions);
  ASSERT_EQ(computes.load(), 1);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  ServePipeline pipeline(engine.get(), options);
  std::atomic<bool> served{false};
  ServeWorkItem item;
  item.problem = "echo-delta";
  item.data = "base";  // the pre-delta part a parked unit would still hold
  item.queries = {"pi:base+d"};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(item),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            served.store(true, std::memory_order_release);
                          })
                  .ok());
  pipeline.Drain();
  EXPECT_TRUE(served.load(std::memory_order_acquire));

  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches, 1);
  EXPECT_EQ(report.pi_runs, 1) << "the stale unit's own Π";
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(engine->store().stats().lineage_resolves, 0);
  // What that Π published is Π("base") itself, not a successor's payload.
  auto own = engine->AnswerBatch("echo-delta", "base",
                                 std::vector<std::string>{"pi:base+d"});
  ASSERT_TRUE(own.ok());
  EXPECT_TRUE(own->cache_hit);
  EXPECT_FALSE(own->answers[0]);
  EXPECT_EQ(computes.load(), 2);
}

// ---------------------------------------------------------------------------
// String-keyed items are interned once, at their first probe: the probe,
// the park, the requeue and the preparer's Π all go through that handle,
// so a cold string item's answered queries reach the cost model's traffic
// count like a handle item's.
// ---------------------------------------------------------------------------

TEST(ServePipelineTest, ColdStringItemsCountTheirTraffic) {
  auto engine = MakeEngine();
  engine->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  Rng rng(31);
  const std::string submitted = ReachData(64, 256, 7);
  const std::string bulk = ReachData(64, 256, 8);
  ASSERT_NE(submitted, bulk);

  {
    PipelineOptions options;
    options.threads = 1;
    options.preparers = 1;
    ServePipeline pipeline(engine.get(), options);
    ServeWorkItem item;
    item.problem = "graph-reachability";
    item.data = submitted;
    item.queries = ReachQueries(64, 8, &rng);
    ItemOutcome seen;
    ASSERT_TRUE(pipeline
                    .Submit(std::move(item),
                            [&seen](const ItemOutcome& outcome) {
                              seen = outcome;
                            })
                    .ok());
    pipeline.Drain();
    ASSERT_TRUE(seen.status.ok()) << seen.status.ToString();
    EXPECT_EQ(seen.queries, 8);
    const ServeReport report = pipeline.report();
    EXPECT_EQ(report.pi_runs, 1);  // the item really was cold
    EXPECT_EQ(report.batches, 1);
  }
  EXPECT_EQ(engine->cost_model().TrafficFor(
                QueryEngine::PartFingerprint(submitted)),
            8);

  // The bulk face parks a cold string item the same way.
  std::vector<ServeWorkItem> workload(1);
  workload[0].problem = "graph-reachability";
  workload[0].data = bulk;
  workload[0].queries = ReachQueries(64, 6, &rng);
  ServeOptions options;
  options.threads = 1;
  options.preparers = 1;
  const ServeReport report = ServeParallel(engine.get(), workload, options);
  ASSERT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.pi_runs, 1);
  EXPECT_EQ(report.queries, 6);
  EXPECT_EQ(
      engine->cost_model().TrafficFor(QueryEngine::PartFingerprint(bulk)), 6);
}

// ---------------------------------------------------------------------------
// TSan suite: submitters racing the bulk-workload cursor, the preparer
// pool, and byte-budget eviction (entries get evicted between publish and
// requeue, exercising the max_requeues fallback) — every admitted item
// must complete exactly once with no data race.
// ---------------------------------------------------------------------------

TEST(ServePipelineStressTest, SubmittersRacePreparersAndEviction) {
  PreparedStore::Options store_options;
  store_options.shards = 4;
  store_options.byte_budget = 4096;  // small: constant eviction pressure
  auto engine = MakeEngine(store_options);

  constexpr int kParts = 8;
  constexpr int kSubmitters = 3;
  constexpr int kItemsPerSubmitter = 48;
  Rng rng(2718);
  std::vector<std::string> parts;
  std::vector<std::string> queries;
  for (int p = 0; p < kParts; ++p) {
    std::vector<int64_t> list;
    for (int i = 0; i < 128; ++i) {
      list.push_back(static_cast<int64_t>(rng.NextBelow(512)));
    }
    parts.push_back(MemberData(512, list));
  }
  for (int q = 0; q < 8; ++q) {
    queries.push_back(std::to_string(rng.NextBelow(512)));
  }

  PipelineOptions options;
  options.threads = 3;
  options.preparers = 2;
  ServePipeline pipeline(engine.get(), options);

  // The bulk face races the Submit face: same pipeline, same store.
  std::vector<ServeWorkItem> workload;
  for (int i = 0; i < 16; ++i) {
    ServeWorkItem item;
    item.problem = "list-membership";
    item.data = parts[static_cast<size_t>(i) % kParts];
    item.queries = queries;
    workload.push_back(std::move(item));
  }
  pipeline.SubmitWorkload(workload, /*repeat=*/4);

  std::atomic<int64_t> completed_ok{0};
  std::atomic<int64_t> completed_err{0};
  std::atomic<int64_t> admitted{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      Rng local(static_cast<uint64_t>(s) * 7919 + 1);
      for (int i = 0; i < kItemsPerSubmitter; ++i) {
        ServeWorkItem item;
        item.problem = "list-membership";
        item.data =
            parts[static_cast<size_t>(local.NextZipf(kParts, /*theta=*/0.99))];
        item.queries = queries;
        const auto status = pipeline.Submit(
            std::move(item), [&](const ItemOutcome& outcome) {
              (outcome.status.ok() ? completed_ok : completed_err)
                  .fetch_add(1);
            });
        ASSERT_TRUE(status.ok()) << status.ToString();  // no depth: no shed
        admitted.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  pipeline.Drain();

  EXPECT_EQ(completed_err.load(), 0);
  EXPECT_EQ(completed_ok.load(), admitted.load());
  const auto report = pipeline.report();
  EXPECT_EQ(report.errors, 0) << report.first_error.ToString();
  EXPECT_EQ(report.batches,
            admitted.load() + static_cast<int64_t>(workload.size()) * 4);
  EXPECT_EQ(report.shed, 0);
  // Eviction re-runs Π, so pi_runs >= the distinct-part floor — but every
  // run must have been charged through a preparer or the bounded fallback.
  EXPECT_GE(report.pi_runs, kParts);
}

}  // namespace
}  // namespace engine
}  // namespace pitract
