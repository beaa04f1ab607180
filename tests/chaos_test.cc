// The invariant-checked chaos harness: seeded failpoint schedules fire
// across every failure edge (Π builds, spill I/O, frame decode, Δ-patch
// hooks, view builds, preparer completion) while submitters, bulk answer
// traffic, ApplyDelta chains, Spill/Load cycles, and eviction churn race.
//
// Four invariants hold under EVERY schedule:
//   1. exactly-once completion — every admitted item's callback fires
//      exactly once, success or failure;
//   2. answer correctness — every OK answer matches a shadow model the
//      fault schedule cannot touch (probes target elements deltas never
//      modify, so the expected answers are constant across versions);
//   3. exact accounting — after the storm the store clears to zero and
//      re-admits to byte-for-byte the same residency a fresh store builds;
//   4. bounded termination — Drain() returns and every thread joins.
//
// Runs under the normal build and the TSan build (see .github/workflows).
// Deterministic single-fault tests for the Π retry/quarantine policy and
// for the warm witness upgrade live at the bottom.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/delta.h"
#include "engine/engine.h"
#include "engine/pipeline.h"
#include "engine/prepared_store.h"
#include "engine/serve.h"
#include "graph/algos.h"
#include "graph/generators.h"

namespace pitract {
namespace engine {
namespace {

namespace fs = std::filesystem;

std::string UniqueTempDir(const char* tag) {
  static std::atomic<int> counter{0};
  fs::path dir = fs::temp_directory_path() /
                 (std::string("pitract_") + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<QueryEngine> MakeEngine(PreparedStore::Options options = {}) {
  auto engine = std::make_unique<QueryEngine>(options);
  auto status = RegisterBuiltins(engine.get());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return engine;
}

// ---------------------------------------------------------------------------
// The shadow model. Each data part is a list-membership instance over
// universe 512 split into two halves:
//   * stable elements in [256, 512) — fixed at construction, never touched
//     by a delta;
//   * volatile elements in [0, 256) — the only values ApplyDelta chains
//     insert/delete.
// Every probe targets [256, 512), so the expected answer vector is a pure
// function of the stable set — constant across the whole delta chain, every
// MVCC version, and every recompute. That is what lets a racing prober
// check answers without knowing which version it hit.
// ---------------------------------------------------------------------------

struct ShadowPart {
  std::string data;                 // the original (version-0) encoding
  std::set<int64_t> stable;         // elements in [256, 512)
  std::vector<int64_t> volatiles;   // elements in [0, 256)
  std::vector<std::string> probes;  // queries, all in [256, 512)
  std::vector<bool> expected;       // shadow answers for `probes`
};

ShadowPart MakeShadowPart(Rng* rng, int stable_count, int volatile_count,
                          int probe_count) {
  ShadowPart part;
  std::vector<int64_t> list;
  for (int i = 0; i < stable_count; ++i) {
    const int64_t e = 256 + static_cast<int64_t>(rng->NextBelow(256));
    part.stable.insert(e);
    list.push_back(e);
  }
  for (int i = 0; i < volatile_count; ++i) {
    const int64_t e = static_cast<int64_t>(rng->NextBelow(256));
    part.volatiles.push_back(e);
    list.push_back(e);
  }
  rng->Shuffle(&list);
  part.data = core::MemberFactorization()
                  .pi1(core::MakeMemberInstance(512, list, 0))
                  .value();
  for (int i = 0; i < probe_count; ++i) {
    const int64_t q = 256 + static_cast<int64_t>(rng->NextBelow(256));
    part.probes.push_back(std::to_string(q));
    part.expected.push_back(part.stable.count(q) > 0);
  }
  return part;
}

/// Checks one OK batch against the shadow model.
void ExpectShadowAnswers(const ShadowPart& part,
                         const std::vector<bool>& answers,
                         const char* where) {
  ASSERT_EQ(answers.size(), part.expected.size()) << where;
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], part.expected[i])
        << where << ": probe " << part.probes[i] << " diverged from shadow";
  }
}

// ---------------------------------------------------------------------------
// One seeded chaos schedule end to end.
// ---------------------------------------------------------------------------

void RunChaosSchedule(uint64_t seed) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  Rng rng(seed);

  // A budget of about six view-less entries (a hot entry's view charges
  // about its payload again), below parts x versions: eviction churns.
  // Sized off a fault-free probe of a same-shaped part drawn from its own
  // generator, so the schedule's draws stay as they were.
  size_t per_part = 0;
  {
    Rng sizing(seed);
    const ShadowPart sample = MakeShadowPart(&sizing, /*stable_count=*/24,
                                             /*volatile_count=*/16,
                                             /*probe_count=*/12);
    auto probe = MakeEngine();
    ASSERT_TRUE(
        probe->AnswerBatch("list-membership", sample.data, sample.probes)
            .ok());
    per_part = probe->store().bytes_resident();
    ASSERT_GT(per_part, 0u);
  }

  // Fault mix: every probability is drawn from the schedule seed, so the
  // whole run (faults included) is reproducible from one integer.
  failpoint::ScopedFailpoints guard;
  failpoint::Arm("store.pi_build",
                 failpoint::WithProbability(0.02 + 0.04 * rng.NextDouble(),
                                            rng.Next()));
  failpoint::Arm("pipeline.preparer_publish",
                 failpoint::WithProbability(0.05 + 0.15 * rng.NextDouble(),
                                            rng.Next()));
  failpoint::Arm("store.patch",
                 failpoint::WithProbability(0.3, rng.Next()));
  failpoint::Arm("store.view_build",
                 failpoint::WithProbability(0.05, rng.Next()));
  failpoint::Arm("spill.write", failpoint::WithProbability(0.3, rng.Next()));
  failpoint::Arm("spill.rename", failpoint::WithProbability(0.2, rng.Next()));
  failpoint::Arm("spill.read", failpoint::WithProbability(0.2, rng.Next()));
  failpoint::Arm("serde.read_bytes",
                 failpoint::WithProbability(0.1, rng.Next()));

  constexpr int kParts = 4;
  std::vector<ShadowPart> parts;
  for (int p = 0; p < kParts; ++p) {
    parts.push_back(MakeShadowPart(&rng, /*stable_count=*/24,
                                   /*volatile_count=*/16,
                                   /*probe_count=*/12));
  }

  PreparedStore::Options store_options;
  store_options.shards = 4;
  store_options.byte_budget = per_part * 3;
  auto engine = MakeEngine(store_options);

  const std::string spill_dir = UniqueTempDir("chaos");

  // --- the storm -----------------------------------------------------------
  PipelineOptions pipeline_options;
  pipeline_options.threads = 3;
  pipeline_options.preparers = 2;
  pipeline_options.pi_retries = 2;
  pipeline_options.pi_retry_backoff_ns = 10'000;  // keep schedules fast
  pipeline_options.quarantine_ttl_ns = 5'000'000;  // 5 ms: storms re-probe

  constexpr int kSubmitters = 3;
  constexpr int kItemsPerSubmitter = 40;
  constexpr int kTotalItems = kSubmitters * kItemsPerSubmitter;
  std::vector<std::atomic<int>> completions(kTotalItems);
  std::atomic<int64_t> ok_items{0};
  std::atomic<int64_t> failed_items{0};

  {
    ServePipeline pipeline(engine.get(), pipeline_options);
    std::vector<std::thread> threads;

    // Submitters: per-item completion slots prove exactly-once.
    for (int s = 0; s < kSubmitters; ++s) {
      const uint64_t submitter_seed = rng.Next();
      threads.emplace_back([&, s, submitter_seed] {
        Rng local(submitter_seed);
        for (int i = 0; i < kItemsPerSubmitter; ++i) {
          const int slot = s * kItemsPerSubmitter + i;
          const ShadowPart& part =
              parts[local.NextBelow(static_cast<uint64_t>(kParts))];
          ServeWorkItem item;
          item.problem = "list-membership";
          item.data = part.data;
          item.queries = part.probes;
          const size_t expected_queries = part.probes.size();
          Status admitted = pipeline.Submit(
              std::move(item), [&, slot, expected_queries](
                                   const ItemOutcome& outcome) {
                completions[static_cast<size_t>(slot)].fetch_add(1);
                if (outcome.status.ok()) {
                  EXPECT_EQ(outcome.queries,
                            static_cast<int64_t>(expected_queries));
                  ok_items.fetch_add(1);
                } else {
                  failed_items.fetch_add(1);
                }
              });
          ASSERT_TRUE(admitted.ok()) << admitted.ToString();
        }
      });
    }

    // Probers: direct AnswerBatch traffic whose OK answers are checked
    // against the shadow model *during* the storm.
    std::atomic<bool> stop{false};
    for (int p = 0; p < 2; ++p) {
      const uint64_t prober_seed = rng.Next();
      threads.emplace_back([&, prober_seed] {
        Rng local(prober_seed);
        while (!stop.load(std::memory_order_acquire)) {
          const ShadowPart& part =
              parts[local.NextBelow(static_cast<uint64_t>(kParts))];
          auto batch =
              engine->AnswerBatch("list-membership", part.data, part.probes);
          if (batch.ok()) {
            ExpectShadowAnswers(part, batch->answers, "prober");
          }
          std::this_thread::yield();
        }
      });
    }

    // Delta chain: valid volatile-only deltas against part 0; the thread
    // owns the evolving data part and its volatile multiset, and checks
    // the post-delta version against the same shadow (stable elements are
    // untouched by construction).
    const uint64_t delta_seed = rng.Next();
    threads.emplace_back([&, delta_seed] {
      Rng local(delta_seed);
      ShadowPart& part = parts[0];
      std::string current = part.data;
      std::vector<int64_t> volatiles = part.volatiles;
      for (int step = 0; step < 16; ++step) {
        DeltaBatch delta;
        DeltaOp op;
        if (!volatiles.empty() && local.NextBool(0.5)) {
          const size_t at = local.NextBelow(volatiles.size());
          op.kind = DeltaOp::Kind::kListDelete;
          op.a = volatiles[at];
          volatiles.erase(volatiles.begin() + static_cast<long>(at));
        } else {
          op.kind = DeltaOp::Kind::kListInsert;
          op.a = static_cast<int64_t>(local.NextBelow(256));
          volatiles.push_back(op.a);
        }
        delta.ops.push_back(op);
        auto outcome = engine->ApplyDelta("list-membership", current, delta);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        current = outcome->new_data;
        auto batch =
            engine->AnswerBatch("list-membership", current, part.probes);
        if (batch.ok()) {
          ExpectShadowAnswers(part, batch->answers, "delta-chain");
        }
      }
    });

    // Spill/Load churn against the live store, under the spill/serde
    // failpoints — partial spills, torn reads, rejected frames.
    const uint64_t spill_seed = rng.Next();
    threads.emplace_back([&, spill_seed] {
      Rng local(spill_seed);
      for (int cycle = 0; cycle < 6; ++cycle) {
        (void)engine->store().Spill(spill_dir);  // best effort under faults
        (void)engine->store().Load(spill_dir);
        std::this_thread::sleep_for(
            std::chrono::microseconds(local.NextBelow(500)));
      }
    });

    // Invariant 4 (bounded termination): Drain returns, threads join.
    for (int s = 0; s < kSubmitters; ++s) threads[s].join();
    pipeline.Drain();
    stop.store(true, std::memory_order_release);
    for (size_t t = kSubmitters; t < threads.size(); ++t) threads[t].join();

    // Invariant 1: exactly-once completion for every admitted item.
    for (int slot = 0; slot < kTotalItems; ++slot) {
      EXPECT_EQ(completions[static_cast<size_t>(slot)].load(), 1)
          << "item " << slot << " completed "
          << completions[static_cast<size_t>(slot)].load() << " times";
    }
    EXPECT_EQ(ok_items.load() + failed_items.load(), kTotalItems);

    ServeReport report = pipeline.report();
    // Quarantined items are also errors; shed cannot happen (no depth).
    EXPECT_EQ(report.shed, 0);
    EXPECT_LE(report.quarantined, report.errors);
  }
  // The budget really churned: the storm evicted, not just admitted.
  EXPECT_GT(engine->store().stats().evictions, 0);

  // --- after the storm -----------------------------------------------------
  failpoint::DisarmAll();

  // Invariant 2 (final): with faults off, every part answers the full
  // probe set correctly — whatever the schedule corrupted, rejected, or
  // quarantined degraded to recompute, never to a wrong answer.
  for (const ShadowPart& part : parts) {
    auto batch =
        engine->AnswerBatch("list-membership", part.data, part.probes);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectShadowAnswers(part, batch->answers, "post-storm");
  }

  // Invariant 3: accounting is exact. Clear drops every entry and every
  // byte; re-admitting one part lands on byte-for-byte the residency a
  // store that never saw the storm builds for the same content.
  engine->store().Clear();
  EXPECT_EQ(engine->store().size(), 0u);
  EXPECT_EQ(engine->store().bytes_resident(), 0u);
  ASSERT_TRUE(
      engine->AnswerBatch("list-membership", parts[1].data, parts[1].probes)
          .ok());
  auto reference = MakeEngine();
  ASSERT_TRUE(
      reference
          ->AnswerBatch("list-membership", parts[1].data, parts[1].probes)
          .ok());
  EXPECT_EQ(engine->store().bytes_resident(),
            reference->store().bytes_resident());
  EXPECT_EQ(engine->store().size(), reference->store().size());

  fs::remove_all(spill_dir);
}

TEST(ChaosTest, TwelveSeededSchedulesHoldEveryInvariant) {
  // Each seed draws its own fault mix, data parts, and interleavings; the
  // dozen schedules together cover Π failures, publish faults, patch
  // failures, view-build failures, and torn spill frames racing delta
  // chains, eviction, and Spill/Load cycles.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunChaosSchedule(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Tiered-residency chaos: view-build and spill-write faults land exactly
// where the demotion sweeps do their work. A byte-budgeted store with an
// armed spill directory churns hot->warm view demotions, warm->cold frame
// writes, and cold->hot promotions while both failure edges fire; a failed
// view build must degrade to the string answer path and a failed frame
// write must degrade to a plain eviction — never a wrong answer, never a
// stuck sweep, never broken accounting.
// ---------------------------------------------------------------------------

TEST(ChaosTest, TieredDemotionSweepsSurviveViewBuildAndSpillFaults) {
  Rng rng(2026);
  constexpr int kParts = 6;
  std::vector<ShadowPart> parts;
  for (int p = 0; p < kParts; ++p) {
    parts.push_back(MakeShadowPart(&rng, /*stable_count=*/24,
                                   /*volatile_count=*/16,
                                   /*probe_count=*/12));
  }

  // Size the budget off a fault-free probe: room for ~2.5 parts, so six
  // parts in rotation keep every sweep phase busy.
  size_t per_part = 0;
  {
    auto probe = MakeEngine();
    ASSERT_TRUE(
        probe->AnswerBatch("list-membership", parts[0].data, parts[0].probes)
            .ok());
    per_part = probe->store().bytes_resident();
    ASSERT_GT(per_part, 0u);
  }

  failpoint::ScopedFailpoints guard;
  failpoint::Arm("store.view_build", failpoint::EveryNth(3));
  failpoint::Arm("spill.write", failpoint::WithProbability(0.35, rng.Next()));

  PreparedStore::Options options;
  options.shards = 2;
  options.byte_budget = per_part * 5 / 2;
  auto engine = MakeEngine(options);
  const std::string spill_dir = UniqueTempDir("chaos_tiered");
  ASSERT_TRUE(engine->store().Spill(spill_dir).ok());

  // The storm: three workers rotate through more parts than the budget
  // holds. Every batch must come back OK and shadow-correct no matter
  // which demotion/promotion edge it raced or which faults it absorbed.
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    const uint64_t worker_seed = rng.Next();
    workers.emplace_back([&, worker_seed] {
      Rng local(worker_seed);
      for (int i = 0; i < 50; ++i) {
        const ShadowPart& part =
            parts[local.NextBelow(static_cast<uint64_t>(kParts))];
        auto batch =
            engine->AnswerBatch("list-membership", part.data, part.probes);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        ExpectShadowAnswers(part, batch->answers, "tiered-storm");
      }
    });
  }
  for (auto& worker : workers) worker.join();

  // The sweeps really ran across every tier boundary: views were shed in
  // the hot->warm phase, entries left the warm set, and each spillable
  // eviction either landed a cold frame or was charged as a respill
  // failure by the fault schedule.
  const PreparedStore::Stats stats = engine->store().stats();
  EXPECT_GT(stats.view_demotions, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.cold_demotions + stats.respill_failures, 0);
  EXPECT_LE(engine->store().bytes_resident(), options.byte_budget);

  // Fault-free epilogue: every part still answers correctly, and the
  // ledger clears to exactly zero — no bytes stranded by a sweep that a
  // failpoint interrupted halfway.
  failpoint::DisarmAll();
  for (const ShadowPart& part : parts) {
    auto batch =
        engine->AnswerBatch("list-membership", part.data, part.probes);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectShadowAnswers(part, batch->answers, "tiered-post-storm");
  }
  engine->store().Clear();
  EXPECT_EQ(engine->store().size(), 0u);
  EXPECT_EQ(engine->store().bytes_resident(), 0u);
  fs::remove_all(spill_dir);
}

// ---------------------------------------------------------------------------
// Deterministic Π retry / quarantine policy tests (the acceptance pins).
// ---------------------------------------------------------------------------

/// A registered problem whose Π fails until `fail_until` computes have
/// happened, counting every attempt — the deterministic witness for the
/// retry budget.
struct FlakyPi {
  std::atomic<int> computes{0};
  int fail_until = 0;  // computes 1..fail_until fail, later ones succeed
};

void RegisterFlaky(QueryEngine* engine, FlakyPi* pi) {
  ProblemEntry entry;
  entry.name = "flaky-echo";
  entry.paper_anchor = "test-only";
  entry.has_language = true;
  entry.witness.name = "echo";
  entry.witness.preprocess = [pi](const std::string& data,
                                  CostMeter*) -> Result<std::string> {
    const int attempt = pi->computes.fetch_add(1) + 1;
    if (attempt <= pi->fail_until) {
      return Status::Internal("flaky Π attempt " + std::to_string(attempt));
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

ServeWorkItem FlakyItem() {
  ServeWorkItem item;
  item.problem = "flaky-echo";
  item.data = "base";
  item.queries = {"pi:base"};
  return item;
}

TEST(PipelinePiFailureTest, RetryHealsTransientPiFailure) {
  auto engine = MakeEngine();
  FlakyPi pi;
  pi.fail_until = 2;  // attempts 1 and 2 fail, attempt 3 succeeds
  RegisterFlaky(engine.get(), &pi);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.pi_retries = 2;
  options.pi_retry_backoff_ns = 1'000;
  ServePipeline pipeline(engine.get(), options);

  std::atomic<bool> done_ok{false};
  ASSERT_TRUE(pipeline
                  .Submit(FlakyItem(),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            done_ok.store(true);
                          })
                  .ok());
  pipeline.Drain();
  EXPECT_TRUE(done_ok.load());
  EXPECT_EQ(pi.computes.load(), 3);  // CostMeter-adjacent pin: 1 + 2 retries

  ServeReport report = pipeline.report();
  EXPECT_EQ(report.pi_retries, 2);
  EXPECT_EQ(report.pi_failures, 0);
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(report.errors, 0);
}

TEST(PipelinePiFailureTest, PoisonedPiQuarantinesAfterRetryBudget) {
  auto engine = MakeEngine();
  FlakyPi pi;
  pi.fail_until = 1 << 20;  // never succeeds inside this test
  RegisterFlaky(engine.get(), &pi);

  PipelineOptions options;
  options.threads = 2;
  options.preparers = 1;
  options.pi_retries = 2;
  options.pi_retry_backoff_ns = 1'000;
  options.quarantine_ttl_ns = 60'000'000'000;  // 60 s: never expires here
  ServePipeline pipeline(engine.get(), options);

  // One item spends the whole retry budget and fails terminally.
  std::atomic<int> internal_failures{0};
  ASSERT_TRUE(pipeline
                  .Submit(FlakyItem(),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_EQ(outcome.status.code(),
                                      StatusCode::kInternal);
                            internal_failures.fetch_add(1);
                          })
                  .ok());
  pipeline.Drain();
  ASSERT_EQ(internal_failures.load(), 1);
  const int computes_after_terminal = pi.computes.load();
  EXPECT_EQ(computes_after_terminal, 3);  // 1 attempt + pi_retries

  // Every later item on the poisoned digest fails FAST: no further Π run
  // (the compute-count pin), Status::Internal, counted as quarantined.
  constexpr int kParked = 19;
  for (int i = 0; i < kParked; ++i) {
    ASSERT_TRUE(pipeline
                    .Submit(FlakyItem(),
                            [&](const ItemOutcome& outcome) {
                              EXPECT_EQ(outcome.status.code(),
                                        StatusCode::kInternal);
                              internal_failures.fetch_add(1);
                            })
                    .ok());
  }
  pipeline.Drain();
  EXPECT_EQ(internal_failures.load(), 1 + kParked);
  EXPECT_EQ(pi.computes.load(), computes_after_terminal);  // Π never re-ran

  ServeReport report = pipeline.report();
  EXPECT_EQ(report.pi_failures, 1);
  EXPECT_EQ(report.pi_retries, 2);
  EXPECT_EQ(report.quarantined, kParked);
  EXPECT_EQ(report.errors, 1 + kParked);
}

TEST(PipelinePiFailureTest, QuarantineExpiresAndPiIsReprobed) {
  auto engine = MakeEngine();
  FlakyPi pi;
  pi.fail_until = 3;  // the first storm's budget (3 attempts) all fail...
  RegisterFlaky(engine.get(), &pi);

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.pi_retries = 2;
  options.pi_retry_backoff_ns = 1'000;
  options.quarantine_ttl_ns = 20'000'000;  // 20 ms
  ServePipeline pipeline(engine.get(), options);

  std::atomic<int> failures{0};
  ASSERT_TRUE(pipeline
                  .Submit(FlakyItem(),
                          [&](const ItemOutcome&) { failures.fetch_add(1); })
                  .ok());
  pipeline.Drain();
  ASSERT_EQ(failures.load(), 1);
  ASSERT_EQ(pi.computes.load(), 3);

  // ...wait out the TTL; the next item re-probes Π (attempt 4 succeeds).
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::atomic<bool> recovered{false};
  ASSERT_TRUE(pipeline
                  .Submit(FlakyItem(),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            recovered.store(true);
                          })
                  .ok());
  pipeline.Drain();
  EXPECT_TRUE(recovered.load());
  EXPECT_EQ(pi.computes.load(), 4);
  EXPECT_EQ(pipeline.report().quarantined, 0);  // expiry re-probed, not fast-failed
}

TEST(PipelinePiFailureTest, PreparerPublishFailpointHealsViaRetry) {
  auto engine = MakeEngine();
  failpoint::ScopedFailpoints guard;
  // Π and the store publish succeed, then the preparer "dies" once before
  // waking its parked units; the retry hits the published entry warm.
  failpoint::Arm("pipeline.preparer_publish", failpoint::Once());

  PipelineOptions options;
  options.threads = 1;
  options.preparers = 1;
  options.pi_retries = 1;
  options.pi_retry_backoff_ns = 1'000;
  ServePipeline pipeline(engine.get(), options);

  ServeWorkItem item;
  item.problem = "list-membership";
  item.data = core::MemberFactorization()
                  .pi1(core::MakeMemberInstance(64, {1, 2, 3}, 0))
                  .value();
  item.queries = {"1", "5"};
  std::atomic<bool> done_ok{false};
  ASSERT_TRUE(pipeline
                  .Submit(std::move(item),
                          [&](const ItemOutcome& outcome) {
                            EXPECT_TRUE(outcome.status.ok())
                                << outcome.status.ToString();
                            EXPECT_EQ(outcome.queries, 2);
                            done_ok.store(true);
                          })
                  .ok());
  pipeline.Drain();
  EXPECT_TRUE(done_ok.load());

  ServeReport report = pipeline.report();
  EXPECT_EQ(report.pi_retries, 1);
  EXPECT_EQ(report.pi_failures, 0);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(failpoint::StatsFor("pipeline.preparer_publish").fires, 1);
}

// ---------------------------------------------------------------------------
// Warm witness upgrade under fault injection. A reach part interned on the
// cheap-build edge-scan witness earns the closure through warm traffic;
// with `engine.witness_upgrade` armed every upgrade the traffic triggers
// fails, and the edge-scan witness must keep serving answers that match a
// BFS shadow of the graph. Disarmed, the next due upgrade lands. The
// accounting is exact throughout: the reports' upgrades, upgrade_failures
// and pi_runs agree with the engine's counters and the failpoint's fires.
// ---------------------------------------------------------------------------

TEST(WitnessUpgradeChaosTest, FailedUpgradeKeepsOldWitnessServing) {
  failpoint::ScopedFailpoints guard;
  auto engine = MakeEngine();
  engine->cost_model().SetPolicy(CostModel::Policy::kAdaptive);

  Rng rng(8080);
  const graph::Graph g = graph::ErdosRenyi(64, 256, /*directed=*/true, &rng);
  const std::string data = core::ReachFactorization()
                               .pi1(core::MakeReachInstance(g, 0, 0))
                               .value();
  auto interned = engine->Intern("graph-reachability", data);
  ASSERT_TRUE(interned.ok()) << interned.status().ToString();
  const auto handle =
      std::make_shared<const DataHandle>(std::move(interned).value());

  // 16 items x 8 queries, each answer fixed by a BFS the fault schedule
  // cannot touch.
  std::vector<ServeWorkItem> workload(16);
  std::vector<std::vector<bool>> shadow;
  for (ServeWorkItem& item : workload) {
    item.handle = handle;
    std::vector<bool> expected;
    for (int q = 0; q < 8; ++q) {
      const auto u = static_cast<graph::NodeId>(rng.NextBelow(64));
      const auto v = static_cast<graph::NodeId>(rng.NextBelow(64));
      item.queries.push_back(std::to_string(u) + "#" + std::to_string(v));
      expected.push_back(graph::BfsReachable(g, u, v));
    }
    shadow.push_back(std::move(expected));
  }
  auto route_witness = [&handle] {
    const std::string& key = *handle->current_key().bytes;
    const size_t a = key.find('\x1f');
    return key.substr(a + 1, key.find('\x1f', a + 1) - a - 1);
  };
  ASSERT_EQ(route_witness(), "edge-scan");

  ServeOptions options;
  options.threads = 2;
  options.preparers = 1;
  options.repeat = 4;
  ServeReport total;
  // One round: a ServeParallel pass (Drain covers the upgrades it queues),
  // then every item through the warm face against the shadow.
  auto round = [&] {
    const ServeReport report = ServeParallel(engine.get(), workload, options);
    ASSERT_EQ(report.errors, 0) << report.first_error.ToString();
    total.pi_runs += report.pi_runs;
    total.upgrades += report.upgrades;
    total.upgrade_failures += report.upgrade_failures;
    for (size_t i = 0; i < workload.size(); ++i) {
      BatchResult batch;
      auto warm = engine->TryAnswerWarm(*handle, workload[i].queries, &batch);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(*warm);
      ASSERT_EQ(batch.answers, shadow[i]);
    }
  };

  // Armed: drive the part's traffic through six doublings past the first
  // failed upgrade. Every due upgrade fails; edge-scan keeps serving.
  failpoint::Arm("engine.witness_upgrade", failpoint::Always());
  const uint64_t fp = handle->part_fingerprint;
  int64_t traffic_at_failure = 0;
  for (int r = 0; r < 400; ++r) {
    round();
    if (HasFatalFailure()) return;
    const int64_t traffic = engine->cost_model().TrafficFor(fp);
    if (total.upgrade_failures > 0 && traffic_at_failure == 0) {
      traffic_at_failure = traffic;
    }
    if (traffic_at_failure > 0 && traffic >= 64 * traffic_at_failure) break;
  }
  ASSERT_GT(traffic_at_failure, 0) << "no upgrade became due";
  const int64_t fires = failpoint::StatsFor("engine.witness_upgrade").fires;
  EXPECT_GE(fires, 2);  // a failure does not stop later doublings retrying
  EXPECT_EQ(total.upgrade_failures, fires);
  EXPECT_EQ(engine->upgrade_failures(), fires);
  EXPECT_EQ(total.upgrades, 0);
  EXPECT_EQ(engine->upgrades(), 0);
  EXPECT_EQ(total.pi_runs, 1);  // the cold edge-scan build only
  EXPECT_EQ(engine->store().stats().misses, 1);
  EXPECT_EQ(route_witness(), "edge-scan");
  EXPECT_EQ(engine->cost_model().ChoiceFor(fp), 1);

  // Disarmed: the next doubling's upgrade builds the closure once.
  failpoint::Disarm("engine.witness_upgrade");
  const int64_t traffic_disarmed = engine->cost_model().TrafficFor(fp);
  for (int r = 0; r < 400 && total.upgrades == 0; ++r) {
    round();
    if (HasFatalFailure()) return;
  }
  EXPECT_LE(engine->cost_model().TrafficFor(fp), 4 * traffic_disarmed);
  EXPECT_EQ(total.upgrades, 1);
  EXPECT_EQ(engine->upgrades(), 1);
  EXPECT_EQ(total.upgrade_failures, fires);
  EXPECT_EQ(total.pi_runs, 2);
  EXPECT_EQ(engine->store().stats().misses, 2);
  EXPECT_EQ(engine->store().stats().locked_hits, 0);
  EXPECT_EQ(route_witness(), "incremental-closure");
  EXPECT_EQ(engine->cost_model().ChoiceFor(fp), 0);
  round();  // the closure answers the shadow too
}

}  // namespace
}  // namespace engine
}  // namespace pitract
