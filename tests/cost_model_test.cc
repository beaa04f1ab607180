// Unit coverage for the witness-selection solver (engine/cost_model.h):
// policy gating, the expected-cost score (build amortization, residency,
// byte pressure, measured-profile blending, hysteresis), the traffic
// bookkeeping that drives re-selection and its bounded trim, and the
// CostDescriptor linear fits — plus engine-level tests proving answer
// parity across policies and the warm cold-part -> hot-part witness
// upgrade end to end: on the blocking face, through the pipeline's
// preparer to a handle interned before the upgrade, and against warm
// readers racing the route swap.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/problems.h"
#include "engine/builtins.h"
#include "engine/cost_model.h"
#include "engine/delta.h"
#include "engine/engine.h"
#include "engine/serve.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace pitract {
namespace engine {
namespace {

// A witness that answers fast but builds at a flat (size-independent)
// cost, and one that builds free but pays per query — the canonical
// closure-vs-scan tension the solver exists to arbitrate.
CostDescriptor FastAnswerDescriptor() {
  CostDescriptor d;
  d.build_ops_base = 10000.0;
  d.build_ops_per_byte = 0.0;
  d.bytes_base = 0.0;
  d.bytes_per_byte = 0.0;
  d.answer_ops_base = 1.0;
  return d;
}

CostDescriptor CheapBuildDescriptor() {
  CostDescriptor d;
  d.build_ops_base = 0.0;
  d.build_ops_per_byte = 0.0;
  d.bytes_base = 0.0;
  d.bytes_per_byte = 0.0;
  d.answer_ops_base = 10.0;
  return d;
}

TEST(CostModelTest, PrimaryOnlyIgnoresCosts) {
  CostModel model;
  ASSERT_EQ(model.policy(), CostModel::Policy::kPrimaryOnly);
  // Candidate 1 is strictly cheaper on every axis; kPrimaryOnly must still
  // return 0 — the pre-adaptive engine's behavior, bit for bit.
  CostDescriptor expensive = FastAnswerDescriptor();
  CostDescriptor free_lunch;
  free_lunch.build_ops_base = 0.0;
  free_lunch.build_ops_per_byte = 0.0;
  free_lunch.bytes_per_byte = 0.0;
  free_lunch.answer_ops_base = 0.0;
  std::vector<CostModel::Candidate> candidates = {
      {"primary", &expensive, nullptr, false},
      {"better", &free_lunch, nullptr, true},
  };
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 0);
}

TEST(CostModelTest, ForcedClampsToCandidateRange) {
  CostModel model;
  CostDescriptor a = FastAnswerDescriptor();
  CostDescriptor b = CheapBuildDescriptor();
  std::vector<CostModel::Candidate> candidates = {
      {"a", &a, nullptr, false},
      {"b", &b, nullptr, false},
  };
  model.ForceWitness(5);  // out of range: clamps to the last candidate
  EXPECT_EQ(model.policy(), CostModel::Policy::kForced);
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 1);
  model.ForceWitness(-3);  // negative: clamps to the primary
  EXPECT_EQ(model.forced_index(), 0);
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 0);
  model.ForceWitness(1);
  EXPECT_EQ(model.Select(candidates, 1000, 42, 0.0), 1);
}

TEST(CostModelTest, AdaptiveWeighsBuildAgainstExpectedTraffic) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  CostDescriptor closure = FastAnswerDescriptor();
  CostDescriptor scan = CheapBuildDescriptor();
  std::vector<CostModel::Candidate> candidates = {
      {"closure", &closure, nullptr, false},
      {"scan", &scan, nullptr, false},
  };
  // Cold part, modest prior (16 expected queries): amortizing a 10000-op
  // build over 16 queries loses to paying 10 ops per query.
  //   closure: 10000 + 16*1 = 10016   scan: 0 + 16*10 = 160
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 1);
  // The same part after 5000 recorded queries: the build amortizes.
  //   closure: 10000 + 5000*1 = 15000   scan: 5000*10 = 50000
  model.NoteTraffic(7, 5000);
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
  // An unrelated part is still judged by its own (cold) traffic.
  EXPECT_EQ(model.Select(candidates, 1000, 8, 0.0), 1);
}

TEST(CostModelTest, ResidencyZeroesBuildCost) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  CostDescriptor closure = FastAnswerDescriptor();
  CostDescriptor scan = CheapBuildDescriptor();
  // A resident Π is sunk cost: with the build term zeroed the fast-answer
  // witness wins even at the cold-part prior (16*1 < 16*10).
  std::vector<CostModel::Candidate> candidates = {
      {"closure", &closure, nullptr, true},
      {"scan", &scan, nullptr, false},
  };
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
}

TEST(CostModelTest, BytePressurePenalizesByteHungryWitnesses) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  CostDescriptor fat;
  fat.build_ops_base = 0.0;
  fat.build_ops_per_byte = 0.0;
  fat.bytes_base = 0.0;
  fat.bytes_per_byte = 10.0;
  fat.answer_ops_base = 1.0;
  CostDescriptor lean = fat;
  lean.bytes_per_byte = 1.0;
  lean.answer_ops_base = 1.2;
  std::vector<CostModel::Candidate> candidates = {
      {"fat", &fat, nullptr, true},
      {"lean", &lean, nullptr, true},
  };
  // Empty store: answer cost is all that matters -> fat (16 < 19.2).
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
  // Full store: fat pays 10000*0.25 in footprint, lean only 1000*0.25.
  EXPECT_EQ(model.Select(candidates, 1000, 7, 1.0), 1);
  // Pressure is clamped to [0,1], not extrapolated.
  EXPECT_EQ(model.Select(candidates, 1000, 7, 7.0),
            model.Select(candidates, 1000, 7, 1.0));
}

TEST(CostModelTest, MeasuredProfileBlendsIntoPriors) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  // The registered prior claims near-free answers; measurements say 1000
  // ops per query. The blend pulls the estimate halfway to reality, which
  // is enough to flip the selection to the honestly-priced candidate.
  CostDescriptor lying;
  lying.build_ops_base = 0.0;
  lying.build_ops_per_byte = 0.0;
  lying.bytes_per_byte = 0.0;
  lying.answer_ops_base = 0.01;
  CostDescriptor honest = CheapBuildDescriptor();
  CostProfile measured;
  std::vector<CostModel::Candidate> candidates = {
      {"lying", &lying, &measured, false},
      {"honest", &honest, nullptr, false},
  };
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 0);
  measured.RecordAnswer(/*queries=*/1000, /*ops=*/1000000);
  // Blended answer estimate: (0.01 + 1000)/2 ≈ 500 ops/query >> 10.
  EXPECT_EQ(model.Select(candidates, 1000, 7, 0.0), 1);

  // Build-side blending uses measured ops-per-input-byte the same way.
  CostDescriptor cheap_claim;
  cheap_claim.build_ops_base = 0.0;
  cheap_claim.build_ops_per_byte = 0.001;
  cheap_claim.bytes_per_byte = 0.0;
  cheap_claim.answer_ops_base = 1.0;
  CostDescriptor steady = cheap_claim;
  steady.build_ops_per_byte = 50.0;
  CostProfile measured_build;
  // 100 ops/byte measured: blend = (0.001 + 100)/2 ≈ 50.0005 > 50.
  measured_build.RecordBuild(/*data_bytes=*/1000, /*prepared_bytes=*/0,
                             /*ops=*/100000);
  std::vector<CostModel::Candidate> builds = {
      {"cheap_claim", &cheap_claim, &measured_build, false},
      {"steady", &steady, nullptr, false},
  };
  EXPECT_EQ(model.Select(builds, 1000, 9, 0.0), 1);
}

TEST(CostModelTest, NoteTrafficFiresOnDoublingBoundariesAboveFloor) {
  CostModel model;
  const uint64_t fp = 17;
  EXPECT_FALSE(model.NoteTraffic(fp, 0));    // no-op
  EXPECT_FALSE(model.NoteTraffic(fp, -4));   // no-op
  EXPECT_FALSE(model.NoteTraffic(fp, 31));   // below the floor
  EXPECT_TRUE(model.NoteTraffic(fp, 1));     // crosses 32
  EXPECT_FALSE(model.NoteTraffic(fp, 31));   // 63: no boundary
  EXPECT_TRUE(model.NoteTraffic(fp, 1));     // crosses 64
  EXPECT_TRUE(model.NoteTraffic(fp, 64));    // crosses 128
  EXPECT_FALSE(model.NoteTraffic(fp, 1));    // 129: between boundaries
  EXPECT_EQ(model.TrafficFor(fp), 129);
  // One large batch on a fresh part fires once even when it jumps several
  // boundaries at a time.
  EXPECT_TRUE(model.NoteTraffic(99, 1000));
  EXPECT_FALSE(model.NoteTraffic(99, 20));
}

TEST(CostModelTest, TrimDropsTheColdestHalfAndKeepsNewAndHotParts) {
  CostModel model;
  const uint64_t cap = CostModel::kMaxTrackedParts;
  // Fill the model to its cap. Parts 1..1000 are the hottest and hold a
  // sticky choice; the rest saw one query each.
  for (uint64_t fp = 1; fp <= cap; ++fp) {
    model.NoteTraffic(fp, fp <= 1000 ? static_cast<int64_t>(1000 + fp) : 1);
    if (fp <= 1000) model.SetChoice(fp, 1);
  }
  // 1000 never-seen parts: the first one forces a trim. Each must keep the
  // count it was just given (the trim runs before it is inserted), which
  // is also what ASan checks: no write through a dropped entry.
  for (uint64_t fp = cap + 1; fp <= cap + 1000; ++fp) {
    model.NoteTraffic(fp, 7);
  }
  for (uint64_t fp = cap + 1; fp <= cap + 1000; ++fp) {
    ASSERT_EQ(model.TrafficFor(fp), 7) << fp;
  }
  // The trim took the coldest half by traffic, never a hot part.
  for (uint64_t fp = 1; fp <= 1000; ++fp) {
    ASSERT_EQ(model.TrafficFor(fp), static_cast<int64_t>(1000 + fp)) << fp;
    ASSERT_EQ(model.ChoiceFor(fp), 1) << fp;
  }
  int64_t cold_kept = 0;
  for (uint64_t fp = 1001; fp <= cap; ++fp) {
    cold_kept += model.TrafficFor(fp) > 0 ? 1 : 0;
  }
  EXPECT_EQ(cold_kept, static_cast<int64_t>(cap / 2 - 1000));
}

TEST(CostModelTest, IncumbentKeepsItsWitnessInsideTheSwitchMargin) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  // Both resident, no build terms: score = expected queries * answer.
  CostDescriptor incumbent;
  incumbent.build_ops_base = 0.0;
  incumbent.build_ops_per_byte = 0.0;
  incumbent.bytes_per_byte = 0.0;
  incumbent.answer_ops_base = 10.0;
  CostDescriptor slightly_better = incumbent;
  slightly_better.answer_ops_base = 8.0;  // saves 20% < kSwitchMargin
  CostDescriptor much_better = incumbent;
  much_better.answer_ops_base = 5.0;  // saves 50%
  std::vector<CostModel::Candidate> close = {
      {"incumbent", &incumbent, nullptr, true},
      {"challenger", &slightly_better, nullptr, true},
  };
  // Without an incumbent the cheaper candidate wins outright...
  EXPECT_EQ(model.Select(close, 1000, 7, 0.0), 1);
  // ...but a served part does not switch for a 20% saving.
  EXPECT_EQ(model.Select(close, 1000, 7, 0.0, /*incumbent=*/0), 0);
  std::vector<CostModel::Candidate> far = {
      {"incumbent", &incumbent, nullptr, true},
      {"challenger", &much_better, nullptr, true},
  };
  EXPECT_EQ(model.Select(far, 1000, 7, 0.0, /*incumbent=*/0), 1);
  // Having switched, the part does not flip back: the old witness is now
  // the challenger and saves nothing.
  EXPECT_EQ(model.Select(far, 1000, 7, 0.0, /*incumbent=*/1), 1);
}

TEST(CostModelTest, CarryTrafficMovesPopularityAndChoiceAcrossRekey) {
  CostModel model;
  const uint64_t old_fp = 11;
  const uint64_t new_fp = 22;
  model.NoteTraffic(old_fp, 100);
  model.SetChoice(old_fp, 1);
  model.CarryTraffic(old_fp, new_fp);
  EXPECT_EQ(model.TrafficFor(old_fp), 0);
  EXPECT_EQ(model.TrafficFor(new_fp), 100);
  EXPECT_EQ(model.ChoiceFor(old_fp), -1);
  EXPECT_EQ(model.ChoiceFor(new_fp), 1);
  // Carrying from an untracked fingerprint is a no-op, not a reset.
  model.CarryTraffic(12345, new_fp);
  EXPECT_EQ(model.TrafficFor(new_fp), 100);
  // The carried popularity keeps amortizing the expensive build: the
  // post-delta part selects as a hot part, not a cold one.
  CostModel adaptive;
  adaptive.SetPolicy(CostModel::Policy::kAdaptive);
  adaptive.NoteTraffic(old_fp, 5000);
  adaptive.CarryTraffic(old_fp, new_fp);
  CostDescriptor closure = FastAnswerDescriptor();
  CostDescriptor scan = CheapBuildDescriptor();
  std::vector<CostModel::Candidate> candidates = {
      {"closure", &closure, nullptr, false},
      {"scan", &scan, nullptr, false},
  };
  EXPECT_EQ(adaptive.Select(candidates, 1000, new_fp, 0.0), 0);
}

TEST(CostModelTest, ColdPriorIsCappedBelowInflatedGlobalAverage) {
  CostModel model;
  model.SetPolicy(CostModel::Policy::kAdaptive);
  // One scorching part inflates the model-wide average to 100000 q/part.
  const uint64_t hot_fp = 1;
  model.NoteTraffic(hot_fp, 100000);
  // Candidates cross at E = 100: A costs 2E, B costs 150 + 0.5E.
  CostDescriptor a;
  a.build_ops_base = 0.0;
  a.build_ops_per_byte = 0.0;
  a.bytes_per_byte = 0.0;
  a.answer_ops_base = 2.0;
  CostDescriptor b = a;
  b.build_ops_base = 150.0;
  b.answer_ops_base = 0.5;
  std::vector<CostModel::Candidate> candidates = {
      {"a", &a, nullptr, false},
      {"b", &b, nullptr, false},
  };
  // The hot part itself amortizes B's build instantly.
  EXPECT_EQ(model.Select(candidates, 1000, hot_fp, 0.0), 1);
  // A fresh part must NOT inherit the head's popularity: the ski-rental
  // cap holds its prior at 16 (32 < 158), so it starts on the cheap-build
  // side instead of eating an unamortized build on every cold part.
  EXPECT_EQ(model.Select(candidates, 1000, 777, 0.0), 0);
}

TEST(CostModelTest, CostDescriptorClampsLinearFitsAtZero) {
  // A negative base is a two-point fit of a superlinear build: below the
  // fit's root the model reads zero, never a negative credit.
  CostDescriptor closure;
  closure.build_ops_base = -38000.0;
  closure.build_ops_per_byte = 32.0;
  closure.bytes_base = -100.0;
  closure.bytes_per_byte = 1.0;
  closure.answer_ops_base = -5.0;
  closure.answer_ops_per_byte = 0.01;
  EXPECT_EQ(closure.BuildOps(100), 0.0);       // -38000 + 3200 < 0
  EXPECT_EQ(closure.BuildOps(2000), 26000.0);  // -38000 + 64000
  EXPECT_EQ(closure.Bytes(50), 0.0);
  EXPECT_EQ(closure.Bytes(1100), 1000.0);
  EXPECT_EQ(closure.AnswerOps(100), 0.0);
  EXPECT_EQ(closure.AnswerOps(1000), 5.0);
}

// ---------------------------------------------------------------------------
// Engine-level: the solver's choice must never change an answer, and a
// part that turns hot must graduate from the cheap-build witness to the
// fast-answer witness while warm — one upgrade build, never a wrong batch,
// never a flip back.
// ---------------------------------------------------------------------------

constexpr char kReach[] = "graph-reachability";

/// The witness a store key names (keys are problem \x1f witness \x1f data).
std::string_view KeyWitness(const PreparedStore::Key& key) {
  const std::string_view bytes(*key.bytes);
  const size_t a = bytes.find('\x1f');
  const size_t b = bytes.find('\x1f', a + 1);
  return bytes.substr(a + 1, b - a - 1);
}

std::unique_ptr<QueryEngine> MakeReachEngine(bool adaptive) {
  auto engine = std::make_unique<QueryEngine>(PreparedStore::Options{});
  EXPECT_TRUE(RegisterBuiltins(engine.get()).ok());
  if (adaptive) {
    engine->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  } else {
    engine->cost_model().ForceWitness(0);  // closure-always oracle
  }
  return engine;
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
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    queries.push_back(
        std::to_string(rng->NextBelow(static_cast<uint64_t>(n))) + "#" +
        std::to_string(rng->NextBelow(static_cast<uint64_t>(n))));
  }
  return queries;
}

TEST(CostModelEngineTest, WitnessParityAcrossPolicies) {
  const std::string data = ReachData(48, 192, 404);
  Rng rng(405);
  const auto queries = ReachQueries(48, 64, &rng);

  auto make_engine = [] {
    auto engine = std::make_unique<QueryEngine>(PreparedStore::Options{});
    auto status = RegisterBuiltins(engine.get());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return engine;
  };

  auto primary = make_engine();  // kPrimaryOnly (default)
  auto adaptive = make_engine();
  adaptive->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  auto forced_closure = make_engine();
  forced_closure->cost_model().ForceWitness(0);
  auto forced_scan = make_engine();
  forced_scan->cost_model().ForceWitness(1);

  auto baseline = primary->AnswerBatch("graph-reachability", data, queries);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (QueryEngine* engine :
       {adaptive.get(), forced_closure.get(), forced_scan.get()}) {
    auto batch = engine->AnswerBatch("graph-reachability", data, queries);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->answers, baseline->answers);
  }
  // The forced-scan engine really did serve off the alternative witness:
  // parity came from equivalence, not from both picking the same Π.
  EXPECT_TRUE(forced_scan->store().Contains("graph-reachability", "edge-scan",
                                            data));
  EXPECT_FALSE(forced_scan->store().Contains("graph-reachability",
                                             "incremental-closure", data));
  EXPECT_TRUE(forced_closure->store().Contains("graph-reachability",
                                               "incremental-closure", data));
  EXPECT_FALSE(forced_closure->store().Contains("graph-reachability",
                                                "edge-scan", data));
}

TEST(CostModelEngineTest, AdaptiveUpgradesHotPartToFastWitness) {
  // Sized so the closure's two-point fit prices its build well above zero
  // (|D| past the fit root) while modest enough that the scan witness wins
  // the cold-part score: the part must start on the cheap build and earn
  // the closure through traffic alone.
  const std::string data = ReachData(64, 256, 1234);
  ASSERT_GT(data.size(), 1250u);
  ASSERT_LT(data.size(), 1700u);

  auto adaptive = std::make_unique<QueryEngine>(PreparedStore::Options{});
  ASSERT_TRUE(RegisterBuiltins(adaptive.get()).ok());
  adaptive->cost_model().SetPolicy(CostModel::Policy::kAdaptive);
  auto reference = std::make_unique<QueryEngine>(PreparedStore::Options{});
  ASSERT_TRUE(RegisterBuiltins(reference.get()).ok());
  reference->cost_model().ForceWitness(0);  // closure-always oracle

  // The part starts cold on the edge-scan witness.
  Rng rng(4321);
  {
    auto first = adaptive->AnswerBatch("graph-reachability", data,
                                       ReachQueries(64, 8, &rng));
    ASSERT_TRUE(first.ok());
  }
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(
                QueryEngine::PartFingerprint(data)),
            1);
  EXPECT_EQ(adaptive->store().stats().misses, 1);

  // 130 batches x 8 queries drive the part's traffic through the 32, 64,
  // ..., 1024 re-selection boundaries; somewhere along the way the build
  // amortizes and the blocking face runs the warm upgrade to the closure
  // right after the batch that triggered it.
  Rng rng_adaptive(777);
  Rng rng_reference(777);
  for (int batch = 0; batch < 130; ++batch) {
    const auto queries = ReachQueries(64, 8, &rng_adaptive);
    const auto check = ReachQueries(64, 8, &rng_reference);
    ASSERT_EQ(queries, check);
    auto got = adaptive->AnswerBatch("graph-reachability", data, queries);
    auto want = reference->AnswerBatch("graph-reachability", data, queries);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    // Every batch — before, during, and after the upgrade — matches the
    // closure-always oracle.
    ASSERT_EQ(got->answers, want->answers) << "batch " << batch;
  }

  // The upgrade happened (sticky choice now the primary closure), cost
  // exactly one extra cold build, and never flapped back: scan Π then
  // closure Π, two misses total.
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(
                QueryEngine::PartFingerprint(data)),
            0);
  EXPECT_EQ(adaptive->store().stats().misses, 2);
  EXPECT_EQ(reference->store().stats().misses, 1);
  EXPECT_EQ(adaptive->upgrades(), 1);
  EXPECT_EQ(adaptive->upgrade_failures(), 0);
  // The scan entry is retired: still resident for a reader on its key,
  // but no longer the part's servable head.
  EXPECT_FALSE(adaptive->store().Contains(kReach, "edge-scan", data));
  EXPECT_TRUE(adaptive->store().Contains(kReach, "incremental-closure", data));
}

TEST(CostModelEngineTest, WarmUpgradeReachesHandleThroughThePipeline) {
  const std::string data = ReachData(64, 256, 1234);
  auto adaptive = MakeReachEngine(/*adaptive=*/true);
  auto reference = MakeReachEngine(/*adaptive=*/false);

  // Interned (and so keyed) before any traffic: the cheap-build scan.
  auto interned = adaptive->Intern(kReach, data);
  ASSERT_TRUE(interned.ok()) << interned.status().ToString();
  const auto handle =
      std::make_shared<const DataHandle>(std::move(interned).value());
  ASSERT_EQ(KeyWitness(handle->key), "edge-scan");
  const uint64_t fp = handle->part_fingerprint;

  Rng rng(2024);
  std::vector<ServeWorkItem> workload(16);
  std::vector<std::vector<bool>> expected;
  for (ServeWorkItem& item : workload) {
    item.handle = handle;
    item.queries = ReachQueries(64, 8, &rng);
    auto want = reference->AnswerBatch(kReach, data, item.queries);
    ASSERT_TRUE(want.ok());
    expected.push_back(want->answers);
  }

  ServeOptions options;
  options.threads = 2;
  options.preparers = 1;
  options.repeat = 4;
  int64_t pi_runs = 0;
  int64_t upgrades = 0;
  int64_t traffic_at_upgrade = 0;
  // Each round: one ServeParallel pass (its preparer runs any upgrade the
  // pass queues; shutdown drains the queue), then every item through the
  // warm face against the closure-always oracle. Stop four doublings
  // after the upgrade.
  for (int round = 0; round < 500; ++round) {
    const ServeReport report = ServeParallel(adaptive.get(), workload, options);
    ASSERT_EQ(report.errors, 0) << report.first_error.ToString();
    ASSERT_EQ(report.upgrade_failures, 0);
    pi_runs += report.pi_runs;
    upgrades += report.upgrades;
    for (size_t i = 0; i < workload.size(); ++i) {
      BatchResult batch;
      auto warm = adaptive->TryAnswerWarm(*handle, workload[i].queries, &batch);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(*warm) << "round " << round << " item " << i;
      ASSERT_EQ(batch.answers, expected[i]) << "round " << round;
    }
    const int64_t traffic = adaptive->cost_model().TrafficFor(fp);
    if (upgrades > 0 && traffic_at_upgrade == 0) traffic_at_upgrade = traffic;
    if (traffic_at_upgrade > 0 && traffic >= 16 * traffic_at_upgrade) break;
  }
  ASSERT_GT(traffic_at_upgrade, 0) << "the part never upgraded";
  EXPECT_GE(adaptive->cost_model().TrafficFor(fp), 16 * traffic_at_upgrade);
  EXPECT_FALSE(adaptive->HasPendingUpgrades());

  // One cold scan build, then exactly one upgrade build; no flip back.
  EXPECT_EQ(pi_runs, 2);
  EXPECT_EQ(upgrades, 1);
  EXPECT_EQ(adaptive->upgrades(), 1);
  EXPECT_EQ(adaptive->store().stats().misses, 2);
  EXPECT_EQ(adaptive->store().stats().locked_hits, 0);
  // The handle's key still names what it was interned under; its answers
  // follow the route, which now names the closure.
  EXPECT_EQ(KeyWitness(handle->key), "edge-scan");
  EXPECT_EQ(KeyWitness(handle->current_key()), "incremental-closure");
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(fp), 0);

  // A delta now patches the closure the part is served from, and the
  // post-delta handle names it: warm, no Π.
  DeltaBatch delta;
  DeltaOp insert;
  insert.kind = DeltaOp::Kind::kEdgeInsert;
  insert.a = 5;
  insert.b = 61;
  delta.ops.push_back(insert);
  auto outcome = adaptive->ApplyDelta(kReach, *handle->data, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->patched) << outcome->fallback_reason.ToString();
  auto post = adaptive->Intern(kReach, outcome->new_data);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(KeyWitness(post->key), "incremental-closure");
  const auto queries = workload[0].queries;
  auto got = adaptive->AnswerBatch(*post, queries);
  auto want = reference->AnswerBatch(kReach, outcome->new_data, queries);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(got->cache_hit);
  EXPECT_EQ(got->prepare_runs, 0);
  EXPECT_EQ(got->answers, want->answers);
  EXPECT_EQ(adaptive->store().stats().misses, 2);
}

// The same upgrade through string-keyed pipeline items: each item interns
// a handle with a private route at its first probe, so the upgrade must
// still happen once, and a job queued by an item interned before it landed
// must be dropped, not run and counted again.
TEST(CostModelEngineTest, WarmUpgradeReachesStringItemsThroughThePipeline) {
  const std::string data = ReachData(64, 256, 1234);
  const uint64_t fp = QueryEngine::PartFingerprint(data);
  auto adaptive = MakeReachEngine(/*adaptive=*/true);
  auto reference = MakeReachEngine(/*adaptive=*/false);

  Rng rng(2025);
  std::vector<ServeWorkItem> workload(16);
  std::vector<std::vector<bool>> expected;
  for (ServeWorkItem& item : workload) {
    item.problem = kReach;
    item.data = data;
    item.queries = ReachQueries(64, 8, &rng);
    auto want = reference->AnswerBatch(kReach, data, item.queries);
    ASSERT_TRUE(want.ok());
    expected.push_back(want->answers);
  }

  ServeOptions options;
  options.threads = 2;
  options.preparers = 1;
  options.repeat = 4;
  int64_t pi_runs = 0;
  int64_t upgrades = 0;
  int64_t traffic_at_upgrade = 0;
  // Each round: one ServeParallel pass over the string items, then every
  // item through the warm face of the handle a string item interns now,
  // against the closure-always oracle. Stop four doublings after the
  // upgrade.
  for (int round = 0; round < 500; ++round) {
    const ServeReport report = ServeParallel(adaptive.get(), workload, options);
    ASSERT_EQ(report.errors, 0) << report.first_error.ToString();
    ASSERT_EQ(report.upgrade_failures, 0);
    pi_runs += report.pi_runs;
    upgrades += report.upgrades;
    auto probe = adaptive->Intern(kReach, data);
    ASSERT_TRUE(probe.ok());
    for (size_t i = 0; i < workload.size(); ++i) {
      BatchResult batch;
      auto warm = adaptive->TryAnswerWarm(*probe, workload[i].queries, &batch);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_TRUE(*warm) << "round " << round << " item " << i;
      ASSERT_EQ(batch.answers, expected[i]) << "round " << round;
    }
    const int64_t traffic = adaptive->cost_model().TrafficFor(fp);
    if (upgrades > 0 && traffic_at_upgrade == 0) traffic_at_upgrade = traffic;
    if (traffic_at_upgrade > 0 && traffic >= 16 * traffic_at_upgrade) break;
  }
  ASSERT_GT(traffic_at_upgrade, 0) << "the part never upgraded";
  EXPECT_FALSE(adaptive->HasPendingUpgrades());

  // One cold scan build, then exactly one upgrade build; no flip back.
  EXPECT_EQ(pi_runs, 2);
  EXPECT_EQ(upgrades, 1);
  EXPECT_EQ(adaptive->upgrades(), 1);
  EXPECT_EQ(adaptive->store().stats().misses, 2);
  EXPECT_EQ(adaptive->store().stats().locked_hits, 0);
  EXPECT_EQ(adaptive->cost_model().ChoiceFor(fp), 0);
  // A string item interned now lands on the closure.
  auto now = adaptive->Intern(kReach, data);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(KeyWitness(now->key), "incremental-closure");
}

// Two handles interned separately for one part have separate routes. When
// the second one's traffic queues an upgrade after the first one's already
// landed, the job is dropped (no second upgrade, no Π) and the lagging
// route is pointed at the upgraded entry.
TEST(CostModelEngineTest, StaleUpgradeJobMovesALaggingRoute) {
  const std::string data = ReachData(64, 256, 1234);
  auto adaptive = MakeReachEngine(/*adaptive=*/true);
  auto first = adaptive->Intern(kReach, data);
  auto second = adaptive->Intern(kReach, data);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(KeyWitness(second->current_key()), "edge-scan");

  Rng rng(7);
  for (int i = 0; i < 500 && adaptive->upgrades() == 0; ++i) {
    ASSERT_TRUE(adaptive->AnswerBatch(*first, ReachQueries(64, 8, &rng)).ok());
  }
  ASSERT_EQ(adaptive->upgrades(), 1);
  EXPECT_EQ(KeyWitness(first->current_key()), "incremental-closure");
  EXPECT_EQ(KeyWitness(second->current_key()), "edge-scan");

  for (int i = 0;
       i < 500 && KeyWitness(second->current_key()) == "edge-scan"; ++i) {
    ASSERT_TRUE(
        adaptive->AnswerBatch(*second, ReachQueries(64, 8, &rng)).ok());
  }
  EXPECT_EQ(KeyWitness(second->current_key()), "incremental-closure");
  EXPECT_EQ(adaptive->upgrades(), 1);
  EXPECT_EQ(adaptive->store().stats().misses, 2);  // scan Π, closure Π
}

TEST(CostModelEngineTest, WarmReadersRaceTheRouteSwap) {
  const std::string data = ReachData(64, 256, 1234);
  auto adaptive = MakeReachEngine(/*adaptive=*/true);
  auto reference = MakeReachEngine(/*adaptive=*/false);
  auto interned = adaptive->Intern(kReach, data);
  ASSERT_TRUE(interned.ok());
  const DataHandle handle = std::move(interned).value();
  ASSERT_TRUE(
      adaptive->Prepare(handle.problem, handle.data, handle.key).ok());

  Rng rng(99);
  std::vector<std::vector<std::string>> batches;
  std::vector<std::vector<bool>> expected;
  for (int i = 0; i < 8; ++i) {
    batches.push_back(ReachQueries(64, 8, &rng));
    auto want = reference->AnswerBatch(kReach, data, batches.back());
    ASSERT_TRUE(want.ok());
    expected.push_back(want->answers);
  }
  adaptive->store().ResetStats();

  // Three warm readers, as pipeline workers would be; this thread plays
  // the preparer and runs the upgrade their traffic queues.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> wrong{0};
  std::atomic<int64_t> cold{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = static_cast<size_t>(r); !stop.load(); ++i) {
        const size_t b = i % batches.size();
        BatchResult batch;
        auto warm = adaptive->TryAnswerWarm(handle, batches[b], &batch);
        if (!warm.ok() || !*warm) {
          cold.fetch_add(1);
        } else if (batch.answers != expected[b]) {
          wrong.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (adaptive->upgrades() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (!adaptive->RunPendingUpgrade().ran) std::this_thread::yield();
  }
  // Keep the readers going well past the swap.
  const int64_t after_swap = answered.load() + 3000;
  while (answered.load() < after_swap &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(adaptive->upgrades(), 1);
  EXPECT_EQ(KeyWitness(handle.current_key()), "incremental-closure");
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cold.load(), 0);
  const PreparedStore::Stats stats = adaptive->store().stats();
  EXPECT_EQ(stats.locked_hits, 0);
  EXPECT_EQ(stats.misses, 1);  // the upgrade build, nothing else
}

}  // namespace
}  // namespace engine
}  // namespace pitract
