// E03 — Section 4(2): searching in an unordered list.
//
// Paper claim: sort M once in O(|M| log |M|) as preprocessing; then every
// membership query answers by binary search in O(log |M|). Expected shape:
// scan grows linearly, binary search stays logarithmic.

#include "bench_util.h"
#include "common/rng.h"
#include "engine/builtins.h"
#include "engine/engine.h"
#include "index/sorted_column.h"
#include "storage/generator.h"

namespace {

using pitract::CostMeter;
using pitract::Rng;

std::vector<int64_t> MakeList(int64_t n) {
  Rng rng(42);
  return pitract::storage::GenerateList(n, 2 * n, &rng);
}

void BM_LinearScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto list = MakeList(n);
  Rng rng(7);
  CostMeter meter;
  for (auto _ : state) {
    int64_t needle =
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(2 * n)));
    bool found = false;
    int64_t touched = 0;
    for (int64_t v : list) {
      ++touched;
      if (v == needle) {
        found = true;
        break;
      }
    }
    meter.AddSerial(touched);
    benchmark::DoNotOptimize(found);
  }
  state.counters["model_work_per_query"] =
      static_cast<double>(meter.work()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_LinearScan)->RangeMultiplier(4)->Range(1 << 14, 1 << 22);

void BM_BinarySearch(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto list = MakeList(n);
  auto sorted = pitract::index::SortedColumn::Build(
      {list.data(), list.size()}, nullptr);
  Rng rng(7);
  CostMeter meter;
  for (auto _ : state) {
    int64_t needle =
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(2 * n)));
    benchmark::DoNotOptimize(sorted.Contains(needle, &meter));
  }
  state.counters["model_work_per_query"] =
      static_cast<double>(meter.work()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BinarySearch)->RangeMultiplier(4)->Range(1 << 14, 1 << 22);

void BM_Preprocess_Sort(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto list = MakeList(n);
  for (auto _ : state) {
    CostMeter meter;
    auto sorted = pitract::index::SortedColumn::Build(
        {list.data(), list.size()}, &meter);
    benchmark::DoNotOptimize(sorted.size());
  }
}
BENCHMARK(BM_Preprocess_Sort)->RangeMultiplier(16)->Range(1 << 14, 1 << 22);

void BM_EngineTypedBatch(benchmark::State& state) {
  // The same workload through the case the engine registers as
  // list-membership: MakeCase, Generate and Preprocess (Π) once, then each
  // iteration answers the case's whole query batch from the prepared
  // structure (pi_runs_total stays 1).
  pitract::engine::QueryEngine engine;
  if (!pitract::engine::RegisterBuiltins(&engine).ok()) {
    state.SkipWithError("RegisterBuiltins failed");
    return;
  }
  auto instance = engine.MakeCase("list-membership");
  if (!instance.ok() || !(*instance)->Generate(state.range(0), 1).ok() ||
      !(*instance)->Preprocess(nullptr).ok()) {
    state.SkipWithError("list-membership case setup failed");
    return;
  }
  int64_t queries = 0;
  std::vector<bool> answers(static_cast<size_t>((*instance)->num_queries()));
  for (auto _ : state) {
    for (int qi = 0; qi < (*instance)->num_queries(); ++qi) {
      auto answer = (*instance)->AnswerPrepared(qi, nullptr);
      if (!answer.ok()) {
        state.SkipWithError("AnswerPrepared failed");
        return;
      }
      answers[static_cast<size_t>(qi)] = *answer;
    }
    queries += static_cast<int64_t>(answers.size());
    benchmark::DoNotOptimize(answers);
  }
  state.counters["pi_runs_total"] = 1;  // the one Preprocess above
  state.counters["queries_answered"] = static_cast<double>(queries);
}
BENCHMARK(BM_EngineTypedBatch)->RangeMultiplier(16)->Range(1 << 14, 1 << 22);

}  // namespace

PITRACT_BENCH_MAIN_JSON(
    "e03_list_search",
    "E03 | Section 4(2): list membership. Expected shape: scan ~ n,\n"
    "      binary search ~ log n after an O(n log n) one-time sort.")
