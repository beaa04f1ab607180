// Quickstart: the Example 1 story end to end, driven through the engine.
//
// Answers point-selection queries by (a) the naive linear-scan baseline and
// (b) the Π-tractable route — PTIME B+-tree preprocessing followed by
// O(log |D|) probes — on the case the engine's registry hands out, and
// prints both the measured cost-model numbers and the paper's PB-scale
// arithmetic ("1.9 days vs seconds"). Π runs once; a second answer pass
// over the same prepared structure shows "prepare once, answer many".
//
// Run:  ./build/quickstart [num_rows]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/cost_meter.h"
#include "common/timer.h"
#include "core/query_class.h"
#include "engine/builtins.h"
#include "engine/engine.h"

namespace {

using pitract::CostMeter;
using pitract::Timer;

void PrintPaperArithmetic() {
  // The paper's own model: a 1 PB relation scanned at 6 GB/s versus
  // O(log |D|) page probes.
  const double petabyte = 1e15;
  const double scan_seconds = petabyte / 6e9;
  std::printf("Paper model: scanning 1 PB at 6 GB/s = %.0f s (%.1f hours, %.1f days)\n",
              scan_seconds, scan_seconds / 3600, scan_seconds / 86400);
  std::printf("             a B+-tree probe touches ~log(|D|) pages: seconds, not days\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t num_rows = argc > 1 ? std::atoll(argv[1]) : (1 << 20);
  if (num_rows <= 0) {
    std::fprintf(stderr, "usage: quickstart [num_rows > 0]\n");
    return 2;
  }
  const uint64_t kSeed = 42;
  std::printf("== pitract quickstart: point selection with preprocessing ==\n\n");
  PrintPaperArithmetic();

  auto& engine = pitract::engine::DefaultEngine();

  // 1. The baseline: the registered case answered from the raw data.
  auto point_case = engine.MakeCase("point-selection");
  if (!point_case.ok() || !(*point_case)->Generate(num_rows, kSeed).ok()) {
    std::fprintf(stderr, "case setup failed\n");
    return 1;
  }
  pitract::core::QueryClassCase& instance = **point_case;
  const int num_queries = instance.num_queries();
  std::vector<bool> expected;
  CostMeter scan_cost;
  Timer scan_timer;
  for (int qi = 0; qi < num_queries; ++qi) {
    auto answer = instance.AnswerBaseline(qi, &scan_cost);
    if (!answer.ok()) return 1;
    expected.push_back(*answer);
  }
  const double scan_ms = scan_timer.ElapsedMillis();

  // 2. Π once: build the B+-tree (PTIME, one-time).
  CostMeter prepare_cost;
  if (!instance.Preprocess(&prepare_cost).ok()) {
    std::fprintf(stderr, "Pi failed\n");
    return 1;
  }

  // 3. Answer many: two passes of probes over the one prepared structure,
  // each checked against the baseline.
  CostMeter answer_cost[2];
  double answer_ms[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    Timer pass_timer;
    for (int qi = 0; qi < num_queries; ++qi) {
      auto answer = instance.AnswerPrepared(qi, &answer_cost[pass]);
      if (!answer.ok() || *answer != expected[static_cast<size_t>(qi)]) {
        std::fprintf(stderr, "pass %d query %d disagrees with the scan\n",
                     pass, qi);
        return 1;
      }
    }
    answer_ms[pass] = pass_timer.ElapsedMillis();
  }
  std::printf("D: %" PRId64 " rows; %d queries per pass\n\n", num_rows,
              num_queries);

  std::printf("%d queries, no preprocessing (linear scan):\n", num_queries);
  std::printf("  cost-model work  = %" PRId64 " ops\n", scan_cost.work());
  std::printf("  bytes touched    = %.1f MB, wall time = %.2f ms\n\n",
              static_cast<double>(scan_cost.bytes_read()) / 1e6, scan_ms);

  std::printf("%d queries after preprocessing (Pi once, then B+-tree "
              "probes):\n",
              num_queries);
  std::printf("  Pi(D) work       = %" PRId64 " ops (ran 1 time)\n",
              prepare_cost.work());
  for (int pass = 0; pass < 2; ++pass) {
    std::printf("  answer pass %d    = %" PRId64 " ops, wall time = %.3f ms\n",
                pass + 1, answer_cost[pass].work(), answer_ms[pass]);
  }
  std::printf("  both passes match the scan; Pi ran once — prepare once, "
              "answer many\n\n");

  const double speedup =
      static_cast<double>(scan_cost.work()) /
      static_cast<double>(answer_cost[0].work() ? answer_cost[0].work() : 1);
  std::printf("per-query work speedup after preprocessing: %.0fx — the class "
              "Q1 is Pi-tractable (Definition 1).\n",
              speedup);
  return 0;
}
