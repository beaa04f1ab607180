// Self-check of the benchmark's own math: nearest-rank percentiles, span
// self time (children subtracted as a clipped union, not a plain sum), span
// nesting, and log merging. Runs at the start of every benchmark
// invocation and on its own with `--selfcheck`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

int Expect(bool ok, const std::string& what) {
  if (!ok) std::fprintf(stderr, "selfcheck FAILED: %s\n", what.c_str());
  return ok ? 0 : 1;
}

int CheckPercentiles() {
  int failures = 0;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  failures += Expect(NearestRank(v, 0.50) == 50, "p50 of 1..100 is 50");
  failures += Expect(NearestRank(v, 0.99) == 99, "p99 of 1..100 is 99");
  failures += Expect(NearestRank(v, 1.00) == 100, "p100 of 1..100 is 100");
  failures += Expect(NearestRank(v, 0.001) == 1, "p0.1 of 1..100 is 1");
  failures += Expect(NearestRank({7}, 0.99) == 7, "p99 of one sample");
  failures += Expect(NearestRank({1, 2, 3, 4}, 0.5) == 2,
                     "nearest-rank median of four is the second");
  failures += Expect(NearestRank({5, 1, 3}, 0.5) == 3, "median of 5,1,3");
  failures += Expect(std::isnan(NearestRank({}, 0.5)), "empty gives NaN");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  failures += Expect(NearestRank(thousand, 0.99) == 990,
                     "p99 of 1..1000 leaves ten samples beyond it");
  failures += Expect(Mean({1, 2, 6}) == 3 && Mean({}) == 0, "mean");
  // 3000 samples of 1, with 100 of 1000 at the end of the middle third: the
  // plain p99 is 1000, but only the middle window's p99 is, so the lower
  // quartile over three windows is 1. 3000 samples leave 30 beyond p99:
  // three windows of ten, so a fourth is not used even when allowed.
  std::vector<double> stall(3000, 1.0);
  std::fill(stall.begin() + 1900, stall.begin() + 2000, 1000.0);
  failures += Expect(NearestRank(stall, 0.99) == 1000, "p99 with a stall");
  failures += Expect(WindowedRank(stall, 0.99, 3) == 1 &&
                         WindowedRank(stall, 0.99, 25) == 1,
                     "windowed p99 confines a stall to its window");
  failures += Expect(WindowedRank(stall, 0.99, 1) == 1000,
                     "one window is the plain percentile");
  // 2999 samples leave 29 beyond p99, too few for three windows of ten;
  // two windows: [0,1499) all 1, [1499,2999) with the stall; the lower
  // quartile of {1, 1000} is 1.
  std::vector<double> short_stall(stall.begin(), stall.end() - 1);
  failures += Expect(WindowedRank(short_stall, 0.99, 25) == 1,
                     "two windows when the samples allow only two");
  // Four windows of 40 samples, medians 10, 20, 30, 40: lower quartile 10.
  std::vector<double> rising;
  for (int w = 1; w <= 4; ++w) rising.insert(rising.end(), 40, 10.0 * w);
  failures += Expect(WindowedRank(rising, 0.5, 4) == 10,
                     "windowed rank is the windows' lower quartile");
  failures += Expect(WindowedRank({4, 1}, 1.0, 3) == 4,
                     "windowed rank falls back with too few samples");
  return failures;
}

int CheckSpans() {
  int failures = 0;
  SpanLog log(true);
  // parent [0,100] with children [10,30], [20,50] (overlapping) and
  // [90,120] (clipped to the parent): covered = [10,50] + [90,100] = 50.
  const int parent = log.Add("p", -1, 7, 0, 100);
  log.Add("a", parent, 7, 10, 30);
  log.Add("b", parent, 7, 20, 50);
  const int c = log.Add("c", parent, 7, 90, 120);
  log.Add("d", c, 7, 95, 100);  // grandchild: not subtracted from p
  failures += Expect(log.SelfNs(static_cast<size_t>(parent)) == 50,
                     "self time subtracts the clipped union of children");
  failures += Expect(log.SelfNs(static_cast<size_t>(c)) == 25,
                     "self time of a span with one child");
  const auto totals = log.Summarize();
  failures += Expect(totals.at("p").total_ns == 100 &&
                         totals.at("p").self_ns == 50 &&
                         totals.at("a").self_ns == 20,
                     "Summarize totals and self times");
  failures += Expect(!log.CheckNesting().empty(),
                     "a child past its parent's end is reported");

  SpanLog nested(true);
  const int root = nested.Add("root", -1, -1, 0, 100);
  const int mid = nested.Add("mid", root, 3, 10, 90);
  nested.Add("leaf", mid, 3, 20, 30);
  failures += Expect(nested.CheckNesting().empty(),
                     "well-nested spans pass, under an item-less root");
  nested.Add("stray", mid, 4, 40, 50);
  failures += Expect(!nested.CheckNesting().empty(),
                     "a child with another item id is reported");

  SpanLog merged(true);
  merged.Add("outer", -1, -1, 0, 10);
  merged.Merge(nested);
  failures += Expect(merged.spans().size() == 5 &&
                         merged.spans()[2].parent == 1 &&
                         merged.Summarize().at("mid").self_ns == 60,
                     "Merge re-bases parent ids");

  SpanLog off(false);
  failures += Expect(off.Begin("x") == -1 && off.spans().empty(),
                     "a disabled log records nothing");
  return failures;
}

}  // namespace

int RunSelfCheck() { return CheckPercentiles() + CheckSpans(); }

}  // namespace perfbench
