// Benchmark-side measurement math: clocks, nearest-rank percentiles, the
// in-memory span log of the traced run (self time = duration minus the part
// of the interval its children cover), and the metric table printed as the
// final JSON line. Nothing here calls into the engine.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `values` (any order): the smallest sample x
/// such that at least q·n samples are <= x. q in (0, 1]; NaN when empty.
double NearestRank(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5);
}

/// Splits `values` (in time order) into consecutive equal slices and
/// returns the lower quartile (nearest rank) of the slices' nearest-rank
/// q-percentiles. On a shared machine, seconds-long stretches run slower
/// for reasons outside the program; the lower quartile follows the
/// undisturbed slices, which a faster program still moves. There are at
/// most `max_windows` slices, and few enough that each leaves at least ten
/// samples beyond its q-percentile; with one slice this is NearestRank.
double WindowedRank(const std::vector<double>& values, double q,
                    size_t max_windows);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// One recorded span: a named interval on the steady clock, the span that
/// caused it (-1 for a root) and the work item it belongs to (-1: a span
/// covering many items, such as a whole phase).
struct Span {
  int name = 0;  // index into the log's name table
  int parent = -1;
  int64_t item = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name totals over a span log.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// In-memory span recorder for the traced run. Not thread-safe: each
/// recording thread owns a log, merged into the main one after it joins. A
/// disabled log records nothing and Begin returns -1, so the untraced run
/// pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, size_t max_spans = 8'000'000)
      : enabled_(enabled), max_spans_(max_spans) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled or full).
  int Begin(std::string_view name, int parent = -1, int64_t item = -1);
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  /// Records an already-measured interval.
  int Add(std::string_view name, int parent, int64_t item, int64_t start_ns,
          int64_t end_ns);
  /// Appends every span of `other`, re-basing its parent ids.
  void Merge(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

  /// Self time of span `id`: its duration minus the union of its direct
  /// children's intervals clipped to it.
  int64_t SelfNs(size_t id) const;
  std::map<std::string, SpanTotals> Summarize() const;
  /// Checks that every child lies inside its parent's interval and carries
  /// its parent's item id (unless the parent spans many items). Empty
  /// string: well nested; otherwise the first violation.
  std::string CheckNesting() const;
  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int Intern(std::string_view name);
  std::vector<std::vector<size_t>> Children() const;

  bool enabled_;
  size_t max_spans_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int, std::less<>> name_ids_;
  int64_t dropped_ = 0;
};

/// Ordered metric table: name -> (value, unit). Printed as the final line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// `{"a": {"value": 1.5, "unit": "ms"}, ...}` with full precision.
  std::string ToJson() const;
  void PrintTable(std::FILE* out) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Self-check of the math above; returns the number of failed checks and
/// prints each failure to stderr.
int RunSelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
