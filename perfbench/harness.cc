#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <limits>

namespace perfbench {

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double WindowedRank(const std::vector<double>& values, double q,
                    size_t max_windows) {
  const auto beyond = static_cast<size_t>(
      static_cast<double>(values.size()) * (1.0 - q) / 10.0);
  const size_t windows = std::min(max_windows, beyond);
  if (windows <= 1) return NearestRank(values, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = values.size() * w / windows;
    const size_t end = values.size() * (w + 1) / windows;
    per_window.push_back(NearestRank(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(end)),
        q));
  }
  return NearestRank(std::move(per_window), 0.25);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int SpanLog::Intern(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

int SpanLog::Begin(std::string_view name, int parent, int64_t item) {
  const int64_t now = NowNs();
  return Add(name, parent, item, now, now);
}

int SpanLog::Add(std::string_view name, int parent, int64_t item,
                 int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.item = item;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Merge(const SpanLog& other) {
  if (!enabled_) return;
  const int base = static_cast<int>(spans_.size());
  for (const Span& s : other.spans_) {
    Add(other.names_[static_cast<size_t>(s.name)],
        s.parent < 0 ? -1 : s.parent + base, s.item, s.start_ns, s.end_ns);
  }
  dropped_ += other.dropped_;
}

std::vector<std::vector<size_t>> SpanLog::Children() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans_.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  return children;
}

namespace {

/// Length of the union of `intervals`, each clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  for (auto& [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_s = 0;
  int64_t cur_e = std::numeric_limits<int64_t>::min();
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (s > cur_e) {
      if (cur_e > cur_s) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) covered += cur_e - cur_s;
  return covered;
}

int64_t SelfOf(const std::vector<Span>& spans,
               const std::vector<size_t>& children, size_t id) {
  const Span& span = spans[id];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (size_t c : children) {
    intervals.emplace_back(spans[c].start_ns, spans[c].end_ns);
  }
  return (span.end_ns - span.start_ns) -
         CoveredNs(std::move(intervals), span.start_ns, span.end_ns);
}

}  // namespace

int64_t SpanLog::SelfNs(size_t id) const {
  const auto children = Children();
  return SelfOf(spans_, children[id], id);
}

std::map<std::string, SpanTotals> SpanLog::Summarize() const {
  const auto children = Children();
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[names_[static_cast<size_t>(spans_[i].name)]];
    ++t.count;
    t.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    t.self_ns += SelfOf(spans_, children[i], i);
  }
  return totals;
}

std::string SpanLog::CheckNesting() const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string what =
        "span " + std::to_string(i) + " (" +
        names_[static_cast<size_t>(s.name)] + ")";
    if (s.end_ns < s.start_ns) return what + " ends before it starts";
    if (s.parent < 0) continue;
    if (static_cast<size_t>(s.parent) >= i) {
      return what + " names a later parent";
    }
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return what + " escapes its parent " +
             names_[static_cast<size_t>(p.name)];
    }
    if (p.item >= 0 && s.item != p.item) {
      return what + " carries another item id than its parent";
    }
  }
  return "";
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"item\":%" PRId64
                 ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                 i, names_[static_cast<size_t>(s.name)].c_str(), s.parent,
                 s.item, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, entry] : values_) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  return out + "}";
}

void Metrics::PrintTable(std::FILE* out) const {
  for (const auto& [name, entry] : values_) {
    std::fprintf(out, "  %-46s %16.6g %s\n", name.c_str(), entry.first,
                 entry.second.c_str());
  }
}

}  // namespace perfbench
