#include "engine/cost_model.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace pitract {
namespace engine {

namespace {

/// Blend a static prior with a measured average: before any measurement
/// the prior stands alone; once the profile has data the two are averaged
/// so one outlier build cannot swamp the registration-time model, while a
/// consistently mispriced descriptor is still pulled halfway to reality.
double Blend(double prior, double measured, bool have_measured) {
  if (!have_measured) return prior;
  return 0.5 * prior + 0.5 * measured;
}

}  // namespace

void CostModel::ForceWitness(int index) {
  forced_.store(index < 0 ? 0 : index, std::memory_order_relaxed);
  policy_.store(Policy::kForced, std::memory_order_relaxed);
}

int CostModel::Select(const std::vector<Candidate>& candidates,
                      size_t data_bytes, uint64_t part_fingerprint,
                      double byte_pressure, int incumbent) const {
  if (candidates.empty()) return 0;
  const Policy policy = policy_.load(std::memory_order_relaxed);
  if (policy == Policy::kPrimaryOnly) return 0;
  if (policy == Policy::kForced) {
    const int forced = forced_.load(std::memory_order_relaxed);
    return std::min<int>(forced, static_cast<int>(candidates.size()) - 1);
  }

  const double expected_q = ExpectedQueries(part_fingerprint);
  const double pressure = std::clamp(byte_pressure, 0.0, 1.0);

  int best = 0;
  double best_score = 0.0;
  double incumbent_score = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    CostDescriptor fallback;
    const CostDescriptor& d = c.descriptor != nullptr ? *c.descriptor
                                                      : fallback;
    double build = d.BuildOps(data_bytes);
    double answer = d.AnswerOps(data_bytes);
    const double bytes = ExpectedBytes(c, data_bytes);
    if (c.profile != nullptr) {
      if (c.profile->build_count() > 0) {
        build = Blend(build,
                      c.profile->MeasuredBuildOpsPerByte() *
                          static_cast<double>(data_bytes),
                      true);
      }
      if (c.profile->answer_queries() > 0) {
        answer = Blend(answer, c.profile->MeasuredAnswerOpsPerQuery(), true);
      }
    }
    const double score = (c.resident ? 0.0 : build) + expected_q * answer +
                         pressure * bytes * 0.25;
    if (static_cast<int>(i) == incumbent) incumbent_score = score;
    if (i == 0 || score < best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  if (incumbent >= 0 && incumbent < static_cast<int>(candidates.size()) &&
      best != incumbent &&
      best_score >= (1.0 - kSwitchMargin) * incumbent_score) {
    return incumbent;
  }
  return best;
}

double CostModel::ExpectedBytes(const Candidate& candidate,
                                size_t data_bytes) {
  const double prior = candidate.descriptor != nullptr
                           ? candidate.descriptor->Bytes(data_bytes)
                           : CostDescriptor().Bytes(data_bytes);
  const bool measured =
      candidate.profile != nullptr && candidate.profile->build_count() > 0;
  return Blend(prior,
               measured ? candidate.profile->MeasuredBytesPerByte() *
                              static_cast<double>(data_bytes)
                        : 0.0,
               measured);
}

void CostModel::TrimColdest() {
  // One nth_element partitions the tracked parts around the median
  // traffic; the lower half goes. A trim runs once per kMaxTrackedParts / 2
  // new parts, so its O(kMaxTrackedParts) cost is amortized O(1).
  std::vector<std::pair<int64_t, uint64_t>> by_traffic;
  by_traffic.reserve(traffic_.size());
  for (const auto& [fp, count] : traffic_) by_traffic.emplace_back(count, fp);
  const auto cut =
      by_traffic.begin() + static_cast<std::ptrdiff_t>(kMaxTrackedParts / 2);
  std::nth_element(by_traffic.begin(), cut, by_traffic.end());
  for (auto it = by_traffic.begin(); it != cut; ++it) {
    total_traffic_ -= it->first;
    traffic_.erase(it->second);
    choice_.erase(it->second);
  }
}

bool CostModel::NoteTraffic(uint64_t part_fingerprint, int64_t queries) {
  if (queries <= 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = traffic_.find(part_fingerprint);
  if (it == traffic_.end()) {
    // Bounded tracking: make room before inserting, so the trim can never
    // drop the part being counted.
    if (traffic_.size() >= kMaxTrackedParts) TrimColdest();
    it = traffic_.emplace(part_fingerprint, 0).first;
  }
  int64_t& bucket = it->second;
  const int64_t before = bucket;
  bucket += queries;
  total_traffic_ += queries;
  // Power-of-two doubling trigger: fire when the running total crosses
  // kReselectFloor, 2×, 4×, ... — O(log traffic) re-selections per part.
  for (int64_t boundary = kReselectFloor; boundary <= bucket; boundary <<= 1) {
    if (before < boundary) return true;
    if (boundary > (INT64_MAX >> 1)) break;
  }
  return false;
}

void CostModel::CarryTraffic(uint64_t old_fingerprint,
                             uint64_t new_fingerprint) {
  if (old_fingerprint == new_fingerprint) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = traffic_.find(old_fingerprint);
  if (it == traffic_.end()) return;
  const int64_t carried = it->second;
  traffic_.erase(it);
  traffic_[new_fingerprint] += carried;
  auto ch = choice_.find(old_fingerprint);
  if (ch != choice_.end()) {
    choice_[new_fingerprint] = ch->second;
    choice_.erase(ch);
  }
}

int64_t CostModel::TrafficFor(uint64_t part_fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = traffic_.find(part_fingerprint);
  return it == traffic_.end() ? 0 : it->second;
}

int CostModel::ChoiceFor(uint64_t part_fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = choice_.find(part_fingerprint);
  return it == choice_.end() ? -1 : it->second;
}

void CostModel::SetChoice(uint64_t part_fingerprint, int index) {
  std::lock_guard<std::mutex> lock(mutex_);
  choice_[part_fingerprint] = index;
}

double CostModel::ExpectedQueries(uint64_t part_fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = traffic_.find(part_fingerprint);
  if (it != traffic_.end() && it->second > 0) {
    return static_cast<double>(it->second);
  }
  // Unseen part: a deliberately *modest* prior, capped by the model-wide
  // average (ski-rental shape). Starting on the cheap-build side costs at
  // most a bounded answer overhead before the doubling trigger upgrades a
  // part that turns hot; starting on the expensive side risks an
  // unamortized build on every cold part — under skewed traffic the
  // global average is inflated by the head and would do exactly that.
  if (!traffic_.empty() && total_traffic_ > 0) {
    return std::min(16.0, static_cast<double>(total_traffic_) /
                              static_cast<double>(traffic_.size()));
  }
  return 16.0;
}

}  // namespace engine
}  // namespace pitract
