#ifndef PITRACT_ENGINE_COST_MODEL_H_
#define PITRACT_ENGINE_COST_MODEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pitract {
namespace engine {

/// Static per-witness cost descriptor: linear models in |D| bytes supplied
/// at registration, the prior the solver falls back on before any measured
/// traffic exists for a witness. Units are deterministic CostMeter ops (the
/// repo's machine-independent cost currency), not nanoseconds — the same
/// unit every witness hook already charges.
struct CostDescriptor {
  /// Π build cost: build_ops_base + build_ops_per_byte * |D|.
  /// A *negative* base is a legitimate two-point fit of a superlinear
  /// build (e.g. a transitive closure): the line matches the measured cost
  /// at the sizes that matter and the evaluators clamp at zero below the
  /// fit's root, so small parts read "build ≈ free" instead of nonsense.
  double build_ops_base = 1.0;
  double build_ops_per_byte = 1.0;
  /// Resident Π(D) footprint: bytes_base + bytes_per_byte * |D|.
  double bytes_base = 0.0;
  double bytes_per_byte = 1.0;
  /// Per-query answer cost: answer_ops_base + answer_ops_per_byte * |D|.
  /// A closure bitmap has per_byte ≈ 0 (O(1) probes); an edge-scan witness
  /// pays per_byte > 0 (probe cost grows with the part).
  double answer_ops_base = 1.0;
  double answer_ops_per_byte = 0.0;
  /// Per-delta-op patch cost (informational; patching stays O(|ΔD|)).
  double patch_ops_base = 1.0;

  double BuildOps(size_t data_bytes) const {
    return std::max(
        0.0,
        build_ops_base + build_ops_per_byte * static_cast<double>(data_bytes));
  }
  double Bytes(size_t data_bytes) const {
    return std::max(
        0.0, bytes_base + bytes_per_byte * static_cast<double>(data_bytes));
  }
  double AnswerOps(size_t data_bytes) const {
    return std::max(0.0, answer_ops_base + answer_ops_per_byte *
                                               static_cast<double>(data_bytes));
  }
};

/// Measured running totals for one witness alternative, accumulated from
/// the CostMeter charges the engine already takes on build / answer /
/// patch paths. All counters are relaxed atomics: they are advisory
/// telemetry feeding the solver, never synchronization.
class CostProfile {
 public:
  /// `resident_bytes` is what the store charged the built entry against
  /// its byte budget: payload estimate plus decoded view.
  void RecordBuild(size_t data_bytes, size_t resident_bytes, int64_t ops) {
    build_count_.fetch_add(1, std::memory_order_relaxed);
    build_ops_.fetch_add(ops, std::memory_order_relaxed);
    build_bytes_in_.fetch_add(static_cast<int64_t>(data_bytes),
                              std::memory_order_relaxed);
    build_bytes_out_.fetch_add(static_cast<int64_t>(resident_bytes),
                               std::memory_order_relaxed);
  }
  void RecordAnswer(int64_t queries, int64_t ops) {
    answer_queries_.fetch_add(queries, std::memory_order_relaxed);
    answer_ops_.fetch_add(ops, std::memory_order_relaxed);
  }
  void RecordPatch(int64_t ops) {
    patch_count_.fetch_add(1, std::memory_order_relaxed);
    patch_ops_.fetch_add(ops, std::memory_order_relaxed);
  }

  int64_t build_count() const {
    return build_count_.load(std::memory_order_relaxed);
  }
  int64_t answer_queries() const {
    return answer_queries_.load(std::memory_order_relaxed);
  }
  int64_t patch_count() const {
    return patch_count_.load(std::memory_order_relaxed);
  }

  /// Measured build ops per input byte (0 when nothing measured yet).
  double MeasuredBuildOpsPerByte() const {
    const int64_t in = build_bytes_in_.load(std::memory_order_relaxed);
    if (in <= 0) return 0.0;
    return static_cast<double>(build_ops_.load(std::memory_order_relaxed)) /
           static_cast<double>(in);
  }
  /// Measured resident bytes (payload plus view) per input byte.
  double MeasuredBytesPerByte() const {
    const int64_t in = build_bytes_in_.load(std::memory_order_relaxed);
    if (in <= 0) return 0.0;
    return static_cast<double>(
               build_bytes_out_.load(std::memory_order_relaxed)) /
           static_cast<double>(in);
  }
  /// Measured ops per answered query.
  double MeasuredAnswerOpsPerQuery() const {
    const int64_t q = answer_queries_.load(std::memory_order_relaxed);
    if (q <= 0) return 0.0;
    return static_cast<double>(answer_ops_.load(std::memory_order_relaxed)) /
           static_cast<double>(q);
  }

 private:
  std::atomic<int64_t> build_count_{0};
  std::atomic<int64_t> build_ops_{0};
  std::atomic<int64_t> build_bytes_in_{0};
  std::atomic<int64_t> build_bytes_out_{0};
  std::atomic<int64_t> answer_ops_{0};
  std::atomic<int64_t> answer_queries_{0};
  std::atomic<int64_t> patch_count_{0};
  std::atomic<int64_t> patch_ops_{0};
};

/// The witness-selection solver (PIMProf-CostSolver shape): enumerate the
/// registered alternatives for a problem against a blend of static
/// descriptors and measured CostProfiles, and pick the cheapest expected
/// total for this data part. A part is scored at admission (Intern, which
/// string-keyed batches go through, when no choice is cached) and again,
/// with the serving witness as incumbent, each time its traffic crosses a
/// doubling boundary; the published-snapshot hit path never scores.
///
/// Thread-safe: the per-part traffic and choice maps are guarded by one
/// mutex.
class CostModel {
 public:
  /// kPrimaryOnly (default) preserves the pre-adaptive behavior exactly:
  /// alternative 0 (the registered primary witness) is always chosen.
  /// kAdaptive turns the solver on. kForced pins every selection to one
  /// index (bench extremes: cheap-always / expensive-always).
  enum class Policy { kPrimaryOnly, kAdaptive, kForced };

  /// One enumerable choice for a (problem, data-part) site.
  struct Candidate {
    std::string_view name;                    // witness name (key component)
    const CostDescriptor* descriptor = nullptr;  // static prior (may be null)
    const CostProfile* profile = nullptr;        // measured totals (may be null)
    bool resident = false;  // Π already resident under this witness?
  };

  void SetPolicy(Policy policy) { policy_.store(policy, std::memory_order_relaxed); }
  Policy policy() const { return policy_.load(std::memory_order_relaxed); }
  /// Pins kForced selections to `index` (clamped per-site to the candidate
  /// count). Also switches the policy to kForced.
  void ForceWitness(int index);
  int forced_index() const { return forced_.load(std::memory_order_relaxed); }

  /// Picks the candidate index with the lowest expected total cost:
  ///   score_i = (resident ? 0 : build_est)
  ///           + expected_queries * answer_est
  ///           + byte_pressure * bytes_est / 4
  /// where each estimate blends the static descriptor with the measured
  /// profile averages once the profile has data. `byte_pressure` ∈ [0,1]
  /// is the store's budget-fullness; under pressure, byte-hungry witnesses
  /// are penalized. Hysteresis: when `incumbent` names a candidate (the
  /// witness a part is served from now), a challenger wins only if its
  /// score undercuts the incumbent's by more than kSwitchMargin, so a
  /// part near a crossover does not flip back and forth. Under
  /// kPrimaryOnly/kForced this reduces to the pinned index. Never returns
  /// out of range; returns 0 for an empty list only by convention
  /// (callers always pass ≥1 candidate).
  int Select(const std::vector<Candidate>& candidates, size_t data_bytes,
             uint64_t part_fingerprint, double byte_pressure,
             int incumbent = -1) const;

  /// Expected resident bytes of `candidate` for a |D| = data_bytes part:
  /// the descriptor's prior, blended with the bytes the store measured
  /// for the candidate's builds once it has any.
  static double ExpectedBytes(const Candidate& candidate, size_t data_bytes);

  /// Records `queries` answered against a data part. Returns true when the
  /// accumulated traffic crossed a power-of-two boundary at or above
  /// kReselectFloor: the engine's cue to score the part again against its
  /// serving witness and, when another candidate wins, queue a warm
  /// upgrade build for it (see QueryEngine::RunPendingUpgrade).
  bool NoteTraffic(uint64_t part_fingerprint, int64_t queries);

  /// Re-keys accumulated traffic across a delta (D → D ⊕ ΔD): the
  /// post-delta part inherits the pre-delta part's popularity, so one
  /// delta does not reset a hot part to cold.
  void CarryTraffic(uint64_t old_fingerprint, uint64_t new_fingerprint);

  int64_t TrafficFor(uint64_t part_fingerprint) const;

  /// Sticky per-part choice cache: the candidate index a part is served
  /// from, so Intern (and through it every string-keyed batch) and
  /// ApplyDelta reuse it without re-scoring. Set at first selection and
  /// switched only by a completed warm upgrade. -1 = no cached choice.
  int ChoiceFor(uint64_t part_fingerprint) const;
  void SetChoice(uint64_t part_fingerprint, int index);

  /// Minimum traffic before doubling triggers fire (avoids re-selecting on
  /// every one of the first few batches).
  static constexpr int64_t kReselectFloor = 32;
  /// Hysteresis of Select: the share of the incumbent's expected cost a
  /// challenger must save before a served part switches witness.
  static constexpr double kSwitchMargin = 0.25;
  /// Bound on tracked parts. Past it, the colder half (by traffic) is
  /// dropped together with its sticky choices.
  static constexpr size_t kMaxTrackedParts = 1 << 16;

 private:
  /// Expected queries for the next residency interval of this part: its
  /// recorded traffic when we have it, else the model-wide average, else a
  /// modest prior.
  double ExpectedQueries(uint64_t part_fingerprint) const;
  /// Drops the kMaxTrackedParts / 2 parts with the least traffic. Requires
  /// mutex_ held.
  void TrimColdest();

  std::atomic<Policy> policy_{Policy::kPrimaryOnly};
  std::atomic<int> forced_{0};

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, int64_t> traffic_;
  std::unordered_map<uint64_t, int> choice_;
  int64_t total_traffic_ = 0;
};

}  // namespace engine
}  // namespace pitract

#endif  // PITRACT_ENGINE_COST_MODEL_H_
