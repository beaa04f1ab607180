// Generated data parts, queries and deltas, plus the benchmark's own shadow
// of every part's contents — the reference the answer oracle checks against.

#ifndef PERFBENCH_PARTS_H_
#define PERFBENCH_PARTS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/delta.h"

namespace perfbench {

/// The data shapes the workloads draw from; each is one registered problem.
enum class Shape { kMember, kGvp, kReach, kConn };
constexpr size_t kNumShapes = 4;

/// Registry name of the problem a shape is answered under.
const char* ProblemName(Shape shape);

inline bool Mutable(Shape shape) {
  return shape == Shape::kMember || shape == Shape::kReach;
}

/// One data part: its generated encoding and the shadow the benchmark keeps
/// itself. Member and reach parts change under deltas; their shadow (list
/// multiset / arc set) follows every delta the benchmark generates,
/// independently of the engine's re-encoding.
struct Part {
  Shape shape = Shape::kMember;
  int64_t n = 0;            // list length, gate count or node count
  int64_t query_range = 0;  // values, gate ids or node ids are below this
  std::string data;         // the generated encoding
  std::vector<int64_t> list;                   // member shadow
  int64_t universe = 0;                        // member values < universe
  std::set<std::pair<int32_t, int32_t>> arcs;  // reach shadow
};

Part MakePart(Shape shape, int64_t n, pitract::Rng* rng);

/// One query string against `part` in its problem's query encoding.
std::string MakeQuery(const Part& part, pitract::Rng* rng);

/// A delta batch of one to three ops against a member or reach part (list
/// insert / delete / update; arc insert / delete, each delete retracting a
/// present arc), applied to the part's shadow as it is generated, so a
/// sequence of batches is valid in order.
pitract::engine::DeltaBatch MakeDelta(Part* part, pitract::Rng* rng);

/// The data-part encoding rebuilt from the shadow (member, reach) or the
/// generated data (gvp, conn, which never change): what the reference
/// language is asked about.
std::string ShadowData(const Part& part);

}  // namespace perfbench

#endif  // PERFBENCH_PARTS_H_
