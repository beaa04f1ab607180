#include "parts.h"

#include <iterator>

#include "circuit/generators.h"
#include "core/problems.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace perfbench {

namespace core = pitract::core;
namespace engine = pitract::engine;
namespace graph = pitract::graph;
using pitract::Rng;

const char* ProblemName(Shape shape) {
  switch (shape) {
    case Shape::kMember:
      return "list-membership";
    case Shape::kGvp:
      return "cvp-refactorized";
    case Shape::kReach:
      return "graph-reachability";
    case Shape::kConn:
      return "connectivity";
  }
  return "";
}

namespace {

std::string MemberData(const Part& part) {
  return core::MemberFactorization()
      .pi1(core::MakeMemberInstance(part.universe, part.list, 0))
      .value();
}

std::string ReachData(const Part& part) {
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> arcs(
      part.arcs.begin(), part.arcs.end());
  auto g = graph::Graph::FromEdges(static_cast<graph::NodeId>(part.n), arcs,
                                   /*directed=*/true)
               .value();
  return core::ReachFactorization()
      .pi1(core::MakeReachInstance(g, 0, 0))
      .value();
}

}  // namespace

Part MakePart(Shape shape, int64_t n, Rng* rng) {
  Part part;
  part.shape = shape;
  part.n = n;
  switch (shape) {
    case Shape::kMember: {
      part.universe = 2 * n;
      part.query_range = part.universe;
      part.list.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        part.list.push_back(static_cast<int64_t>(
            rng->NextBelow(static_cast<uint64_t>(part.universe))));
      }
      part.data = MemberData(part);
      break;
    }
    case Shape::kGvp: {
      pitract::circuit::CircuitGenOptions options;
      options.num_inputs = 16;
      options.num_gates = static_cast<int32_t>(n);
      const auto instance = pitract::circuit::RandomCvpInstance(options, rng);
      part.query_range = instance.circuit.num_gates();
      part.data = core::GvpFactorization()
                      .pi1(core::MakeGvpInstance(instance, 0))
                      .value();
      break;
    }
    case Shape::kReach: {
      const auto g = graph::ErdosRenyi(static_cast<graph::NodeId>(n), 2 * n,
                                       /*directed=*/true, rng);
      for (const auto& arc : g.Edges()) part.arcs.insert(arc);
      part.query_range = n;
      part.data = core::ReachFactorization()
                      .pi1(core::MakeReachInstance(g, 0, 0))
                      .value();
      break;
    }
    case Shape::kConn: {
      const auto g = graph::ErdosRenyi(static_cast<graph::NodeId>(n), 2 * n,
                                       /*directed=*/false, rng);
      part.query_range = n;
      part.data = core::ConnFactorization()
                      .pi1(core::MakeConnInstance(g, 0, 0))
                      .value();
      break;
    }
  }
  return part;
}

std::string MakeQuery(const Part& part, Rng* rng) {
  const auto range = static_cast<uint64_t>(part.query_range);
  if (part.shape == Shape::kMember || part.shape == Shape::kGvp) {
    return std::to_string(rng->NextBelow(range));
  }
  const uint64_t u = rng->NextBelow(range);
  return std::to_string(u) + "#" + std::to_string(rng->NextBelow(range));
}

engine::DeltaBatch MakeDelta(Part* part, Rng* rng) {
  using Kind = engine::DeltaOp::Kind;
  engine::DeltaBatch batch;
  const int ops = 1 + static_cast<int>(rng->NextBelow(3));
  for (int i = 0; i < ops; ++i) {
    engine::DeltaOp op;
    if (part->shape == Shape::kMember) {
      const auto universe = static_cast<uint64_t>(part->universe);
      const uint64_t roll = rng->NextBelow(10);
      if (roll < 4 || part->list.empty()) {
        op.kind = Kind::kListInsert;
        op.a = static_cast<int64_t>(rng->NextBelow(universe));
        part->list.push_back(op.a);
      } else {
        const auto at = static_cast<size_t>(rng->NextBelow(part->list.size()));
        op.a = part->list[at];
        if (roll < 7) {
          op.kind = Kind::kListDelete;
          part->list[at] = part->list.back();
          part->list.pop_back();
        } else {
          op.kind = Kind::kValueUpdate;
          op.b = static_cast<int64_t>(rng->NextBelow(universe));
          part->list[at] = op.b;
        }
      }
    } else {
      const auto n = static_cast<uint64_t>(part->n);
      if (rng->NextBelow(10) < 4 && !part->arcs.empty()) {
        auto it = std::next(part->arcs.begin(),
                            static_cast<std::ptrdiff_t>(
                                rng->NextBelow(part->arcs.size())));
        op.kind = Kind::kEdgeDelete;
        op.a = it->first;
        op.b = it->second;
        part->arcs.erase(it);
      } else {
        const auto u = static_cast<int32_t>(rng->NextBelow(n));
        auto v = static_cast<int32_t>(rng->NextBelow(n - 1));
        if (v >= u) ++v;  // no self-loops
        op.kind = Kind::kEdgeInsert;
        op.a = u;
        op.b = v;
        part->arcs.insert({u, v});
      }
    }
    batch.ops.push_back(op);
  }
  return batch;
}

std::string ShadowData(const Part& part) {
  switch (part.shape) {
    case Shape::kMember:
      return MemberData(part);
    case Shape::kReach:
      return ReachData(part);
    default:
      return part.data;
  }
}

}  // namespace perfbench
