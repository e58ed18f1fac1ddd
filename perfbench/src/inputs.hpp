// Seeded workload inputs and the benchmark's own answer referee.
//
// The seed drives the graph (build-er), the sources and every query stream,
// but the grid workloads keep their work constant across seeds: their
// sources are a seed-chosen mirror image of one fixed pattern, so every
// seed solves an isomorphic instance. Random source placement on a grid
// would move the build time by tens of percent between seeds (a corner
// source has twice the path mass of a central one).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "service/workloads.hpp"
#include "util/rng.hpp"

namespace perfbench {

using msrp::Dist;
using msrp::EdgeId;
using msrp::Graph;
using msrp::Vertex;

/// Four sources on a side x side grid: a fixed asymmetric pattern mapped
/// through one of the square's eight symmetries, chosen by the seed.
std::vector<Vertex> grid_sources(Vertex side, std::uint64_t seed);

/// `count` point queries whose failed edge lies on the canonical s->t path,
/// so every answer is a replacement-table read (a uniformly random edge
/// would miss the path almost always and take the off-path shortcut).
std::vector<msrp::service::Query> on_path_batch(const msrp::service::Snapshot& snap,
                                                std::size_t count, msrp::Rng& rng);

/// One "resilience report" request: the same (s, t) pairs asked as a top-3
/// VITALITY batch, a VICKREY batch, and a KFAIL batch failing one path
/// edge each, except pair 0, which fails two path edges (the ftsub BFS).
struct TypedCycle {
  std::vector<msrp::service::VitalityQuery> vitality;
  std::vector<msrp::service::VickreyQuery> vickrey;
  std::vector<msrp::service::KFailQuery> kfail;
};
TypedCycle typed_cycle(const msrp::service::Snapshot& snap, std::size_t pairs, msrp::Rng& rng);

/// d(s, t) in G - e by plain BFS; kInfDist when t is cut off. The
/// benchmark's referee, independent of every library code path.
Dist bfs_avoiding(const Graph& g, Vertex s, Vertex t, EdgeId e);

/// All BFS distances from s in G.
std::vector<Dist> bfs_all(const Graph& g, Vertex s);

}  // namespace perfbench
