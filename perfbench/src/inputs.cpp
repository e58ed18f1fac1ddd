#include "inputs.hpp"

#include <deque>
#include <stdexcept>

namespace perfbench {

std::vector<Vertex> grid_sources(Vertex side, std::uint64_t seed) {
  // Fractions of the side length; no two points are mirror images of each
  // other, so all eight symmetries give distinct instances.
  const double pattern[4][2] = {{0.2, 0.35}, {0.5, 0.8}, {0.75, 0.15}, {0.85, 0.6}};
  const unsigned sym = static_cast<unsigned>(seed % 8);
  std::vector<Vertex> out;
  for (const auto& p : pattern) {
    Vertex r = static_cast<Vertex>(p[0] * (side - 1));
    Vertex c = static_cast<Vertex>(p[1] * (side - 1));
    if (sym & 4) std::swap(r, c);
    if (sym & 1) r = side - 1 - r;
    if (sym & 2) c = side - 1 - c;
    out.push_back(r * side + c);
  }
  return out;
}

namespace {

struct OnPath {
  Vertex s, t;
  std::vector<EdgeId> path;
};

/// A (source, target) pair whose canonical path has at least `min_edges`.
OnPath pick_pair(const msrp::service::Snapshot& snap, std::size_t min_edges, msrp::Rng& rng) {
  const auto& sources = snap.sources();
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const Vertex s = sources[rng.next_below(sources.size())];
    const auto t = static_cast<Vertex>(rng.next_below(snap.num_vertices()));
    auto path = snap.canonical_path(s, t);
    if (path.size() >= min_edges) return {s, t, std::move(path)};
  }
  throw std::runtime_error("no source-target pair with a long enough path");
}

}  // namespace

std::vector<msrp::service::Query> on_path_batch(const msrp::service::Snapshot& snap,
                                                std::size_t count, msrp::Rng& rng) {
  std::vector<msrp::service::Query> out(count);
  for (auto& q : out) {
    const OnPath p = pick_pair(snap, 1, rng);
    q = {p.s, p.t, p.path[rng.next_below(p.path.size())]};
  }
  return out;
}

TypedCycle typed_cycle(const msrp::service::Snapshot& snap, std::size_t pairs, msrp::Rng& rng) {
  TypedCycle c;
  for (std::size_t i = 0; i < pairs; ++i) {
    const OnPath p = pick_pair(snap, 2, rng);
    c.vitality.push_back({p.s, p.t, 3});
    c.vickrey.push_back({p.s, p.t});
    const auto a = static_cast<std::size_t>(rng.next_below(p.path.size()));
    std::vector<EdgeId> fails{p.path[a]};
    if (i == 0) fails.push_back(p.path[(a + 1 + rng.next_below(p.path.size() - 1)) % p.path.size()]);
    c.kfail.push_back({p.s, p.t, std::move(fails)});
  }
  return c;
}

namespace {

std::vector<Dist> bfs(const Graph& g, Vertex s, EdgeId skip) {
  std::vector<Dist> dist(g.num_vertices(), msrp::kInfDist);
  std::deque<Vertex> frontier{s};
  dist[s] = 0;
  while (!frontier.empty()) {
    const Vertex u = frontier.front();
    frontier.pop_front();
    for (const msrp::Arc& a : g.neighbors(u)) {
      if (a.edge == skip || dist[a.to] != msrp::kInfDist) continue;
      dist[a.to] = dist[u] + 1;
      frontier.push_back(a.to);
    }
  }
  return dist;
}

}  // namespace

Dist bfs_avoiding(const Graph& g, Vertex s, Vertex t, EdgeId e) { return bfs(g, s, e)[t]; }

std::vector<Dist> bfs_all(const Graph& g, Vertex s) { return bfs(g, s, msrp::kNoEdge); }

}  // namespace perfbench
