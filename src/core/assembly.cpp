#include "core/assembly.hpp"

#include <algorithm>

#include "core/scratch.hpp"

namespace msrp {
namespace {

/// Targets per tile. A tile's rows and path children stay in L1/L2 while
/// every landmark is applied to them, and for one landmark r the tile reads
/// T_r's arrays only around these targets.
constexpr Vertex kTileTargets = 64;

/// Everything the kernel needs about one landmark r of a level, precomputed
/// once per (source, target-range) call: the tree T_r, r's DFS stamps in T_s
/// (for the binary search of L_r), the canonical |sr|, and the raw
/// d(s, r, *) row.
struct LevelItem {
  const RootedTree* tree;        // T_r
  std::uint32_t tin_r, tout_r;   // r's stamps in T_s; tin_r == 0 never matches
  Dist dist_sr;                  // d(s, r); kInfDist if unreachable
  const Dist* row;               // dsr row (si, li), indexed by path position
};

/// One reachable target of the current tile.
struct TileTarget {
  Vertex t;
  Dist depth;               // d(s, t) >= 1
  std::uint32_t first_near; // positions [first_near, depth) are near
  Dist* row;                // t's result row, indexed by path position
  const Vertex* child;      // child[pos]: deeper endpoint of the edge at pos
};

/// clamp(L_r, lo, hi), L_r = depth_s(LCA_s(r, t)): the path children that
/// are T_s-ancestors of r form a prefix of t's path, found by binary search.
std::uint32_t prefix_len(const AncestorIndex& anc_s, const TileTarget& tt,
                         const LevelItem& it, std::uint32_t lo, std::uint32_t hi) {
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const Vertex c = tt.child[mid];
    if (anc_s.tin(c) <= it.tin_r && it.tout_r <= anc_s.tout(c)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The per-landmark row kernel (Algorithms 3 and 4): for pos in [lo, hi),
/// row[pos] = min(row[pos], d(s, r, e_pos) + drt), where d(s, r, e_pos) is
/// r's stored cell on [lo, split) and d(s, r) on [split, hi).
/// min(a, kInfDist - drt) + drt is sat_add(a, drt) for finite drt.
void relax_row(Dist* row, std::uint32_t lo, std::uint32_t split, std::uint32_t hi,
               const LevelItem& it, Dist drt) {
  const Dist cap = kInfDist - drt;
  const Dist* src = it.row;
  for (std::uint32_t pos = lo; pos < split; ++pos) {
    row[pos] = std::min(row[pos], std::min(src[pos], cap) + drt);
  }
  const Dist via_sr = std::min(it.dist_sr, cap) + drt;
  for (std::uint32_t pos = split; pos < hi; ++pos) row[pos] = std::min(row[pos], via_sr);
}

/// Algorithm 4's guard: returns the g in [lo, hi] such that, among t's path
/// edges at positions [lo, hi), exactly those at [g, hi) lie on T_r's
/// canonical rt path (hi is t's depth).
///
/// They form a suffix. Every tree here is a BFS over the same sorted
/// adjacency with first-discoverer parents, so a canonical root->v path is
/// the lexicographically first shortest one, and so is each of its
/// subpaths between its own endpoints. If path vertices c_i above c_q both
/// lie on T_r's path to t, T_r and T_s therefore both join them by that
/// same first subpath: T_r agrees with t's path on every edge in between.
/// So walking up from t while T_r gives each path vertex the same parent
/// edge as T_s finds every guarded edge, and the first disagreement ends it.
std::uint32_t guard_start(const BfsTree& tr, const BfsTree& ts, const TileTarget& tt,
                          std::uint32_t lo, std::uint32_t hi) {
  std::uint32_t pos = hi;
  while (pos > lo && tr.parent_edge(tt.child[pos - 1]) == ts.parent_edge(tt.child[pos - 1])) {
    --pos;
  }
  return pos;
}

}  // namespace

void assemble_source_rows(std::uint32_t si, const RootedTree& rs, const LevelSets& landmarks,
                          const TreePool& pool, const LandmarkRpTable& dsr,
                          const NearSmall& near_small, const Params& params,
                          MsrpResult& result, Vertex t_begin, Vertex t_end,
                          BuildScratch& scratch) {
  const BfsTree& ts = rs.tree;
  const std::uint32_t top = params.num_levels();

  // Hoist the per-landmark invariants out of the per-target loops. If r is
  // unreachable from s its row is empty and must never be read: tin_r = 0
  // can only match a child with tin 0, i.e. the root — which is never the
  // deeper endpoint of a path edge, so L_r = 0. (r == s lands on the same
  // sentinel and the same correct answer: no edge of the st path lies on the
  // empty ss path, so the candidate is dist_sr + drt = drt throughout.)
  std::vector<std::vector<LevelItem>> level_items(top + 1);
  for (std::uint32_t k = 0; k <= top; ++k) {
    level_items[k].reserve(landmarks.level(k).size());
    for (const Vertex r : landmarks.level(k)) {
      const bool reach = ts.reachable(r);
      const auto li = static_cast<std::uint32_t>(dsr.landmark_index(r));
      level_items[k].push_back(LevelItem{
          &pool.existing(r),
          reach ? rs.anc.tin(r) : 0,
          reach ? rs.anc.tout(r) : 0,
          ts.dist(r),
          dsr.row(si, li).data(),
      });
    }
  }

  std::vector<TileTarget> targets;
  for (Vertex t0 = t_begin; t0 < t_end; t0 += kTileTargets) {
    const Vertex t1 = std::min<Vertex>(t_end, t0 + kTileTargets);

    // The tile's reachable targets, their path children, and the Section
    // 7.1 values as the near cells' starting point.
    targets.clear();
    std::size_t cells = 0;
    bool any_far = false;
    for (Vertex t = t0; t < t1; ++t) {
      const Dist depth = ts.dist(t);
      if (depth == kInfDist || depth == 0) continue;
      targets.push_back({t, depth, near_small.first_near_pos(t),
                         result.mutable_row(si, t).data(), nullptr});
      cells += depth;
      any_far = any_far || targets.back().first_near > 0;
    }
    scratch.tile_paths.resize(cells);
    Vertex* child = scratch.tile_paths.data();
    for (TileTarget& tt : targets) {
      tt.child = child;
      Vertex v = tt.t;
      for (std::uint32_t pos = tt.depth; pos-- > 0;) {
        child[pos] = v;
        v = ts.parent(v);
      }
      child += tt.depth;
      for (std::uint32_t pos = tt.first_near; pos < tt.depth; ++pos) {
        tt.row[pos] = std::min(tt.row[pos], near_small.value(tt.t, pos));
      }
    }

    // ---- near edges: Algorithm 4 over L_0 -------------------------------
    // Landmark-major: d(r, t) for the tile's targets is one contiguous run
    // of T_r's distance array. Lemma 12's witness satisfies d(r, t) <= T.
    const Dist near_radius = params.near_threshold();
    for (const LevelItem& it : level_items[0]) {
      const BfsTree& tr = it.tree->tree;
      for (const TileTarget& tt : targets) {
        const Dist drt = tr.dist(tt.t);
        if (drt > near_radius) continue;
        const std::uint32_t hi = guard_start(tr, ts, tt, tt.first_near, tt.depth);
        const std::uint32_t split = prefix_len(rs.anc, tt, it, tt.first_near, hi);
        relax_row(tt.row, tt.first_near, split, hi, it, drt);
      }
    }

    // ---- far edges: Algorithm 3 over L_k, bucketed by distance from t ---
    // Edge at position pos has |et| = depth - pos - 1; bucket k covers
    // |et| in [2^{k+1} T, 2^{k+2} T), i.e. the far positions in
    // [depth - 2^{k+2} T, depth - 2^{k+1} T). The top bucket absorbs
    // everything beyond the sampled levels. No guard: d(r, t) <= 2^k T <
    // |et|, so no shortest rt path can cross e (Section 6).
    if (!any_far) continue;
    auto bucket_start = [&](std::uint32_t k, Dist depth) -> std::uint32_t {
      if (k == top) return 0;
      const std::uint64_t upper_et = std::uint64_t{4} * params.far_radius(k);
      return depth > upper_et ? static_cast<std::uint32_t>(depth - upper_et) : 0;
    };
    for (std::uint32_t k = 0; k <= top; ++k) {
      const Dist radius = params.far_radius(k);
      for (const LevelItem& it : level_items[k]) {
        const BfsTree& tr = it.tree->tree;
        for (const TileTarget& tt : targets) {
          const std::uint32_t lo = bucket_start(k, tt.depth);
          const std::uint32_t hi =
              k == 0 ? tt.first_near : std::min(tt.first_near, bucket_start(k - 1, tt.depth));
          if (lo >= hi) continue;
          const Dist drt = tr.dist(tt.t);
          if (drt > radius) continue;
          relax_row(tt.row, lo, prefix_len(rs.anc, tt, it, lo, hi), hi, it, drt);
        }
      }
    }
  }
}

}  // namespace msrp
