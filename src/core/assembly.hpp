// Sections 6 and 7: assembling the final replacement rows for one source.
//
// Given the preprocessing products — the landmark hierarchy with its BFS
// trees, the d(s, r, e) table, and the Section 7.1 near-small values — this
// fills d(s, t, e) for every edge e on every target's canonical st path:
//
//   * near edges (|et| < 2T): the Section 7.1 Dijkstra value (exact for
//     small paths by Lemma 10, an upper bound otherwise), then Algorithm 4
//     over the L_0 members r with d(r, t) <= T, skipping the edges on the
//     canonical rt path (Lemmas 11–13);
//   * far edges, bucket k (Algorithm 3): the L_k members r with
//     d(r, t) <= 2^k T. No guard is needed: such an rt path is shorter than
//     |et| and cannot cross e.
//
// Both candidate classes run one per-landmark row kernel. For a candidate r
// the value d(s, r, e) + d(r, t) splits the positions of t's row in two:
// e lies on the canonical sr path exactly for pos < L_r = depth_s(LCA_s(r, t)),
// where d(s, r, e) is the stored row cell; past L_r, e avoids the sr path and
// d(s, r, e) = d(s, r). So the kernel is an elementwise min against a prefix
// of r's row plus a constant min over the suffix — two branch-free loops.
// The Algorithm 4 guard only shortens the range: the edges of t's path that
// lie on T_r's canonical rt path are a suffix of it, the run up from t where
// T_r gives each path vertex T_s's parent edge, so the kernel stops where
// that run begins.
//
// Targets are assembled in tiles of 64, landmark-major: for one landmark r,
// d(r, t) over the tile is a contiguous run of T_r's distance array, r's row
// stays in L1 across the tile's targets, and the guard reads T_r only around
// the tile. Each cell is a min over a fixed candidate set, so the order
// candidates are applied in does not change the rows.
//
// Every candidate is the length of a genuine e-avoiding path, so the
// assembled row is always an upper bound on the truth and equals it whp.
//
// At the default constants (near_scale = 2) the near span 2T is at least the
// diameter of the benchmark graphs (70x70 grid: 2T = 140 > 138; ER
// n = 8192: 2T = 182 against a diameter of about 6), so every edge is near
// and the Algorithm 4 loop is the whole phase.
#pragma once

#include "core/config.hpp"
#include "core/landmark_rp.hpp"
#include "core/landmarks.hpp"
#include "core/near_small.hpp"
#include "core/result.hpp"

namespace msrp {

struct BuildScratch;  // core/scratch.hpp

/// Fills result rows for source index `si`, targets [t_begin, t_end), from
/// all three candidate classes. Each target's row is independent, so the
/// engine splits a source's targets into chunks and assembles them in
/// parallel — any chunking produces the same rows. `scratch` is the calling
/// thread's arena; assembly keeps its tile of canonical paths there.
void assemble_source_rows(std::uint32_t si, const RootedTree& rs, const LevelSets& landmarks,
                          const TreePool& pool, const LandmarkRpTable& dsr,
                          const NearSmall& near_small, const Params& params,
                          MsrpResult& result, Vertex t_begin, Vertex t_end,
                          BuildScratch& scratch);

}  // namespace msrp
