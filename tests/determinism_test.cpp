// The parallel build contract: solve_msrp with threads = 2/4/8 is
// BIT-IDENTICAL to the sequential build — same canonical trees (dists,
// parents, parent edges), same replacement rows, same snapshot bytes. The
// solver's parallel loops only ever write item-private state, so the
// dynamic work distribution cannot leak into the output; this suite is the
// executable form of that argument (and the TSan target for the build's
// concurrency). Sharing one external pool across solves must not change
// results either — that is how QueryService runs cold builds.
//
// GoldenDigest pins the snapshot content digests of four fixed instances
// to values recorded before the assembly phase was rebuilt around its
// per-landmark row kernel: any rewrite of the build must reproduce the old
// rows bit for bit, not merely agree with itself across thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "service/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace msrp {
namespace {

Graph random_instance(Rng& rng) {
  const Vertex n = static_cast<Vertex>(8 + rng.next_below(40));
  const double p = 0.05 + 0.4 * rng.next_double();
  switch (rng.next_below(4)) {
    case 0: return gen::connected_gnp(n, p, rng);
    case 1: return gen::random_tree(n, rng);
    case 2: return gen::path_with_chords(n, 1 + static_cast<std::uint32_t>(n / 4), rng);
    default: return gen::grid(3 + static_cast<Vertex>(rng.next_below(4)),
                              3 + static_cast<Vertex>(rng.next_below(8)));
  }
}

std::string snapshot_bytes(const MsrpResult& res) {
  std::stringstream ss;
  service::Snapshot::capture(res).write(ss, service::SnapshotFormat::kV2);
  return ss.str();
}

/// Trees + rows, field by field, with the failing coordinate in the message.
void expect_identical(const MsrpResult& a, const MsrpResult& b, const Graph& g,
                      const std::string& label) {
  ASSERT_EQ(a.sources(), b.sources()) << label;
  for (const Vertex s : a.sources()) {
    const BfsTree& ta = a.tree(s);
    const BfsTree& tb = b.tree(s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(ta.dist(v), tb.dist(v)) << label << " s=" << s << " v=" << v;
      ASSERT_EQ(ta.parent(v), tb.parent(v)) << label << " s=" << s << " v=" << v;
      ASSERT_EQ(ta.parent_edge(v), tb.parent_edge(v)) << label << " s=" << s << " v=" << v;
    }
  }
  for (std::uint32_t si = 0; si < a.num_sources(); ++si) {
    const auto ra = a.raw_rows(si);
    const auto rb = b.raw_rows(si);
    ASSERT_EQ(ra.size(), rb.size()) << label << " si=" << si;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i], rb[i]) << label << " si=" << si << " cell=" << i;
    }
    const auto oa = a.row_offsets(si);
    const auto ob = b.row_offsets(si);
    ASSERT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()))
        << label << " si=" << si;
  }
  // End to end: the serving-layer byte image must match too.
  ASSERT_EQ(snapshot_bytes(a), snapshot_bytes(b)) << label;
}

TEST(Determinism, ParallelBuildBitIdenticalToSequential) {
  const std::uint64_t base_seed = 0xDE7E2517ULL;
  const int num_graphs = 25;
  for (int iter = 0; iter < num_graphs; ++iter) {
    Rng rng(base_seed + static_cast<std::uint64_t>(iter));
    const Graph g = random_instance(rng);
    const std::uint32_t sigma =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min<Vertex>(4, g.num_vertices())));
    const auto picks = rng.sample_without_replacement(g.num_vertices(), sigma);
    const std::vector<Vertex> sources(picks.begin(), picks.end());

    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.exact = rng.next_bernoulli(0.25);
    // Alternate the landmark-table method so both pipelines are covered.
    cfg.landmark_rp =
        (iter % 2 == 0) ? LandmarkRpMethod::kMmgPerPair : LandmarkRpMethod::kBkAuxGraphs;

    cfg.build_threads = 1;
    const MsrpResult sequential = solve_msrp(g, sources, cfg);

    for (const unsigned threads : {2u, 4u, 8u}) {
      cfg.build_threads = threads;
      const MsrpResult parallel = solve_msrp(g, sources, cfg);
      expect_identical(sequential, parallel, g,
                       "iter=" + std::to_string(iter) +
                           " threads=" + std::to_string(threads) + " method=" +
                           (cfg.landmark_rp == LandmarkRpMethod::kMmgPerPair ? "mmg" : "bk"));
    }
  }
}

TEST(Determinism, SharedExternalPoolMatchesSequential) {
  // One pool reused across several solves (the QueryService pattern):
  // scratch arenas inside the solver are per-solve, so state cannot leak
  // from one solve into the next through the pool.
  ThreadPool pool(4);
  Rng rng(0xCAFEBABEULL);
  for (int iter = 0; iter < 6; ++iter) {
    const Graph g = random_instance(rng);
    const std::vector<Vertex> sources{0};

    Config cfg;
    cfg.seed = rng.next_u64();
    cfg.landmark_rp =
        (iter % 2 == 0) ? LandmarkRpMethod::kMmgPerPair : LandmarkRpMethod::kBkAuxGraphs;
    const MsrpResult sequential = solve_msrp(g, sources, cfg);

    cfg.build_pool = &pool;
    const MsrpResult pooled = solve_msrp(g, sources, cfg);
    expect_identical(sequential, pooled, g, "pooled iter=" + std::to_string(iter));
  }
}

struct GoldenCase {
  const char* name;
  Graph g;
  std::vector<Vertex> sources;
  Config cfg;
  std::uint64_t digest;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const std::vector<Vertex> grid_sources{0, 39, 820, 1599};

  // Default constants: 2T = 80 covers the 40x40 grid's diameter of 78, so
  // every edge is near and Algorithm 4 assembles every cell.
  cases.push_back(
      {"grid40-default", gen::grid(40, 40), grid_sources, Config{}, 0x393ee8800b6d2937ULL});

  Rng er_rng(2048);
  Graph er = gen::connected_avg_degree(2048, 8.0, er_rng);
  const auto er_picks = er_rng.sample_without_replacement(2048, 4);
  cases.push_back({"er2048-default", std::move(er),
                   std::vector<Vertex>(er_picks.begin(), er_picks.end()), Config{},
                   0x3dfb7899164d9376ULL});

  // near_scale = 1: 2T = 40 < 78, so the far buckets (Algorithm 3) run.
  // Undersampled so that some cells miss their witness (this digest is not
  // the brute-force one): it pins the exact candidate sets, not just the
  // true distances.
  Config far;
  far.near_scale = 1.0;
  far.oversample = 0.1;
  cases.push_back(
      {"grid40-near1", gen::grid(40, 40), grid_sources, far, 0xe74cfb10c3be7e35ULL});

  Config bk;
  bk.landmark_rp = LandmarkRpMethod::kBkAuxGraphs;
  cases.push_back({"grid16-bk", gen::grid(16, 16), {0, 100, 255}, bk, 0x112d1f4953082fffULL});
  return cases;
}

TEST(Determinism, GoldenDigest) {
  for (const GoldenCase& c : golden_cases()) {
    const MsrpResult res = solve_msrp(c.g, c.sources, c.cfg);
    EXPECT_EQ(service::Snapshot::capture(res).content_digest(), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace msrp
