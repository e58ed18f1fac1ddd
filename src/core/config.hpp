// Tuning knobs for the MSRP algorithm and the parameters derived from them.
//
// The paper's analysis fixes three kinds of quantities (Definition 3,
// Section 5):
//   * sampling probabilities  p_k = 4 / 2^k * sqrt(sigma / n)   for L_k, C_k
//   * the near/far threshold  T   = sqrt(n / sigma) * log n     (edges closer
//     than 2T to t are "near"; k-far edges sit in [2^{k+1} T, 2^{k+2} T))
//   * auxiliary-graph windows W(k) = l * 2^k * T for a "suitably chosen
//     constant l" (Sections 8.1, 8.2.2)
//
// The O~ constants only matter asymptotically; at benchmark sizes the
// literal values (log n oversampling everywhere) make every edge "near" and
// inflate the landmark sets, so Config exposes them:
//   * near_scale scales T (default 2.0; paper_constants switches to log2 n)
//   * oversample multiplies every p_k (exactness insurance for tests)
//   * window_scale is l (default 6, enough for the triangle-inequality slack
//     Lemma 20's proof actually needs; the paper says ">= 2")
//   * exact forces T >= n: every edge is near and every replacement path is
//     "small", so the Section 7.1 Dijkstra alone answers everything
//     deterministically — the algorithm degenerates to an exact (slower)
//     mode used by tests as a randomness-free cross-check.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/distance.hpp"

namespace msrp {

class ThreadPool;  // util/thread_pool.hpp

/// How the table d(s, r, e) (source -> landmark replacement paths) is built.
enum class LandmarkRpMethod {
  /// One MMG single-pair run per (source, landmark): the "inefficient"
  /// O~(m sqrt(n sigma) * sigma) route of Section 3. Simple, deterministic
  /// given the trees, and the fastest at practical sizes.
  kMmgPerPair,
  /// The paper's Bernstein–Karger adaptation (Sections 8.1–8.3): centers,
  /// intervals, MTC and bottleneck auxiliary graphs, O~(m sqrt(n sigma) +
  /// sigma n^2) in theory. Exercised by tests and the EXP-8 ablation.
  kBkAuxGraphs,
};

struct Config {
  std::uint64_t seed = 0x5EEDBA5Eu;
  double oversample = 1.0;
  double near_scale = 2.0;
  double window_scale = 6.0;
  LandmarkRpMethod landmark_rp = LandmarkRpMethod::kMmgPerPair;
  bool paper_constants = false;
  bool exact = false;

  // ---- execution knobs ----------------------------------------------------
  // These control HOW the build runs, never WHAT it computes: the parallel
  // build is bit-identical to the sequential one (every parallel item writes
  // item-private state; shared counters are commutative sums), so none of
  // these fields enter service::config_fingerprint().

  /// Worker threads for the build: 1 = sequential (default), 0 = hardware
  /// concurrency, k = a transient pool of k threads. Ignored when
  /// build_pool is set.
  unsigned build_threads = 1;

  /// External pool to run the build on instead of spawning one (the query
  /// service passes its serving pool, so cold-cache builds use the same
  /// workers as query shards). Not owned; must outlive the solve call.
  ThreadPool* build_pool = nullptr;
};

/// Parameters derived from (n, sigma, Config); one immutable instance per run.
class Params {
 public:
  Params(Vertex n, std::uint32_t sigma, const Config& cfg);

  /// Near/far threshold T: edges with |et| < 2T are near.
  Dist near_threshold() const { return t_; }

  /// Number of sampling levels K: k ranges over [0, K].
  std::uint32_t num_levels() const { return levels_; }

  /// Sampling probability for L_k / C_k.
  double sample_prob(std::uint32_t k) const;

  /// Window W(k): how many leading edges of a priority-k center's path get
  /// auxiliary [*, e] nodes in Sections 8.1 / 8.2.2.
  Dist window(std::uint32_t k) const;

  /// Far bucket of an edge at distance `et` >= 2T from t:
  /// k with 2^{k+1} T <= et < 2^{k+2} T, clamped to num_levels().
  std::uint32_t far_bucket(Dist et) const;

  /// Landmark search radius for bucket k (Algorithm 3): 2^k * T.
  Dist far_radius(std::uint32_t k) const;

  Vertex n() const { return n_; }
  std::uint32_t sigma() const { return sigma_; }

 private:
  Vertex n_;
  std::uint32_t sigma_;
  Dist t_;
  std::uint32_t levels_;
  double base_prob_;
  double window_scale_;
};

}  // namespace msrp
