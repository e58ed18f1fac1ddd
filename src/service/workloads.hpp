/// \file
/// The served workloads, each named once as a tag type: point queries
/// d(s, t, e), top-k most-vital edges, Vickrey edge pricing, and k-edge-
/// failure distances. A tag carries its request and answer types; every
/// layer specializes only what it owns and runs one template over the tag
/// for everything else:
///
///   * service (query_service.cpp) — `prepare` (validate, expand into
///     point queries) and `finish` (assemble the point answers); the point
///     tag is the base executor the other three reduce to;
///   * net (protocol.hpp/.cpp) — the per-record codec and the
///     request/answer FrameType pair;
///   * tools (tools/batch_io.hpp) — the text line format.
///
/// Adding a workload means adding one tag here (and to Workloads) plus
/// those specializations; no dispatch control flow changes.
///
/// Semantics (all relative to the oracle's canonical BFS trees, so every
/// serving path — in-process, mmap, sharded, wire — answers identically):
///
///   * Query(s, t, e): d(s, t, e), one O(1) table read (Theorem 26).
///   * VitalityQuery(s, t, k): the k edges of the canonical s->t path whose
///     removal hurts most. Each entry carries the edge id, its position on
///     the path (0 = incident to s), and the replacement distance
///     d(s, t, e); vitality is replacement - base (kInfDist for bridges)
///     and entries are ordered by (vitality desc, position asc), exactly
///     like rp::most_vital_edges.
///   * VickreyQuery(s, t): per-edge Vickrey payments along the canonical
///     path. An edge's price is d(s, t, e) - d(s, t) — the detour premium
///     its owner could extract in a second-price auction — kInfDist when
///     the edge is a bridge (monopoly). Prices are in path order.
///   * KFailQuery(s, t, fails): d(s, t) in G - fails for a failure set of
///     at most kMaxKFailEdges edges. |fails| == 1 is answered by the O(1)
///     oracle; |fails| == 2 needs the graph (a bounded BFS via the ftsub
///     machinery); |fails| == 0 degenerates to the base distance.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "service/query.hpp"
#include "util/distance.hpp"

namespace msrp::service {

/// Most failure sets the serving stack accepts per K_FAIL query. Enforced
/// at wire decode (ProtocolError) and at the service boundary
/// (std::invalid_argument), so no layer below ever sees a larger set.
inline constexpr std::size_t kMaxKFailEdges = 2;

/// Cap on TOP_K_VITAL's k. A path has fewer than n edges, so any larger
/// request is either a typo or an attack on the reply allocator.
inline constexpr std::uint32_t kMaxTopKVital = 1u << 16;

struct VitalityQuery {
  Vertex s = 0;
  Vertex t = 0;
  std::uint32_t k = 0;
  friend bool operator==(const VitalityQuery&, const VitalityQuery&) = default;
};

/// One edge of a vitality answer. `replacement` is d(s, t, edge); the
/// vitality itself (replacement - base, kInfDist for bridges) is derived,
/// not carried — see VitalityResult::vitality_of.
struct VitalityEntry {
  EdgeId edge = kNoEdge;
  std::uint32_t position = 0;  ///< index on the canonical s->t path, 0 at s
  Dist replacement = kInfDist;
  friend bool operator==(const VitalityEntry&, const VitalityEntry&) = default;
};

struct VitalityResult {
  Dist base = kInfDist;  ///< d(s, t); kInfDist when t is unreachable
  /// Top-k entries, (vitality desc, position asc), truncated to k. Empty
  /// when t is unreachable or s == t.
  std::vector<VitalityEntry> edges;

  Dist vitality_of(const VitalityEntry& e) const {
    return e.replacement == kInfDist ? kInfDist : e.replacement - base;
  }
  friend bool operator==(const VitalityResult&, const VitalityResult&) = default;
};

struct VickreyQuery {
  Vertex s = 0;
  Vertex t = 0;
  friend bool operator==(const VickreyQuery&, const VickreyQuery&) = default;
};

/// One priced edge of a Vickrey answer, in canonical path order.
struct VickreyCharge {
  EdgeId edge = kNoEdge;
  Dist price = 0;  ///< d(s,t,edge) - d(s,t); kInfDist = bridge monopoly
  friend bool operator==(const VickreyCharge&, const VickreyCharge&) = default;
};

struct VickreyResult {
  Dist base = kInfDist;  ///< d(s, t); kInfDist when t is unreachable
  std::vector<VickreyCharge> prices;  ///< one per canonical path edge
  friend bool operator==(const VickreyResult&, const VickreyResult&) = default;
};

struct KFailQuery {
  Vertex s = 0;
  Vertex t = 0;
  /// Failed edge ids, |fails| <= kMaxKFailEdges, no duplicates.
  std::vector<EdgeId> fails;
  friend bool operator==(const KFailQuery&, const KFailQuery&) = default;
};

// ----- workload tags --------------------------------------------------------

struct PointWorkload {
  using Request = Query;
  using Answer = Dist;
  static constexpr const char* kName = "point";
};

struct VitalityWorkload {
  using Request = VitalityQuery;
  using Answer = VitalityResult;
  static constexpr const char* kName = "vitality";
};

struct VickreyWorkload {
  using Request = VickreyQuery;
  using Answer = VickreyResult;
  static constexpr const char* kName = "vickrey";
};

/// K-fail answers are plain distances (kInfDist = unreachable once F is
/// removed).
struct KFailWorkload {
  using Request = KFailQuery;
  using Answer = Dist;
  static constexpr const char* kName = "kfail";
};

template <class... Ws>
struct WorkloadList {};

/// Every served workload, in wire-opcode order.
using Workloads = WorkloadList<PointWorkload, VitalityWorkload, VickreyWorkload, KFailWorkload>;

template <class W>
inline constexpr bool is_point_workload = std::is_same_v<W, PointWorkload>;

namespace detail {

template <class W, class... Ws>
constexpr std::size_t index_in(WorkloadList<Ws...>) {
  constexpr bool match[] = {std::is_same_v<W, Ws>...};
  std::size_t i = 0;
  while (i < sizeof...(Ws) && !match[i]) ++i;
  return i;
}

template <class... Ws>
constexpr std::size_t size_of(WorkloadList<Ws...>) {
  return sizeof...(Ws);
}

}  // namespace detail

inline constexpr std::size_t kNumWorkloads = detail::size_of(Workloads{});

/// Position of W in Workloads (a dense id for per-workload tables).
template <class W>
inline constexpr std::size_t workload_index = detail::index_in<W>(Workloads{});

/// Calls `f.template operator()<W>()` for each tag in Workloads order until
/// one returns true; returns whether one did. This is the one dispatch
/// loop over workloads (frame type, reply kind, tool flag).
template <class F>
bool any_workload(F&& f) {
  return [&f]<class... Ws>(WorkloadList<Ws...>) {
    return (f.template operator()<Ws>() || ...);
  }(Workloads{});
}

}  // namespace msrp::service
