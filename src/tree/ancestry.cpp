#include "tree/ancestry.hpp"

namespace msrp {

AncestorIndex::AncestorIndex(const BfsTree& tree) {
  const Vertex n = tree.num_vertices();
  const std::vector<Vertex>& order = tree.order();
  tin_.assign(n, kNoStamp);
  tout_.assign(n, kNoStamp);

  // A DFS that stamps v on entry and on exit gives v the stamps
  // [tin(v), tin(v) + span(v)], span(v) = 2 * |subtree(v)| - 1
  // = 1 + sum over children c of (span(c) + 1).
  // Pass 1, back to front: spans, parked in tout_. BFS lists every child
  // after its parent, so a span is complete when the scan reaches it.
  for (const Vertex v : order) tout_[v] = 1;
  for (std::size_t i = order.size(); i-- > 1;) {
    tout_[tree.parent(order[i])] += tout_[order[i]] + 1;
  }

  // Pass 2, front to back: pre-order entry stamps. BFS appended each
  // vertex's children as one contiguous run, and the runs follow their
  // parents' order, so one cursor walks them; a child enters one stamp after
  // its previous sibling's exit, as in a DFS that visits children in BFS
  // order.
  tin_[tree.root()] = 0;
  std::size_t next = 1;
  for (const Vertex u : order) {
    std::uint32_t stamp = tin_[u] + 1;
    for (; next < order.size() && tree.parent(order[next]) == u; ++next) {
      const Vertex c = order[next];
      tin_[c] = stamp;
      stamp += tout_[c] + 1;
    }
    tout_[u] += tin_[u];
  }
}

}  // namespace msrp
