#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"

namespace gnnpart {

size_t Graph::MaxDegree() const {
  size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

GraphBuilder::GraphBuilder(size_t num_vertices, bool directed)
    : num_vertices_(num_vertices), directed_(directed) {}

Result<Graph> GraphBuilder::Build(std::string name) {
  const size_t n = num_vertices_;
  for (const Edge& e : raw_edges_) {
    if (e.src >= n || e.dst >= n) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") with |V|=" + std::to_string(n));
    }
  }

  // Canonicalize in place: drop self-loops; for undirected graphs order
  // endpoints. Count both endpoints for the two counting sorts below.
  std::vector<uint64_t> dst_end(n, 0);
  std::vector<uint64_t> src_end(n, 0);
  size_t m = 0;
  for (const Edge& e : raw_edges_) {
    if (e.src == e.dst) continue;
    const Edge c = !directed_ && e.src > e.dst ? Edge{e.dst, e.src} : e;
    raw_edges_[m++] = c;
    ++dst_end[c.dst];
    ++src_end[c.src];
  }
  raw_edges_.resize(m);

  // Two stable counting sorts, by dst then by src. Each moves only the other
  // endpoint, since the bucket is the key. Visiting the dst buckets in order
  // leaves every source's destinations ascending. A cursor array starts at
  // its buckets' begins and ends at their ends.
  auto begins = [](std::vector<uint64_t>* counts) {
    uint64_t sum = 0;
    for (uint64_t& c : *counts) sum += std::exchange(c, sum);
  };
  begins(&dst_end);
  begins(&src_end);
  std::vector<VertexId> sources(m);  // grouped by dst
  for (const Edge& e : raw_edges_) sources[dst_end[e.dst]++] = e.src;
  raw_edges_ = {};
  std::vector<VertexId> targets(m);  // grouped by src, ascending in each
  for (size_t d = 0, i = 0; d < n; ++d) {
    for (; i < dst_end[d]; ++i) {
      targets[src_end[sources[i]]++] = static_cast<VertexId>(d);
    }
  }
  sources = {};
  dst_end = {};

  // Unique within each source's run, compacting in place.
  size_t kept = 0;
  for (size_t s = 0, i = 0; s < n; ++s) {
    const size_t run = kept;
    for (; i < src_end[s]; ++i) {
      if (kept == run || targets[kept - 1] != targets[i]) {
        targets[kept++] = targets[i];
      }
    }
    src_end[s] = kept;
  }
  std::vector<Edge> edges(kept);
  for (size_t s = 0, i = 0; s < n; ++s) {
    for (; i < src_end[s]; ++i) {
      edges[i] = {static_cast<VertexId>(s), targets[i]};
    }
  }
  targets = {};
  src_end = {};
  return Graph::Assemble(std::move(name), directed_, n, std::move(edges));
}

Result<Graph> Graph::FromCanonicalEdges(std::string name, bool directed,
                                        size_t num_vertices,
                                        std::vector<Edge> edges) {
  if (num_vertices > kInvalidVertex) {
    return Status::InvalidArgument(
        "graph/canonical: |V|=" + std::to_string(num_vertices) +
        " exceeds the VertexId range");
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    const char* fault = nullptr;
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      fault = "has an endpoint out of range";
    } else if (e.src == e.dst) {
      fault = "is a self-loop";
    } else if (!directed && e.src > e.dst) {
      fault = "has src > dst in an undirected graph";
    } else if (i > 0 && !(edges[i - 1] < e)) {
      fault = "does not strictly follow the edge before it";
    }
    if (fault != nullptr) {
      return Status::InvalidArgument(
          "graph/canonical: edge " + std::to_string(i) + " (" +
          std::to_string(e.src) + ", " + std::to_string(e.dst) + ") " +
          fault + " with |V|=" + std::to_string(num_vertices));
    }
  }
  return Assemble(std::move(name), directed, num_vertices, std::move(edges));
}

Graph Graph::Assemble(std::string name, bool directed, size_t num_vertices,
                      std::vector<Edge> edges) {
  const size_t n = num_vertices;
  Graph g;
  g.name_ = std::move(name);
  g.directed_ = directed;
  g.edges_ = std::move(edges);

  // Symmetrized degrees: out- plus in-degree, less one per reciprocal pair
  // (u, w), (w, u), which lists each endpoint twice in the other's slot.
  // out_begin[v] is where v's out-neighbours start in edges_.
  std::vector<uint64_t> out_begin(n + 1, 0);
  g.offsets_.assign(n + 1, 0);
  for (const Edge& e : g.edges_) {
    ++out_begin[e.src + 1];
    ++g.offsets_[e.src + 1];
    ++g.offsets_[e.dst + 1];
  }
  for (size_t v = 0; v < n; ++v) out_begin[v + 1] += out_begin[v];
  std::vector<uint64_t> cursor(out_begin.begin(), out_begin.end() - 1);
  if (directed) {
    // Each pair is found from its arc (u, w) with u < w. The sources u < w
    // of w's in-arcs arrive ascending, so one cursor per w walks w's
    // ascending out-neighbours once in all.
    for (const Edge& e : g.edges_) {
      if (e.src > e.dst) continue;
      uint64_t& c = cursor[e.dst];
      const uint64_t end = out_begin[e.dst + 1];
      while (c < end && g.edges_[c].dst < e.src) ++c;
      if (c < end && g.edges_[c].dst == e.src) {
        --g.offsets_[e.src + 1];
        --g.offsets_[e.dst + 1];
      }
    }
  }
  for (size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.neighbors_.resize(g.offsets_[n]);

  // In-neighbours fill the tail of each vertex's slot. Visiting the edges
  // backwards leaves them ascending, and cursor[v] then marks where they
  // start.
  std::copy(g.offsets_.begin() + 1, g.offsets_.end(), cursor.begin());
  for (auto e = g.edges_.rbegin(); e != g.edges_.rend(); ++e) {
    g.neighbors_[--cursor[e->dst]] = e->src;
  }
  // Merge each slot's tail forward with the vertex's out-neighbours, which
  // are contiguous and ascending in edges_, writing a reciprocal neighbour
  // once. The write cursor never passes the unread tail: the slot has room
  // for the out-neighbours that are not also in-neighbours in front of the
  // tail, and when the cursor meets the tail, every out-neighbour left is
  // one of the in-neighbours left, so the value written is the one already
  // there. Once the out-neighbours run out, the rest of the tail is in
  // place.
  for (size_t v = 0, out = 0; v < n; ++v) {
    uint64_t write = g.offsets_[v];
    uint64_t in = cursor[v];
    const uint64_t in_end = g.offsets_[v + 1];
    for (const size_t out_end = out_begin[v + 1]; out < out_end;) {
      const VertexId a = g.edges_[out].dst;
      const VertexId b = in < in_end ? g.neighbors_[in] : kInvalidVertex;
      out += a <= b;
      in += b <= a;
      g.neighbors_[write++] = std::min(a, b);
    }
    GNNPART_CHECK_PARANOID(write == in,
                           "builder merge ended off the tail of vertex " +
                               std::to_string(v));
  }
  out_begin = {};
  cursor = {};

  GNNPART_CHECK_CHEAP(g.offsets_.size() == n + 1,
                      "builder produced a malformed offset table");
  GNNPART_CHECK_CHEAP(g.offsets_.back() == g.neighbors_.size(),
                      "builder offset table does not cover the adjacency");
  if constexpr (check::ParanoidEnabled()) {
    // Self-audit of the CSR contract the rest of the library relies on
    // (sorted, unique, self-loop-free neighbourhoods).
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = g.Neighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        GNNPART_CHECK_PARANOID(nbrs[i] != v,
                               "builder kept a self-loop on vertex " +
                                   std::to_string(v));
        GNNPART_CHECK_PARANOID(
            i == 0 || nbrs[i - 1] < nbrs[i],
            "builder produced an unsorted or duplicate adjacency for "
            "vertex " +
                std::to_string(v));
      }
    }
  }
  return g;
}

Graph Graph::FromRawPartsForTest(std::string name, bool directed,
                                 std::vector<uint64_t> offsets,
                                 std::vector<VertexId> neighbors,
                                 std::vector<Edge> edges) {
  Graph g;
  g.name_ = std::move(name);
  g.directed_ = directed;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.edges_ = std::move(edges);
  return g;
}

}  // namespace gnnpart
