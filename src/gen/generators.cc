#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/guide_table.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// Smallest power of two >= n (n >= 1).
size_t CeilPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Publishes emission telemetry once per Generate* call: the global
// edges-emitted counter plus a per-generator breakdown, and (for the
// rejection-sampling generators) the attempt count.
void CountEmitted(const char* generator, size_t edges, size_t attempts = 0) {
  obs::Count("gen/edges_emitted", edges, "edges");
  obs::Count(std::string("gen/") + generator + "/edges_emitted", edges,
             "edges");
  if (attempts > 0) {
    obs::Count(std::string("gen/") + generator + "/edge_attempts", attempts,
               "attempts");
  }
}

}  // namespace

Result<Graph> GenerateRmat(const RmatParams& params, uint64_t seed) {
  if (params.num_vertices == 0) {
    return Status::InvalidArgument("RMAT: num_vertices must be > 0");
  }
  double d = 1.0 - params.a - params.b - params.c;
  if (params.a < 0 || params.b < 0 || params.c < 0 || d < -1e-9) {
    return Status::InvalidArgument("RMAT: probabilities must be >= 0, sum <= 1");
  }
  const size_t n_pow2 = CeilPow2(params.num_vertices);
  const int levels = static_cast<int>(std::round(std::log2(n_pow2)));
  Rng rng(seed);

  // Optional scrambling permutation over the power-of-two universe; cells
  // that land outside [0, num_vertices) are retried.
  std::vector<VertexId> perm(n_pow2);
  std::iota(perm.begin(), perm.end(), 0);
  if (params.scramble_ids) rng.Shuffle(&perm);

  GraphBuilder builder(params.num_vertices, params.directed);
  builder.Reserve(params.num_edges);
  std::vector<uint8_t> touched(params.num_vertices, 0);
  std::vector<VertexId> endpoints;
  endpoints.reserve(params.num_edges);
  const double ab = params.a + params.b;
  const double abc = params.a + params.b + params.c;
  size_t produced = 0;
  size_t attempts = 0;
  const size_t max_attempts = params.num_edges * 20 + 1000;
  while (produced < params.num_edges && attempts < max_attempts) {
    ++attempts;
    size_t row = 0, col = 0;
    for (int level = 0; level < levels; ++level) {
      double u = rng.NextDouble();
      // Slight per-level noise keeps the degree distribution smooth
      // (standard "smoothing" tweak from the original R-MAT paper).
      if (u < params.a) {
        // top-left: nothing to add
      } else if (u < ab) {
        col |= (1ULL << level);
      } else if (u < abc) {
        row |= (1ULL << level);
      } else {
        row |= (1ULL << level);
        col |= (1ULL << level);
      }
    }
    VertexId src = perm[row];
    VertexId dst = perm[col];
    if (src >= params.num_vertices || dst >= params.num_vertices) continue;
    if (src == dst) continue;
    builder.AddEdge(src, dst);
    touched[src] = 1;
    touched[dst] = 1;
    endpoints.push_back(src);
    ++produced;
  }
  if (params.connect_isolated && !endpoints.empty()) {
    for (VertexId v = 0; v < params.num_vertices; ++v) {
      if (touched[v]) continue;
      VertexId u = endpoints[rng.NextBounded(endpoints.size())];
      if (u == v) u = endpoints[0] != v ? endpoints[0] : endpoints.back();
      if (u != v) builder.AddEdge(v, u);
    }
  }
  CountEmitted("rmat", builder.pending_edges(), attempts);
  return builder.Build();
}

Result<Graph> GenerateBarabasiAlbert(size_t num_vertices,
                                     size_t edges_per_vertex, uint64_t seed) {
  if (num_vertices < edges_per_vertex + 1 || edges_per_vertex == 0) {
    return Status::InvalidArgument(
        "BA: need num_vertices > edges_per_vertex > 0");
  }
  Rng rng(seed);
  GraphBuilder builder(num_vertices, /*directed=*/false);
  builder.Reserve(num_vertices * edges_per_vertex);
  // `targets` holds one entry per edge endpoint; sampling uniformly from it
  // implements preferential attachment.
  std::vector<VertexId> targets;
  targets.reserve(2 * num_vertices * edges_per_vertex);
  // Seed clique over the first m+1 vertices.
  for (VertexId u = 0; u <= edges_per_vertex; ++u) {
    for (VertexId v = u + 1; v <= edges_per_vertex; ++v) {
      builder.AddEdge(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  for (VertexId v = static_cast<VertexId>(edges_per_vertex) + 1;
       v < num_vertices; ++v) {
    std::vector<VertexId> chosen;
    chosen.reserve(edges_per_vertex);
    size_t guard = 0;
    while (chosen.size() < edges_per_vertex && guard < 50 * edges_per_vertex) {
      ++guard;
      VertexId t = targets[rng.NextBounded(targets.size())];
      if (t == v) continue;
      if (std::find(chosen.begin(), chosen.end(), t) != chosen.end()) continue;
      chosen.push_back(t);
    }
    for (VertexId t : chosen) {
      builder.AddEdge(v, t);
      targets.push_back(v);
      targets.push_back(t);
    }
  }
  CountEmitted("ba", builder.pending_edges());
  return builder.Build();
}

Result<Graph> GenerateErdosRenyi(size_t num_vertices, size_t num_edges,
                                 bool directed, uint64_t seed) {
  if (num_vertices == 0) {
    return Status::InvalidArgument("ER: num_vertices must be > 0");
  }
  Rng rng(seed);
  GraphBuilder builder(num_vertices, directed);
  builder.Reserve(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(num_vertices));
    builder.AddEdge(u, v);
  }
  CountEmitted("er", builder.pending_edges());
  return builder.Build();
}

Result<Graph> GenerateWattsStrogatz(size_t num_vertices, size_t k, double beta,
                                    uint64_t seed) {
  if (num_vertices < 2 * k + 1 || k == 0) {
    return Status::InvalidArgument("WS: need num_vertices > 2k, k > 0");
  }
  Rng rng(seed);
  GraphBuilder builder(num_vertices, /*directed=*/false);
  builder.Reserve(num_vertices * k);
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (size_t j = 1; j <= k; ++j) {
      VertexId v = static_cast<VertexId>((u + j) % num_vertices);
      if (rng.NextBernoulli(beta)) {
        v = static_cast<VertexId>(rng.NextBounded(num_vertices));
        if (v == u) v = static_cast<VertexId>((u + 1) % num_vertices);
      }
      builder.AddEdge(u, v);
    }
  }
  CountEmitted("ws", builder.pending_edges());
  return builder.Build();
}

Result<Graph> GeneratePowerLawCommunity(const PowerLawCommunityParams& params,
                                        uint64_t seed) {
  if (params.num_vertices == 0 || params.num_communities == 0) {
    return Status::InvalidArgument(
        "DC-SBM: num_vertices and num_communities must be > 0");
  }
  if (params.mixing < 0 || params.mixing > 1) {
    return Status::InvalidArgument("DC-SBM: mixing must be in [0, 1]");
  }
  if (params.num_vertices > std::numeric_limits<VertexId>::max()) {
    return Status::InvalidArgument("DC-SBM: num_vertices must fit VertexId");
  }
  const size_t n = params.num_vertices;
  const size_t c = std::min(params.num_communities, n);
  Rng rng(seed);
  GraphBuilder builder(n, params.directed);
  builder.Reserve(params.num_edges);
  size_t attempts = 0;
  {
    // Every array in this scope is generation-only: it is released before
    // Build, so the sampling tables never add to the set-up's heap peak.

    // Power-law degree weights, randomly permuted so hubs land in random
    // communities.
    std::vector<double> weight(n);
    for (size_t i = 0; i < n; ++i) {
      weight[i] = std::pow(static_cast<double>(i + 1), -params.skew);
    }
    rng.Shuffle(&weight);

    // Community assignment: contiguous ranges over a random permutation, so
    // community sizes are equal but membership is random. The members of
    // community com are perm[first[com], first[com + 1]).
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(&perm);
    std::vector<uint32_t> community(n);
    std::vector<size_t> first(c + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t com = static_cast<uint32_t>(i * c / n);
      community[perm[i]] = com;
      first[com + 1] = i + 1;
    }

    // Cumulative weights with guide tables for O(1) expected weighted
    // sampling, global and per community; each lookup returns the index a
    // lower_bound over the same cumulative array would.
    std::vector<double> cum(n);
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      acc += weight[i];
      cum[i] = acc;
    }
    const GuideTable global(std::move(cum));
    std::vector<GuideTable> com_table;
    com_table.reserve(c);
    for (size_t com = 0; com < c; ++com) {
      std::vector<double> com_cum;
      com_cum.reserve(first[com + 1] - first[com]);
      double s = 0;
      for (size_t i = first[com]; i < first[com + 1]; ++i) {
        s += weight[perm[i]];
        com_cum.push_back(s);
      }
      com_table.emplace_back(std::move(com_cum));
    }
    auto sample_global = [&]() {
      return static_cast<VertexId>(global.Find(rng.NextDouble() * acc));
    };
    auto sample_community = [&](uint32_t com) {
      const GuideTable& table = com_table[com];
      return perm[first[com] + table.Find(rng.NextDouble() * table.total())];
    };

    std::vector<uint8_t> touched(n, 0);
    size_t produced = 0;
    const size_t max_attempts = params.num_edges * 20 + 1000;
    while (produced < params.num_edges && attempts < max_attempts) {
      ++attempts;
      VertexId src = sample_global();
      VertexId dst = rng.NextBernoulli(params.mixing)
                         ? sample_community(community[src])
                         : sample_global();
      if (src == dst) continue;
      builder.AddEdge(src, dst);
      touched[src] = 1;
      touched[dst] = 1;
      ++produced;
    }
    // Attach isolated vertices inside their own community (preserves the
    // planted structure).
    for (VertexId v = 0; v < n; ++v) {
      if (touched[v]) continue;
      VertexId u = sample_community(community[v]);
      if (u == v) u = sample_global();
      if (u != v) builder.AddEdge(v, u);
    }
  }
  CountEmitted("dcsbm", builder.pending_edges(), attempts);
  return builder.Build();
}

Result<Graph> GenerateRoadNetwork(const RoadParams& params, uint64_t seed) {
  if (params.width < 2 || params.height < 2) {
    return Status::InvalidArgument("road: width and height must be >= 2");
  }
  Rng rng(seed);
  const size_t n = params.width * params.height;
  GraphBuilder builder(n, params.directed);
  builder.Reserve(2 * n);
  auto id = [&](size_t x, size_t y) {
    return static_cast<VertexId>(y * params.width + x);
  };
  for (size_t y = 0; y < params.height; ++y) {
    for (size_t x = 0; x < params.width; ++x) {
      if (x + 1 < params.width && !rng.NextBernoulli(params.deletion_prob)) {
        builder.AddEdge(id(x, y), id(x + 1, y));
        if (params.directed) builder.AddEdge(id(x + 1, y), id(x, y));
      }
      if (y + 1 < params.height && !rng.NextBernoulli(params.deletion_prob)) {
        builder.AddEdge(id(x, y), id(x, y + 1));
        if (params.directed) builder.AddEdge(id(x, y + 1), id(x, y));
      }
      if (x + 1 < params.width && y + 1 < params.height &&
          rng.NextBernoulli(params.diagonal_prob)) {
        builder.AddEdge(id(x, y), id(x + 1, y + 1));
      }
    }
  }
  CountEmitted("road", builder.pending_edges());
  return builder.Build();
}

Result<Graph> InducedEdgeSubgraph(const Graph& full,
                                  const std::vector<EdgeId>& edge_ids,
                                  std::string name) {
  // A strictly increasing selection of a canonical edge list is itself
  // canonical, so the graph is assembled directly, without a sort.
  std::vector<Edge> edges;
  edges.reserve(edge_ids.size());
  EdgeId prev = 0;
  bool first = true;
  for (EdgeId id : edge_ids) {
    if (id >= full.num_edges()) {
      return Status::InvalidArgument("induced subgraph: edge id out of range");
    }
    if (!first && id <= prev) {
      return Status::InvalidArgument(
          "induced subgraph: edge ids must be strictly increasing");
    }
    first = false;
    prev = id;
    edges.push_back(full.edge(id));
  }
  CountEmitted("induced", edges.size());
  return Graph::FromCanonicalEdges(name.empty() ? full.name() : std::move(name),
                                   full.directed(), full.num_vertices(),
                                   std::move(edges));
}

}  // namespace gnnpart
