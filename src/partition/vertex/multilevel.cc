#include "partition/vertex/multilevel.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// Weighted graph used at the coarse levels.
struct WeightedGraph {
  std::vector<uint64_t> vweight;
  // adj[v] = (neighbor, edge weight) pairs; each undirected edge stored on
  // both endpoints.
  std::vector<std::vector<std::pair<uint32_t, uint64_t>>> adj;

  size_t n() const { return vweight.size(); }
  uint64_t total_vweight() const {
    return std::accumulate(vweight.begin(), vweight.end(), uint64_t{0});
  }
};

WeightedGraph FromGraph(const Graph& graph) {
  WeightedGraph wg;
  wg.vweight.assign(graph.num_vertices(), 1);
  wg.adj.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    auto nbrs = graph.Neighbors(v);
    wg.adj[v].reserve(nbrs.size());
    for (VertexId u : nbrs) wg.adj[v].push_back({u, 1});
  }
  return wg;
}

struct CoarseLevel {
  WeightedGraph graph;
  // Maps fine vertex -> coarse vertex of the *next* (coarser) level.
  std::vector<uint32_t> fine_to_coarse;
};

// Size-constrained label-propagation clustering (the coarsening scheme
// KaHIP uses for social networks): a few LP rounds where each vertex adopts
// the label with the heaviest edge connectivity, subject to a cluster
// weight cap. Pairwise matching destroys power-law structure; cluster
// contraction preserves the communities the cut must respect. If
// `restrict_parts` is non-null, clusters never cross partitions (V-cycles).
std::vector<uint32_t> LpCluster(const WeightedGraph& g, Rng* rng,
                                uint64_t max_cluster_weight,
                                const std::vector<PartitionId>* restrict_parts) {
  const size_t n = g.n();
  std::vector<uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::vector<uint64_t> cluster_weight(g.vweight);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Dense scratch indexed by label, reset through the touched list. Every
  // edge weight is >= 1, so conn[lbl] == 0 means "not yet touched".
  std::vector<uint64_t> conn(n, 0);
  std::vector<uint32_t> touched;
  for (int round = 0; round < 4; ++round) {
    rng->Shuffle(&order);
    size_t moves = 0;
    for (uint32_t v : order) {
      if (g.adj[v].empty()) continue;
      touched.clear();
      for (const auto& [u, w] : g.adj[v]) {
        if (restrict_parts && (*restrict_parts)[u] != (*restrict_parts)[v]) {
          continue;
        }
        if (conn[label[u]] == 0) touched.push_back(label[u]);
        conn[label[u]] += w;
      }
      uint32_t own = label[v];
      uint32_t best = own;
      uint64_t best_w = conn[own];
      // Connectivity ties break on the lighter cluster (keeps coarsening
      // balanced), then on the smaller label. That is a total order over the
      // admissible labels that beat `own`, so the order of `touched` does
      // not matter.
      for (uint32_t lbl : touched) {
        if (lbl == own) continue;
        if (cluster_weight[lbl] + g.vweight[v] > max_cluster_weight) continue;
        const uint64_t w = conn[lbl];
        const bool tie_better =
            w == best_w && best != own &&
            (cluster_weight[lbl] < cluster_weight[best] ||
             (cluster_weight[lbl] == cluster_weight[best] && lbl < best));
        if (w > best_w || tie_better) {
          best_w = w;
          best = lbl;
        }
      }
      for (uint32_t lbl : touched) conn[lbl] = 0;
      if (best != own) {
        cluster_weight[own] -= g.vweight[v];
        cluster_weight[best] += g.vweight[v];
        label[v] = best;
        ++moves;
      }
    }
    if (moves < n / 100) break;
  }
  return label;
}

// Contracts a clustering (labels in [0, n)) into a coarser weighted graph.
// Coarse ids number the labels in order of first appearance.
CoarseLevel Contract(const WeightedGraph& g,
                     const std::vector<uint32_t>& label) {
  CoarseLevel level;
  const size_t n = g.n();
  level.fine_to_coarse.resize(n);
  std::vector<uint32_t> dense(n, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t& id = dense[label[v]];
    if (id == UINT32_MAX) id = next++;
    level.fine_to_coarse[v] = id;
  }
  // Counting sort of the fine vertices by coarse id.
  std::vector<uint32_t> start(next + 1, 0);
  for (uint32_t v = 0; v < n; ++v) ++start[level.fine_to_coarse[v] + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<uint32_t> members(n);
  std::vector<uint32_t> cursor(start.begin(), start.end() - 1);
  for (uint32_t v = 0; v < n; ++v) {
    members[cursor[level.fine_to_coarse[v]]++] = v;
  }
  // Accumulate parallel edges of one coarse vertex at a time into a dense
  // accumulator; the sorted touched list is its adjacency.
  WeightedGraph& cg = level.graph;
  cg.vweight.assign(next, 0);
  cg.adj.resize(next);
  std::vector<uint64_t> acc(next, 0);
  std::vector<uint32_t> touched;
  for (uint32_t cv = 0; cv < next; ++cv) {
    touched.clear();
    for (uint32_t i = start[cv]; i < start[cv + 1]; ++i) {
      const uint32_t v = members[i];
      cg.vweight[cv] += g.vweight[v];
      for (const auto& [u, w] : g.adj[v]) {
        const uint32_t cu = level.fine_to_coarse[u];
        if (cu == cv) continue;  // internal edge disappears
        if (acc[cu] == 0) touched.push_back(cu);
        acc[cu] += w;
      }
    }
    std::sort(touched.begin(), touched.end());
    cg.adj[cv].reserve(touched.size());
    for (uint32_t cu : touched) {
      cg.adj[cv].push_back({cu, acc[cu]});
      acc[cu] = 0;
    }
  }
  return level;
}

uint64_t CutWeight(const WeightedGraph& g,
                   const std::vector<PartitionId>& part) {
  uint64_t cut = 0;
  for (uint32_t v = 0; v < g.n(); ++v) {
    for (const auto& [u, w] : g.adj[v]) {
      if (u > v && part[u] != part[v]) cut += w;
    }
  }
  return cut;
}

// Greedy graph growing: BFS-grow each partition up to the weight budget.
std::vector<PartitionId> GrowInitial(const WeightedGraph& g, PartitionId k,
                                     Rng* rng) {
  const size_t n = g.n();
  std::vector<PartitionId> part(n, kInvalidPartition);
  const uint64_t total = g.total_vweight();
  const uint64_t budget = (total + k - 1) / k;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  size_t cursor = 0;
  for (PartitionId p = 0; p + 1 < k; ++p) {
    uint64_t weight = 0;
    std::deque<uint32_t> queue;
    while (weight < budget) {
      if (queue.empty()) {
        while (cursor < n && part[order[cursor]] != kInvalidPartition) {
          ++cursor;
        }
        if (cursor >= n) break;
        queue.push_back(order[cursor]);
      }
      uint32_t v = queue.front();
      queue.pop_front();
      if (part[v] != kInvalidPartition) continue;
      part[v] = p;
      weight += g.vweight[v];
      for (const auto& [u, w] : g.adj[v]) {
        (void)w;
        if (part[u] == kInvalidPartition) queue.push_back(u);
      }
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (part[v] == kInvalidPartition) part[v] = k - 1;
  }
  return part;
}

// One size-constrained label-propagation refinement pass (the social-graph
// refiner of KaHIP/Spinner): a vertex moves to the partition maximizing
// normalized connectivity plus a load penalty, under a hard weight cap.
// Strict positive-gain FM converges instantly to poor local optima on
// power-law graphs; the soft load term lets the refiner traverse plateaus.
// Returns the number of moves made.
size_t RefinePass(const WeightedGraph& g, PartitionId k, double imbalance,
                  std::vector<PartitionId>* part,
                  std::vector<uint64_t>* pweight, Rng* rng) {
  const size_t n = g.n();
  const double mean =
      static_cast<double>(g.total_vweight()) / static_cast<double>(k);
  const uint64_t max_weight = static_cast<uint64_t>(imbalance * mean) + 1;
  const double capacity = imbalance * mean;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  size_t moves = 0;
  std::vector<uint64_t> conn(k, 0);
  std::vector<PartitionId> touched;
  for (uint32_t v : order) {
    PartitionId own = (*part)[v];
    touched.clear();
    double total_w = 0;
    bool boundary = false;
    for (const auto& [u, w] : g.adj[v]) {
      PartitionId pu = (*part)[u];
      if (conn[pu] == 0) touched.push_back(pu);
      conn[pu] += w;
      total_w += static_cast<double>(w);
      if (pu != own) boundary = true;
    }
    if (boundary && total_w > 0) {
      auto score = [&](PartitionId p) {
        double locality = static_cast<double>(conn[p]) / total_w;
        double penalty =
            1.0 - static_cast<double>((*pweight)[p]) / capacity;
        if (penalty < 0) penalty = 0;
        return locality + penalty;
      };
      PartitionId best = own;
      double best_score = score(own);
      for (PartitionId p : touched) {
        if (p == own) continue;
        if ((*pweight)[p] + g.vweight[v] > max_weight) continue;
        double s = score(p);
        if (s > best_score) {
          best_score = s;
          best = p;
        }
      }
      if (best != own) {
        (*part)[v] = best;
        (*pweight)[own] -= g.vweight[v];
        (*pweight)[best] += g.vweight[v];
        ++moves;
      }
    }
    for (PartitionId p : touched) conn[p] = 0;
  }
  return moves;
}

// Forces the balance constraint: moves vertices (accepting cut damage if
// unavoidable) out of overweight partitions into the lightest ones,
// preferring moves that keep the most neighbour connectivity.
void RebalancePass(const WeightedGraph& g, PartitionId k, double imbalance,
                   std::vector<PartitionId>* part,
                   std::vector<uint64_t>* pweight, Rng* rng) {
  const double mean =
      static_cast<double>(g.total_vweight()) / static_cast<double>(k);
  const uint64_t max_weight = static_cast<uint64_t>(imbalance * mean) + 1;
  const size_t n = g.n();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int round = 0; round < 6; ++round) {
    bool any_over = false;
    for (PartitionId p = 0; p < k; ++p) {
      if ((*pweight)[p] > max_weight) any_over = true;
    }
    if (!any_over) return;
    rng->Shuffle(&order);
    std::vector<uint64_t> conn(k, 0);
    std::vector<PartitionId> touched;
    for (uint32_t v : order) {
      PartitionId own = (*part)[v];
      if ((*pweight)[own] <= max_weight) continue;
      touched.clear();
      for (const auto& [u, w] : g.adj[v]) {
        PartitionId pu = (*part)[u];
        if (conn[pu] == 0) touched.push_back(pu);
        conn[pu] += w;
      }
      // Target: lightest partition that can take v; among the near-lightest
      // prefer connectivity.
      PartitionId best = kInvalidPartition;
      for (PartitionId p = 0; p < k; ++p) {
        if (p == own) continue;
        if ((*pweight)[p] + g.vweight[v] > max_weight) continue;
        if (best == kInvalidPartition || conn[p] > conn[best] ||
            (conn[p] == conn[best] && (*pweight)[p] < (*pweight)[best])) {
          best = p;
        }
      }
      if (best != kInvalidPartition) {
        (*part)[v] = best;
        (*pweight)[own] -= g.vweight[v];
        (*pweight)[best] += g.vweight[v];
      }
      for (PartitionId p : touched) conn[p] = 0;
      if ((*pweight)[own] <= max_weight) continue;
    }
  }
}

void Refine(const WeightedGraph& g, PartitionId k, int passes,
            double imbalance, std::vector<PartitionId>* part, Rng* rng) {
  std::vector<uint64_t> pweight(k, 0);
  for (uint32_t v = 0; v < g.n(); ++v) {
    pweight[(*part)[v]] += g.vweight[v];
  }
  RebalancePass(g, k, imbalance, part, &pweight, rng);
  uint64_t total_moves = 0;
  uint64_t total_passes = 0;
  for (int pass = 0; pass < passes; ++pass) {
    size_t moves = RefinePass(g, k, imbalance, part, &pweight, rng);
    RebalancePass(g, k, imbalance, part, &pweight, rng);
    total_moves += moves;
    ++total_passes;
    if (moves == 0) break;
  }
  obs::Count("partition/vertex/multilevel/refine_moves", total_moves, "moves");
  obs::Count("partition/vertex/multilevel/refine_passes", total_passes,
             "passes");
}

// Runs one full multilevel cycle. If `current` is non-null it is used as
// the partition to preserve (restricted coarsening; V-cycle).
std::vector<PartitionId> RunCycle(const WeightedGraph& base, PartitionId k,
                                  const MultilevelParams& params, Rng* rng,
                                  const std::vector<PartitionId>* current) {
  const size_t stop_at = std::max<size_t>(params.coarsen_target, 16UL * k);

  std::vector<CoarseLevel> levels;
  const WeightedGraph* top = &base;
  std::vector<PartitionId> projected_current;
  if (current) projected_current = *current;

  while (top->n() > stop_at) {
    // Cluster cap: small enough that the balance constraint stays feasible
    // at the coarsest level, large enough to coarsen quickly.
    const uint64_t cap = std::max<uint64_t>(
        1, top->total_vweight() / (static_cast<uint64_t>(k) * 8));
    auto label =
        LpCluster(*top, rng, cap, current ? &projected_current : nullptr);
    CoarseLevel level = Contract(*top, label);
    if (level.graph.n() >= top->n() * 95 / 100) break;  // stalled
    if (current) {
      std::vector<PartitionId> coarse_part(level.graph.n());
      for (uint32_t v = 0; v < level.fine_to_coarse.size(); ++v) {
        coarse_part[level.fine_to_coarse[v]] = projected_current[v];
      }
      projected_current = std::move(coarse_part);
    }
    levels.push_back(std::move(level));
    top = &levels.back().graph;
  }
  obs::Count("partition/vertex/multilevel/coarsen_levels", levels.size(),
             "levels");

  // Initial partition of the coarsest graph. The coarsest graph is tiny,
  // so refinement effort there is nearly free — spend 4x the passes.
  std::vector<PartitionId> part;
  if (current) {
    part = projected_current;
    Refine(*top, k, 4 * params.refine_passes, params.imbalance, &part, rng);
  } else {
    uint64_t best_cut = UINT64_MAX;
    for (int attempt = 0; attempt < params.initial_tries; ++attempt) {
      std::vector<PartitionId> cand = GrowInitial(*top, k, rng);
      Refine(*top, k, 4 * params.refine_passes, params.imbalance, &cand, rng);
      uint64_t cut = CutWeight(*top, cand);
      if (cut < best_cut) {
        best_cut = cut;
        part = std::move(cand);
      }
    }
  }

  // Uncoarsen with refinement at every level.
  for (size_t li = levels.size(); li-- > 0;) {
    const auto& level = levels[li];
    const WeightedGraph& fine =
        (li == 0) ? base : levels[li - 1].graph;
    std::vector<PartitionId> fine_part(fine.n());
    for (uint32_t v = 0; v < fine.n(); ++v) {
      fine_part[v] = part[level.fine_to_coarse[v]];
    }
    part = std::move(fine_part);
    Refine(fine, k, params.refine_passes, params.imbalance, &part, rng);
  }
  return part;
}

}  // namespace

Result<VertexPartitioning> MultilevelPartition(const Graph& graph,
                                               PartitionId k, uint64_t seed,
                                               const MultilevelParams& params) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("multilevel: invalid k");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("multilevel: empty graph");
  }
  Rng rng(seed);
  WeightedGraph base = FromGraph(graph);
  obs::Count("partition/vertex/multilevel/vertices_assigned",
             graph.num_vertices(), "vertices");
  obs::Count("partition/vertex/multilevel/v_cycles",
             static_cast<uint64_t>(params.v_cycles), "cycles");

  std::vector<PartitionId> part = RunCycle(base, k, params, &rng, nullptr);
  for (int cycle = 1; cycle < params.v_cycles; ++cycle) {
    std::vector<PartitionId> next = RunCycle(base, k, params, &rng, &part);
    if (CutWeight(base, next) <= CutWeight(base, part)) {
      part = std::move(next);
    }
  }

  VertexPartitioning result;
  result.k = k;
  result.assignment = std::move(part);
  return result;
}

}  // namespace gnnpart
