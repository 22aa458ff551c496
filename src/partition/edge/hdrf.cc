#include "partition/edge/hdrf.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {

Result<EdgePartitioning> HdrfPartitioner::Partition(const Graph& graph,
                                                    PartitionId k,
                                                    uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, k));
  const size_t m = graph.num_edges();

  EdgePartitioning result;
  result.k = k;
  result.assignment.assign(m, kInvalidPartition);

  // Stream edges in a seed-dependent shuffled order, as a streaming
  // partitioner would receive them from an arbitrary on-disk order.
  std::vector<EdgeId> order(m);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&order);

  GNNPART_RETURN_NOT_OK(
      PartitionStream(graph, order, k, &rng, &result.assignment));
  return result;
}

Status HdrfPartitioner::PartitionStream(
    const Graph& graph, const std::vector<EdgeId>& stream, PartitionId k,
    Rng* /*rng*/, std::vector<PartitionId>* assignment) const {
  if (!(lambda_ >= 0)) {
    return Status::InvalidArgument("HDRF: lambda must be >= 0");
  }
  if (!(epsilon_ > 0)) {
    return Status::InvalidArgument("HDRF: epsilon must be > 0");
  }
  const size_t n = graph.num_vertices();

  // Streaming state, scoped to this call so concurrent shard instances over
  // disjoint streams are independent.
  std::vector<uint64_t> replicas(n, 0);        // partition bitmask per vertex
  std::vector<uint32_t> partial_degree(n, 0);  // degree seen so far
  std::vector<uint64_t> load(k, 0);            // edges per partition
  uint64_t max_load = 0;
  LeastLoaded least(load);

  const auto& edges = graph.edges();
  uint64_t score_evals = 0;  // accumulated locally, published once below
  for (EdgeId e : stream) {
    VertexId u = edges[e].src;
    VertexId v = edges[e].dst;
    ++partial_degree[u];
    ++partial_degree[v];
    double du = partial_degree[u];
    double dv = partial_degree[v];
    double theta_u = du / (du + dv);
    double theta_v = 1.0 - theta_u;

    PartitionId best = 0;
    double best_score = -1.0;
    uint64_t best_load = ~0ULL;
    double denom =
        epsilon_ + static_cast<double>(max_load - least.min_load());
    // Counted as the full k-way scan that the candidates stand for.
    score_evals += k;
    // Only R = replicas[u] | replicas[v] and the least-loaded partition can
    // win (hdrf.h); ascending order keeps the full scan's tie-breaks.
    for (uint64_t cand =
             replicas[u] | replicas[v] | (1ULL << least.partition());
         cand != 0; cand &= cand - 1) {
      const auto p = static_cast<PartitionId>(std::countr_zero(cand));
      double g = 0;
      if (replicas[u] & (1ULL << p)) g += 1.0 + (1.0 - theta_u);
      if (replicas[v] & (1ULL << p)) g += 1.0 + (1.0 - theta_v);
      double bal =
          lambda_ * static_cast<double>(max_load - load[p]) / denom;
      double score = g + bal;
      if (score > best_score ||
          (score == best_score && load[p] < best_load)) {
        best_score = score;
        best = p;
        best_load = load[p];
      }
    }
    (*assignment)[e] = best;
    replicas[u] |= 1ULL << best;
    replicas[v] |= 1ULL << best;
    ++load[best];
    max_load = std::max(max_load, load[best]);
    least.Grew(load, best);
  }
  obs::Count("partition/edge/" + name() + "/edges_assigned", stream.size(),
             "edges");
  obs::Count("partition/edge/" + name() + "/score_evals", score_evals,
             "evals");
  return Status::Ok();
}

}  // namespace gnnpart
