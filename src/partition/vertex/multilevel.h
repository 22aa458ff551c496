#ifndef GNNPART_PARTITION_VERTEX_MULTILEVEL_H_
#define GNNPART_PARTITION_VERTEX_MULTILEVEL_H_

#include <cstdint>

#include "common/status.h"
#include "partition/partitioning.h"

namespace gnnpart {

/// Knobs of the multilevel edge-cut engine shared by the Metis-like and
/// KaHIP-like partitioners. The two differ only in how much refinement work
/// they buy: KaHIP-style configurations run more refinement passes, more
/// V-cycles and more initial-partition attempts, trading (much) higher partitioning
/// time for a lower cut — exactly the trade-off the study observes between
/// Metis and KaHIP (Figs. 12/15, Table 5).
struct MultilevelParams {
  /// Stop coarsening once the graph has at most max(coarsen_target, 16*k)
  /// vertices.
  size_t coarsen_target = 256;
  /// Label-propagation refinement passes per uncoarsening level, each
  /// followed by a rebalance pass (4x as many at the coarsest level).
  int refine_passes = 3;
  /// Iterated-multilevel cycles (1 = plain multilevel).
  int v_cycles = 1;
  /// Independent initial partitionings of the coarsest graph; best kept.
  int initial_tries = 4;
  /// Allowed vertex-weight imbalance: max part weight <= imbalance * mean.
  double imbalance = 1.05;
};

/// Multilevel k-way vertex partitioning: size-constrained label-propagation
/// clustering and contraction for coarsening, greedy graph-growing initial
/// partitioning (best cut of `initial_tries`), and during uncoarsening
/// size-constrained label-propagation refinement plus a rebalance pass that
/// enforces `imbalance`. V-cycles after the first re-coarsen without
/// crossing the current partition and keep the result if the cut does not
/// grow. Clustering and contraction use dense per-level scratch arrays with
/// touched lists (no hashing), so a level costs O(n + m) time and memory
/// plus the sort of each coarse adjacency. Deterministic in (graph, k, seed,
/// params).
Result<VertexPartitioning> MultilevelPartition(const Graph& graph,
                                               PartitionId k, uint64_t seed,
                                               const MultilevelParams& params);

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_VERTEX_MULTILEVEL_H_
