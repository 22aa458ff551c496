#ifndef GNNPART_PARTITION_VERTEX_METIS_LIKE_H_
#define GNNPART_PARTITION_VERTEX_METIS_LIKE_H_

#include "partition/partitioning.h"
#include "partition/vertex/multilevel.h"

namespace gnnpart {

/// Metis-style multilevel k-way edge-cut partitioning [Karypis & Kumar] on
/// the shared engine (see MultilevelPartition): label-propagation cluster
/// coarsening, greedy-growing initial partitioning, label-propagation
/// refinement and rebalancing, tuned for speed (single cycle, few passes).
class MetisLikePartitioner : public VertexPartitioner {
 public:
  MetisLikePartitioner() {
    params_.refine_passes = 4;
    params_.v_cycles = 1;
    params_.initial_tries = 8;
    params_.imbalance = 1.05;
  }

  std::string name() const override { return "Metis"; }
  std::string category() const override { return "in-memory"; }
  Result<VertexPartitioning> Partition(const Graph& graph,
                                       const VertexSplit& split, PartitionId k,
                                       uint64_t seed) const override {
    GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
    return MultilevelPartition(graph, k, seed, params_);
  }

 private:
  MultilevelParams params_;
};

/// KaHIP-style configuration of the same multilevel engine [Sanders &
/// Schulz]: six V-cycles, many more refinement passes, more initial attempts and
/// a tighter balance constraint. Lowest cut of all six vertex partitioners
/// and by far the highest partitioning time — reproducing the study's
/// KaHIP-vs-Metis trade-off (Figs. 12/15, Table 5).
class KahipLikePartitioner : public VertexPartitioner {
 public:
  KahipLikePartitioner() {
    params_.refine_passes = 10;
    params_.v_cycles = 6;
    params_.initial_tries = 12;
    params_.imbalance = 1.03;
  }

  std::string name() const override { return "KaHIP"; }
  std::string category() const override { return "in-memory"; }
  Result<VertexPartitioning> Partition(const Graph& graph,
                                       const VertexSplit& split, PartitionId k,
                                       uint64_t seed) const override {
    GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
    return MultilevelPartition(graph, k, seed, params_);
  }

 private:
  MultilevelParams params_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_VERTEX_METIS_LIKE_H_
