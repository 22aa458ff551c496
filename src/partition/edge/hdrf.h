#ifndef GNNPART_PARTITION_EDGE_HDRF_H_
#define GNNPART_PARTITION_EDGE_HDRF_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "partition/partitioning.h"

namespace gnnpart {

/// High-Degree Replicated First [Petroni et al., CIKM'15]: stateful
/// streaming vertex-cut partitioning. For each streamed edge the partition
/// maximizing a replication score (prefer partitions already holding the
/// endpoints, weighted so the *lower*-degree endpoint's replica counts more)
/// plus a load-balance term is chosen.
///
/// Cost: O(m·r) for m streamed edges, where r is the number of partitions
/// holding either endpoint, instead of the O(m·k) of a full k-way scan, with
/// the same result. Take R = replicas[u] | replicas[v] and p* the
/// lowest-index least-loaded partition. Outside R the replication term is 0,
/// so the score is the balance term lambda·(max_load − load[p])/denom. With
/// lambda >= 0 and epsilon > 0, denom = epsilon + (max_load − min_load) is
/// positive, so that term never rises with load[p]. The winner is the
/// lexicographic max of (score, −load, −p), so p* beats every other
/// partition outside R (and beats it strictly if p* is in R, whose
/// replication term is >= 1). Scoring R ∪ {p*} in ascending order therefore
/// picks the full scan's winner bit for bit.
class HdrfPartitioner : public StreamingEdgePartitioner {
 public:
  /// lambda weighs the balance term (paper default 1.1; must be >= 0);
  /// epsilon avoids division by zero in the balance term (must be > 0).
  explicit HdrfPartitioner(double lambda = 1.1, double epsilon = 1.0)
      : lambda_(lambda), epsilon_(epsilon) {}

  std::string name() const override { return "HDRF"; }
  std::string category() const override { return "stateful streaming"; }
  Result<EdgePartitioning> Partition(const Graph& graph, PartitionId k,
                                     uint64_t seed) const override;
  Status PartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                         PartitionId k, Rng* rng,
                         std::vector<PartitionId>* assignment) const override;

 private:
  double lambda_;
  double epsilon_;
};

/// The lowest-index least-loaded partition of a load vector whose entries
/// only grow, one at a time. It keeps the mask of the partitions at the
/// minimum load and rescans the loads only when that mask empties, which
/// happens once per unit of minimum load: O(m + k) over m increments
/// instead of a std::min_element over k loads per increment. Shared by
/// HDRF and HEP's streaming phase (k <= kMaxPartitions = 64).
class LeastLoaded {
 public:
  explicit LeastLoaded(const std::vector<uint64_t>& load)
      : min_load_(*std::min_element(load.begin(), load.end())) {
    Rescan(load);
  }

  uint64_t min_load() const { return min_load_; }
  PartitionId partition() const {
    return static_cast<PartitionId>(std::countr_zero(at_min_));
  }

  /// Call after ++load[p]. Partitions off the minimum load at least
  /// min_load + 1, so when the last one at the minimum grows, the new
  /// minimum is min_load + 1.
  void Grew(const std::vector<uint64_t>& load, PartitionId p) {
    at_min_ &= ~(1ULL << p);
    if (at_min_ == 0) {
      ++min_load_;
      Rescan(load);
    }
  }

 private:
  void Rescan(const std::vector<uint64_t>& load) {
    for (PartitionId p = 0; p < load.size(); ++p) {
      if (load[p] == min_load_) at_min_ |= 1ULL << p;
    }
  }

  uint64_t min_load_;
  uint64_t at_min_ = 0;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_EDGE_HDRF_H_
