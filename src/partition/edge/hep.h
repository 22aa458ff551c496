#ifndef GNNPART_PARTITION_EDGE_HEP_H_
#define GNNPART_PARTITION_EDGE_HEP_H_

#include "partition/partitioning.h"

namespace gnnpart {

/// Hybrid Edge Partitioner [Mayer & Jacobsen, SIGMOD'21].
///
/// Vertices with incident-edge count <= tau * mean degree form the
/// "low-degree" part, which is partitioned in memory with greedy
/// neighbourhood expansion (NE): partitions are grown vertex by vertex,
/// preferring the boundary vertex with the fewest unassigned external
/// edges, so replication stays minimal. Edges incident to high-degree
/// vertices — plus any low-degree leftovers between expansion sets — are
/// then streamed with HDRF scoring on top of the existing replica state.
///
/// tau = 10 and tau = 100 correspond to the paper's HEP10 / HEP100
/// configurations; with tau = 100 essentially the whole graph is
/// partitioned in memory.
///
/// Cost: NE reads a CSR of the low-low edges only (4-byte neighbour plus
/// 8-byte edge id per entry) and a one-bit-per-edge "assigned" set, so each
/// expansion step scans O(d_low) entries. The streaming phase scores only
/// the uncapped partitions in R ∪ {p*}, where R = replicas[u] | replicas[v]
/// and p* is the lowest-index least-loaded partition: O(r) per edge instead
/// of O(k). This picks the full scan's winner bit for bit. Outside R the
/// score is the balance term lambda·(max_load − load[p])/denom, which is
/// strictly decreasing in load[p] for lambda > 0 (consecutive integer loads
/// give distinct doubles at these magnitudes), and ties go to the lower
/// index, so p* beats every other partition outside R. (With lambda = 0
/// every partition outside R would score 0 and the lowest-index one would
/// win, so lambda = 0 is rejected.) p* is capped only when every partition
/// is, which is exactly when the least-load fallback runs.
class HepPartitioner : public StreamingEdgePartitioner {
 public:
  /// alpha sets the streaming phase's balance cap (alpha·m/k + 1 edges);
  /// lambda weighs its balance term and must be > 0.
  explicit HepPartitioner(double tau, double alpha = 1.05, double lambda = 1.1)
      : tau_(tau), alpha_(alpha), lambda_(lambda) {}

  std::string name() const override {
    // Integral taus print without a decimal point: HEP10, HEP100.
    double t = tau_;
    if (t == static_cast<double>(static_cast<long long>(t))) {
      return "HEP" + std::to_string(static_cast<long long>(t));
    }
    return "HEP" + std::to_string(t);
  }
  std::string category() const override { return "hybrid"; }
  Result<EdgePartitioning> Partition(const Graph& graph, PartitionId k,
                                     uint64_t seed) const override;
  /// Runs the full hybrid pipeline (classification, NE expansion, HDRF
  /// streaming) over the sub-stream: incidence structure, degree threshold
  /// and balance cap are all derived from the sub-stream, so shard
  /// instances are self-contained.
  Status PartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                         PartitionId k, Rng* rng,
                         std::vector<PartitionId>* assignment) const override;

  double tau() const { return tau_; }

 private:
  double tau_;
  double alpha_;
  double lambda_;
};

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_EDGE_HEP_H_
