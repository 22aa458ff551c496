// Reproduces paper Figure 6: wall-clock partitioning time of the edge
// partitioners for 4 and 32 partitions. Expected shape: Random/DBH/2PS-L
// barely depend on the partition count; HDRF grows with k, since it scores
// every partition holding an endpoint (plus the least-loaded one) and those
// replica sets grow with k. The paper has HEP (in-memory NE) costing the
// most; here HEP and HDRF cost about the same (EXPERIMENTS.md, Figure 6).
#include "bench/bench_util.h"

using namespace gnnpart;

int main(int argc, char** argv) {
  ExperimentContext ctx = bench::DefaultContext(argc, argv);
  bench::PrintBanner("Edge partitioning time (seconds)", "paper Figure 6",
                     ctx);
  for (PartitionId k : {4u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"});
    for (DatasetId id : AllDatasets()) {
      DatasetBundle bundle = bench::Unwrap(LoadDataset(ctx, id), "dataset");
      std::vector<std::string> row{DatasetCode(id)};
      for (EdgePartitionerId pid : AllEdgePartitioners()) {
        EdgePartitioning parts = bench::Unwrap(
            RunEdgePartitioner(ctx, id, bundle.graph, pid, k), "partition");
        row.push_back(bench::F(parts.partitioning_seconds, 3));
      }
      table.AddRow(row);
    }
    bench::Emit(table, "fig06_partition_time_1");
  }
  std::cout << "\nNote: times come from the partitioning cache when one is "
               "warm; delete GNNPART_CACHE_DIR to re-measure.\n";
  return 0;
}
