// Google-benchmark microbenchmarks of partitioner throughput (edges or
// vertices per second). These are the raw numbers behind Figures 6 and 15.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "gen/datasets.h"
#include "graph/split.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"

namespace gnnpart {
namespace {

const Graph& BenchGraph() {
  static Graph graph = [] {
    const double scale = 0.25 * bench::EnvContext().scale;
    Result<Graph> g = MakeDataset(DatasetId::kOrkut, scale, 42);
    if (!g.ok()) std::abort();
    return std::move(g).value();
  }();
  return graph;
}

const VertexSplit& BenchSplit() {
  static VertexSplit split =
      VertexSplit::MakeRandom(BenchGraph().num_vertices(), 0.1, 0.1, 42);
  return split;
}

void BM_EdgePartitioner(benchmark::State& state) {
  auto id = static_cast<EdgePartitionerId>(state.range(0));
  PartitionId k = static_cast<PartitionId>(state.range(1));
  auto partitioner = MakeEdgePartitioner(id);
  state.SetLabel(partitioner->name() + "/k" + std::to_string(k));
  for (auto _ : state) {
    auto parts = partitioner->Partition(BenchGraph(), k, 42);
    benchmark::DoNotOptimize(parts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(BenchGraph().num_edges()));
}

void BM_VertexPartitioner(benchmark::State& state) {
  auto id = static_cast<VertexPartitionerId>(state.range(0));
  PartitionId k = static_cast<PartitionId>(state.range(1));
  auto partitioner = MakeVertexPartitioner(id);
  state.SetLabel(partitioner->name() + "/k" + std::to_string(k));
  for (auto _ : state) {
    auto parts = partitioner->Partition(BenchGraph(), BenchSplit(), k, 42);
    benchmark::DoNotOptimize(parts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(BenchGraph().num_vertices()));
}

void EdgeArgs(benchmark::internal::Benchmark* b) {
  for (auto id : AllEdgePartitioners()) {
    for (int k : {4, 32}) {
      b->Args({static_cast<int64_t>(id), k});
    }
  }
}

void VertexArgs(benchmark::internal::Benchmark* b) {
  for (auto id : AllVertexPartitioners()) {
    for (int k : {4, 32}) {
      b->Args({static_cast<int64_t>(id), k});
    }
  }
}

BENCHMARK(BM_EdgePartitioner)->Apply(EdgeArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VertexPartitioner)
    ->Apply(VertexArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gnnpart

// Custom main: route the shared bench flags through bench::DefaultContext
// (validated --threads parsing, --metrics-out manifest hook), then strip
// them before google-benchmark parses the rest (it rejects unknown flags).
int main(int argc, char** argv) {
  gnnpart::bench::DefaultContext(argc, argv);
  argc = gnnpart::bench::StripContextFlags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
