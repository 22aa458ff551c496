#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check_fixture.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/partition_metrics.h"
#include "partition/vertex/multilevel.h"
#include "partition/vertex/registry.h"

namespace gnnpart {
namespace {

struct Fixture {
  Graph graph;
  VertexSplit split;
};

Fixture TestFixture() {
  RmatParams p;
  p.num_vertices = 2000;
  p.num_edges = 16000;
  Result<Graph> g = GenerateRmat(p, 321);
  EXPECT_TRUE(g.ok());
  Fixture f{std::move(g).value(), {}};
  f.split = VertexSplit::MakeRandom(f.graph.num_vertices(), 0.1, 0.1, 99);
  return f;
}

TEST(VertexRegistryTest, SixPartitionersInPaperOrder) {
  auto all = AllVertexPartitioners();
  ASSERT_EQ(all.size(), 6u);
  std::vector<std::string> names;
  for (auto id : all) names.push_back(MakeVertexPartitioner(id)->name());
  EXPECT_EQ(names, (std::vector<std::string>{"Random", "LDG", "Spinner",
                                             "Metis", "ByteGNN", "KaHIP"}));
}

TEST(VertexRegistryTest, ParseNames) {
  for (auto id : AllVertexPartitioners()) {
    auto name = MakeVertexPartitioner(id)->name();
    Result<VertexPartitionerId> parsed = ParseVertexPartitionerName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(ParseVertexPartitionerName("Nope").ok());
}

class VertexPartitionerParamTest
    : public ::testing::TestWithParam<VertexPartitionerId> {};

TEST_P(VertexPartitionerParamTest, EveryVertexAssignedExactlyOnce) {
  Fixture f = TestFixture();
  auto partitioner = MakeVertexPartitioner(GetParam());
  for (PartitionId k : {1u, 4u, 32u}) {
    Result<VertexPartitioning> parts =
        partitioner->Partition(f.graph, f.split, k, 42);
    ASSERT_TRUE(parts.ok()) << partitioner->name() << ": " << parts.status();
    ASSERT_EQ(parts->assignment.size(), f.graph.num_vertices());
    for (PartitionId p : parts->assignment) EXPECT_LT(p, k);
    auto counts = parts->VertexCounts();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    EXPECT_EQ(total, f.graph.num_vertices());
  }
}

TEST_P(VertexPartitionerParamTest, DeterministicInSeed) {
  Fixture f = TestFixture();
  auto partitioner = MakeVertexPartitioner(GetParam());
  auto a = partitioner->Partition(f.graph, f.split, 8, 42);
  auto b = partitioner->Partition(f.graph, f.split, 8, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
}

TEST_P(VertexPartitionerParamTest, RejectsInvalidK) {
  Fixture f = TestFixture();
  auto partitioner = MakeVertexPartitioner(GetParam());
  EXPECT_FALSE(partitioner->Partition(f.graph, f.split, 0, 42).ok());
  EXPECT_FALSE(partitioner->Partition(f.graph, f.split, 65, 42).ok());
}

TEST_P(VertexPartitionerParamTest, RejectsMismatchedSplit) {
  Fixture f = TestFixture();
  VertexSplit wrong = VertexSplit::MakeRandom(17, 0.1, 0.1, 1);
  auto partitioner = MakeVertexPartitioner(GetParam());
  EXPECT_FALSE(partitioner->Partition(f.graph, wrong, 4, 42).ok());
}

TEST_P(VertexPartitionerParamTest, KEqualsOneHasZeroCut) {
  Fixture f = TestFixture();
  auto partitioner = MakeVertexPartitioner(GetParam());
  auto parts = partitioner->Partition(f.graph, f.split, 1, 42);
  ASSERT_TRUE(parts.ok());
  VertexPartitionMetrics m =
      ComputeVertexPartitionMetrics(f.graph, *parts, f.split);
  EXPECT_DOUBLE_EQ(m.edge_cut_ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.vertex_balance, 1.0);
}

TEST_P(VertexPartitionerParamTest, VertexBalanceReasonable) {
  Fixture f = TestFixture();
  auto partitioner = MakeVertexPartitioner(GetParam());
  auto parts = partitioner->Partition(f.graph, f.split, 8, 42);
  ASSERT_TRUE(parts.ok());
  VertexPartitionMetrics m =
      ComputeVertexPartitionMetrics(f.graph, *parts, f.split);
  EXPECT_LE(m.vertex_balance, 1.35) << partitioner->name();
}

TEST_P(VertexPartitionerParamTest, PassesFullValidation) {
  Fixture f = TestFixture();
  auto partitioner = MakeVertexPartitioner(GetParam());
  for (PartitionId k : {2u, 8u}) {
    Result<VertexPartitioning> parts =
        partitioner->Partition(f.graph, f.split, k, 42);
    ASSERT_TRUE(parts.ok());
    EXPECT_TRUE(FullyValidVertexPartitioning(f.graph, *parts, f.split))
        << partitioner->name() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVertexPartitioners, VertexPartitionerParamTest,
    ::testing::ValuesIn(AllVertexPartitioners()),
    [](const ::testing::TestParamInfo<VertexPartitionerId>& info) {
      return MakeVertexPartitioner(info.param)->name();
    });

TEST(VertexPartitionerQualityTest, AdvancedPartitionersBeatRandomOnCut) {
  Fixture f = TestFixture();
  auto random = MakeVertexPartitioner(VertexPartitionerId::kRandom)
                    ->Partition(f.graph, f.split, 8, 42);
  ASSERT_TRUE(random.ok());
  double cut_random =
      ComputeVertexPartitionMetrics(f.graph, *random, f.split).edge_cut_ratio;
  for (auto id :
       {VertexPartitionerId::kLdg, VertexPartitionerId::kSpinner,
        VertexPartitionerId::kMetis, VertexPartitionerId::kKahip}) {
    auto parts = MakeVertexPartitioner(id)->Partition(f.graph, f.split, 8, 42);
    ASSERT_TRUE(parts.ok());
    double cut =
        ComputeVertexPartitionMetrics(f.graph, *parts, f.split).edge_cut_ratio;
    EXPECT_LT(cut, cut_random) << MakeVertexPartitioner(id)->name();
  }
}

TEST(VertexPartitionerQualityTest, MultilevelBeatsStreaming) {
  // Paper Fig. 12: KaHIP/Metis achieve the lowest edge-cut.
  Fixture f = TestFixture();
  auto metis = MakeVertexPartitioner(VertexPartitionerId::kMetis)
                   ->Partition(f.graph, f.split, 8, 42);
  auto ldg = MakeVertexPartitioner(VertexPartitionerId::kLdg)
                 ->Partition(f.graph, f.split, 8, 42);
  ASSERT_TRUE(metis.ok() && ldg.ok());
  EXPECT_LT(
      ComputeVertexPartitionMetrics(f.graph, *metis, f.split).edge_cut_ratio,
      ComputeVertexPartitionMetrics(f.graph, *ldg, f.split).edge_cut_ratio);
}

TEST(VertexPartitionerQualityTest, MorePartitionsRaiseEdgeCut) {
  Fixture f = TestFixture();
  for (auto id : AllVertexPartitioners()) {
    auto partitioner = MakeVertexPartitioner(id);
    auto p4 = partitioner->Partition(f.graph, f.split, 4, 42);
    auto p32 = partitioner->Partition(f.graph, f.split, 32, 42);
    ASSERT_TRUE(p4.ok() && p32.ok());
    EXPECT_LE(
        ComputeVertexPartitionMetrics(f.graph, *p4, f.split).edge_cut_ratio,
        ComputeVertexPartitionMetrics(f.graph, *p32, f.split).edge_cut_ratio +
            1e-9)
        << partitioner->name();
  }
}

TEST(VertexPartitionerQualityTest, RoadLikeGraphGetsTinyCut) {
  // Lattices have sqrt-separators: multilevel partitioning must find a cut
  // orders of magnitude below random (paper Fig. 12, DI).
  RoadParams rp;
  rp.width = 50;
  rp.height = 50;
  rp.directed = false;
  Result<Graph> g = GenerateRoadNetwork(rp, 7);
  ASSERT_TRUE(g.ok());
  VertexSplit split = VertexSplit::MakeRandom(g->num_vertices(), 0.1, 0.1, 1);
  auto metis = MakeVertexPartitioner(VertexPartitionerId::kMetis)
                   ->Partition(*g, split, 4, 42);
  auto random = MakeVertexPartitioner(VertexPartitionerId::kRandom)
                    ->Partition(*g, split, 4, 42);
  ASSERT_TRUE(metis.ok() && random.ok());
  double cut_metis =
      ComputeVertexPartitionMetrics(*g, *metis, split).edge_cut_ratio;
  double cut_random =
      ComputeVertexPartitionMetrics(*g, *random, split).edge_cut_ratio;
  EXPECT_LT(cut_metis, 0.1);
  EXPECT_GT(cut_random, 0.5);
}

TEST(ByteGnnTest, BalancesTrainingVertices) {
  Fixture f = TestFixture();
  auto parts = MakeVertexPartitioner(VertexPartitionerId::kByteGnn)
                   ->Partition(f.graph, f.split, 8, 42);
  ASSERT_TRUE(parts.ok());
  VertexPartitionMetrics m =
      ComputeVertexPartitionMetrics(f.graph, *parts, f.split);
  EXPECT_LE(m.train_vertex_balance, 1.1);
}

TEST(MultilevelTest, KahipConfigCutsAtMostMetisConfig) {
  Fixture f = TestFixture();
  MultilevelParams fast;  // Metis-like defaults
  fast.refine_passes = 3;
  fast.v_cycles = 1;
  fast.initial_tries = 4;
  MultilevelParams strong;  // KaHIP-like
  strong.refine_passes = 10;
  strong.v_cycles = 6;
  strong.initial_tries = 12;
  strong.imbalance = 1.03;
  auto a = MultilevelPartition(f.graph, 8, 42, fast);
  auto b = MultilevelPartition(f.graph, 8, 42, strong);
  ASSERT_TRUE(a.ok() && b.ok());
  double cut_fast =
      ComputeVertexPartitionMetrics(f.graph, *a, f.split).edge_cut_ratio;
  double cut_strong =
      ComputeVertexPartitionMetrics(f.graph, *b, f.split).edge_cut_ratio;
  EXPECT_LE(cut_strong, cut_fast * 1.02);
}

TEST(MultilevelTest, HandlesTinyGraphs) {
  GraphBuilder b(4, false);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  MultilevelParams params;
  auto parts = MultilevelPartition(*g, 2, 42, params);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->assignment.size(), 4u);
}

// FNV-1a 64 over the assignment, each PartitionId as 4 little-endian bytes.
// The multilevel engine's output is pinned by these digests: any change to
// its RNG draws, tie-breaks or coarse-vertex numbering shows up here.
std::string AssignmentDigest(const VertexPartitioning& parts) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (PartitionId p : parts.assignment) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (p >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

struct PinnedCase {
  DatasetId dataset;
  PartitionId k;
  const char* metis;
  const char* kahip;
};

TEST(MultilevelTest, PinnedAssignmentsOnDatasets) {
  const PinnedCase cases[] = {
      {DatasetId::kOrkut, 4, "d3ec5a7b3254ac15", "d3ec5a7b3254ac15"},
      {DatasetId::kOrkut, 16, "5af42e053ad68232", "a0537df13ad43396"},
      {DatasetId::kEnwiki, 8, "37392f88512b6775", "003199c3b02298a1"},
      {DatasetId::kDimacsUsa, 4, "95163dd848a702a6", "bb4171d5e9751356"},
  };
  auto metis = MakeVertexPartitioner(VertexPartitionerId::kMetis);
  auto kahip = MakeVertexPartitioner(VertexPartitionerId::kKahip);
  for (const PinnedCase& c : cases) {
    Result<Graph> g = MakeDataset(c.dataset, 0.05, 42);
    ASSERT_TRUE(g.ok());
    VertexSplit split = VertexSplit::MakeRandom(g->num_vertices(), 0.1, 0.1, 1);
    auto m = metis->Partition(*g, split, c.k, 42);
    auto h = kahip->Partition(*g, split, c.k, 42);
    ASSERT_TRUE(m.ok() && h.ok());
    EXPECT_EQ(AssignmentDigest(*m), c.metis)
        << DatasetCode(c.dataset) << " k=" << c.k << " Metis";
    EXPECT_EQ(AssignmentDigest(*h), c.kahip)
        << DatasetCode(c.dataset) << " k=" << c.k << " KaHIP";
  }
}

TEST(MultilevelTest, PinnedAssignmentWithIsolatedVertices) {
  // Every fourth vertex has no edge: isolated vertices never join a cluster
  // and keep their own coarse vertex at every level.
  const VertexId n = 1200;
  GraphBuilder b(n, false);
  for (VertexId v = 0; v < n; ++v) {
    if (v % 4 == 0) continue;
    for (VertexId i = 1; i <= 3; ++i) {
      VertexId u = (v * 37 + i * 101) % n;
      if (u % 4 != 0) b.AddEdge(v, u);
    }
  }
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  VertexSplit split = VertexSplit::MakeRandom(n, 0.1, 0.1, 1);
  auto m = MakeVertexPartitioner(VertexPartitionerId::kMetis)
               ->Partition(*g, split, 4, 42);
  auto h = MakeVertexPartitioner(VertexPartitionerId::kKahip)
               ->Partition(*g, split, 4, 42);
  ASSERT_TRUE(m.ok() && h.ok());
  EXPECT_EQ(AssignmentDigest(*m), "1984af1d7d416586");
  EXPECT_EQ(AssignmentDigest(*h), "8e26a1ebf93ccb25");
}

TEST(MultilevelTest, PinnedAssignmentDeepCoarseningWithVCycles) {
  // coarsen_target = 16 with k = 2 coarsens down to 32 vertices, and the
  // two extra V-cycles run the partition-restricted clustering.
  Fixture f = TestFixture();
  MultilevelParams params;
  params.coarsen_target = 16;
  params.v_cycles = 3;
  auto parts = MultilevelPartition(f.graph, 2, 42, params);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(AssignmentDigest(*parts), "a811adb7341fdc24");
}

}  // namespace
}  // namespace gnnpart
