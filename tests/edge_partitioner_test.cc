#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>

#include "check_fixture.h"
#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/partition_metrics.h"
#include "obs/metrics.h"
#include "partition/edge/hdrf.h"
#include "partition/edge/hep.h"
#include "partition/edge/registry.h"

namespace gnnpart {
namespace {

Graph TestGraph() {
  RmatParams p;
  p.num_vertices = 2000;
  p.num_edges = 20000;
  Result<Graph> g = GenerateRmat(p, 123);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(EdgeRegistryTest, SixPartitionersInPaperOrder) {
  auto all = AllEdgePartitioners();
  ASSERT_EQ(all.size(), 6u);
  std::vector<std::string> names;
  for (auto id : all) names.push_back(MakeEdgePartitioner(id)->name());
  EXPECT_EQ(names, (std::vector<std::string>{"Random", "DBH", "HDRF", "2PS-L",
                                             "HEP10", "HEP100"}));
}

TEST(EdgeRegistryTest, ParseNames) {
  for (auto id : AllEdgePartitioners()) {
    auto name = MakeEdgePartitioner(id)->name();
    Result<EdgePartitionerId> parsed = ParseEdgePartitionerName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_FALSE(ParseEdgePartitionerName("NotAPartitioner").ok());
}

TEST(EdgeRegistryTest, CategoriesMatchPaperTable2) {
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kRandom)->category(),
            "stateless streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kDbh)->category(),
            "stateless streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kHdrf)->category(),
            "stateful streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kTwoPsL)->category(),
            "stateful streaming");
  EXPECT_EQ(MakeEdgePartitioner(EdgePartitionerId::kHep10)->category(),
            "hybrid");
}

class EdgePartitionerParamTest
    : public ::testing::TestWithParam<EdgePartitionerId> {};

TEST_P(EdgePartitionerParamTest, EveryEdgeAssignedExactlyOnce) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  for (PartitionId k : {1u, 4u, 32u}) {
    Result<EdgePartitioning> parts = partitioner->Partition(g, k, 42);
    ASSERT_TRUE(parts.ok()) << partitioner->name() << ": " << parts.status();
    ASSERT_EQ(parts->assignment.size(), g.num_edges());
    for (PartitionId p : parts->assignment) EXPECT_LT(p, k);
    auto counts = parts->EdgeCounts();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    EXPECT_EQ(total, g.num_edges());
  }
}

TEST_P(EdgePartitionerParamTest, DeterministicInSeed) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  Result<EdgePartitioning> a = partitioner->Partition(g, 8, 42);
  Result<EdgePartitioning> b = partitioner->Partition(g, 8, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
}

TEST_P(EdgePartitionerParamTest, RejectsInvalidK) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  EXPECT_FALSE(partitioner->Partition(g, 0, 42).ok());
  EXPECT_FALSE(partitioner->Partition(g, 65, 42).ok());
}

TEST_P(EdgePartitionerParamTest, KEqualsOneIsTrivial) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  Result<EdgePartitioning> parts = partitioner->Partition(g, 1, 42);
  ASSERT_TRUE(parts.ok());
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(g, *parts);
  // RF is normalized by |V| (paper definition), so isolated vertices keep
  // it slightly below 1 even for k = 1.
  EXPECT_LE(m.replication_factor, 1.0);
  EXPECT_GT(m.replication_factor, 0.9);
  EXPECT_DOUBLE_EQ(m.edge_balance, 1.0);
}

TEST_P(EdgePartitionerParamTest, EdgeBalanceWithinBound) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  Result<EdgePartitioning> parts = partitioner->Partition(g, 8, 42);
  ASSERT_TRUE(parts.ok());
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(g, *parts);
  // The paper observes edge balance <= 1.11 for all edge partitioners; we
  // allow a slightly wider envelope for the hash-based ones at this scale.
  EXPECT_LE(m.edge_balance, 1.25) << partitioner->name();
}

TEST_P(EdgePartitionerParamTest, PassesFullValidation) {
  Graph g = TestGraph();
  auto partitioner = MakeEdgePartitioner(GetParam());
  for (PartitionId k : {2u, 8u}) {
    Result<EdgePartitioning> parts = partitioner->Partition(g, k, 42);
    ASSERT_TRUE(parts.ok());
    EXPECT_TRUE(FullyValidEdgePartitioning(g, *parts))
        << partitioner->name() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEdgePartitioners, EdgePartitionerParamTest,
    ::testing::ValuesIn(AllEdgePartitioners()),
    [](const ::testing::TestParamInfo<EdgePartitionerId>& info) {
      std::string name = MakeEdgePartitioner(info.param)->name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(EdgePartitionerQualityTest, AdvancedPartitionersBeatRandom) {
  Graph g = TestGraph();
  auto random = MakeEdgePartitioner(EdgePartitionerId::kRandom)
                    ->Partition(g, 16, 42);
  ASSERT_TRUE(random.ok());
  double rf_random =
      ComputeEdgePartitionMetrics(g, *random).replication_factor;
  for (auto id : {EdgePartitionerId::kDbh, EdgePartitionerId::kHdrf,
                  EdgePartitionerId::kTwoPsL, EdgePartitionerId::kHep10,
                  EdgePartitionerId::kHep100}) {
    auto partitioner = MakeEdgePartitioner(id);
    auto parts = partitioner->Partition(g, 16, 42);
    ASSERT_TRUE(parts.ok());
    double rf = ComputeEdgePartitionMetrics(g, *parts).replication_factor;
    EXPECT_LT(rf, rf_random) << partitioner->name();
  }
}

TEST(EdgePartitionerQualityTest, Hep100BeatsStreamingPartitioners) {
  // Paper Fig. 2: HEP100 always achieves the lowest replication factor.
  Graph g = TestGraph();
  auto hep = MakeEdgePartitioner(EdgePartitionerId::kHep100)
                 ->Partition(g, 16, 42);
  ASSERT_TRUE(hep.ok());
  double rf_hep = ComputeEdgePartitionMetrics(g, *hep).replication_factor;
  for (auto id : {EdgePartitionerId::kRandom, EdgePartitionerId::kDbh,
                  EdgePartitionerId::kHdrf}) {
    auto parts = MakeEdgePartitioner(id)->Partition(g, 16, 42);
    ASSERT_TRUE(parts.ok());
    EXPECT_LT(rf_hep,
              ComputeEdgePartitionMetrics(g, *parts).replication_factor)
        << MakeEdgePartitioner(id)->name();
  }
}

TEST(EdgePartitionerQualityTest, MorePartitionsRaiseReplicationFactor) {
  // Paper: "more partitions lead to larger replication factors".
  Graph g = TestGraph();
  for (auto id : AllEdgePartitioners()) {
    auto partitioner = MakeEdgePartitioner(id);
    auto p4 = partitioner->Partition(g, 4, 42);
    auto p32 = partitioner->Partition(g, 32, 42);
    ASSERT_TRUE(p4.ok() && p32.ok());
    EXPECT_LE(ComputeEdgePartitionMetrics(g, *p4).replication_factor,
              ComputeEdgePartitionMetrics(g, *p32).replication_factor + 1e-9)
        << partitioner->name();
  }
}

TEST(HepTest, NamesEncodeTau) {
  EXPECT_EQ(HepPartitioner(10.0).name(), "HEP10");
  EXPECT_EQ(HepPartitioner(100.0).name(), "HEP100");
}

TEST(HepTest, RejectsNonPositiveTau) {
  Graph g = TestGraph();
  HepPartitioner hep(0.0);
  EXPECT_FALSE(hep.Partition(g, 4, 42).ok());
}

TEST(HepTest, RejectsNonPositiveLambda) {
  // Scoring only the candidate partitions needs a balance term that falls
  // strictly with load.
  Graph g = TestGraph();
  EXPECT_FALSE(HepPartitioner(10.0, 1.05, 0.0).Partition(g, 4, 42).ok());
}

TEST(HdrfTest, RejectsOutOfRangeParameters) {
  // Scoring only the candidate partitions needs a balance term that never
  // rises with load: lambda >= 0 and a positive denominator
  // epsilon + (max_load - min_load), hence epsilon > 0.
  Graph g = TestGraph();
  EXPECT_FALSE(HdrfPartitioner(-1.0).Partition(g, 4, 42).ok());
  EXPECT_TRUE(HdrfPartitioner(0.0).Partition(g, 4, 42).ok());
  EXPECT_FALSE(HdrfPartitioner(1.1, 0.0).Partition(g, 4, 42).ok());
  EXPECT_FALSE(HdrfPartitioner(1.1, -1.0).Partition(g, 4, 42).ok());
}

TEST(HepTest, LargerTauGivesLowerReplicationFactor) {
  Graph g = TestGraph();
  auto p10 = HepPartitioner(10.0).Partition(g, 16, 42);
  auto p100 = HepPartitioner(100.0).Partition(g, 16, 42);
  ASSERT_TRUE(p10.ok() && p100.ok());
  EXPECT_LE(ComputeEdgePartitionMetrics(g, *p100).replication_factor,
            ComputeEdgePartitionMetrics(g, *p10).replication_factor + 0.05);
}

TEST(DbhTest, HashesLowDegreeEndpoint) {
  // Star graph: every edge touches the hub; DBH must hash the leaf, so all
  // edges with the same leaf land together, and the hub is replicated.
  GraphBuilder b(101, false);
  for (VertexId v = 1; v <= 100; ++v) b.AddEdge(0, v);
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  auto parts = MakeEdgePartitioner(EdgePartitionerId::kDbh)
                   ->Partition(*g, 4, 42);
  ASSERT_TRUE(parts.ok());
  EdgePartitionMetrics m = ComputeEdgePartitionMetrics(*g, *parts);
  // Leaves have replication factor 1; only the hub is replicated (to at
  // most 4 partitions): RF <= (100 * 1 + 4) / 101.
  EXPECT_LE(m.replication_factor, 1.05);
}

TEST(EmptyGraphTest, PartitionersRejectEmptyEdgeSet) {
  GraphBuilder b(5, false);
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  for (auto id : AllEdgePartitioners()) {
    EXPECT_FALSE(MakeEdgePartitioner(id)->Partition(*g, 4, 42).ok());
  }
}

// FNV-1a 64 over an edge assignment, each PartitionId as 4 little-endian
// bytes. HDRF's and HEP's outputs are pinned by these digests: any change
// to their scoring, tie-breaks, RNG draws or expansion order shows up here.
std::string AssignmentDigest(const std::vector<PartitionId>& assignment) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (PartitionId p : assignment) {
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

// Counter value of one partitioner's obs row; 0 if the partitioner never
// emits it (HDRF has no in-memory phase).
uint64_t PartitionCounter(const std::string& partitioner,
                          const std::string& counter) {
  const std::string name = "partition/edge/" + partitioner + "/" + counter;
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

// One pinned run: the assignment digest plus the deterministic work
// counters, which must keep their values when the implementation changes.
struct EdgePin {
  std::string digest;
  uint64_t score_evals;
  uint64_t in_memory_edges;
  uint64_t streamed_edges;
  bool operator==(const EdgePin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const EdgePin& pin) {
  return os << "{\"" << pin.digest << "\", " << pin.score_evals << ", "
            << pin.in_memory_edges << ", " << pin.streamed_edges << "}";
}

EdgePin PinOf(const std::string& name,
              const std::vector<PartitionId>& assignment) {
  return {AssignmentDigest(assignment), PartitionCounter(name, "score_evals"),
          PartitionCounter(name, "in_memory_edges"),
          PartitionCounter(name, "streamed_edges")};
}

EdgePin RunPinned(const EdgePartitioner& partitioner, const Graph& graph,
                  PartitionId k) {
  obs::ResetForTest();
  Result<EdgePartitioning> parts = partitioner.Partition(graph, k, 42);
  EXPECT_TRUE(parts.ok()) << parts.status();
  if (!parts.ok()) return {};
  return PinOf(partitioner.name(), parts->assignment);
}

struct EdgePinnedCase {
  DatasetId dataset;
  PartitionId k;
  EdgePin hdrf;
  EdgePin hep10;
  EdgePin hep100;
};

TEST(EdgePinnedTest, HdrfAndHepAssignmentsOnDatasets) {
  // k = 64 scores with the full partition mask; k = 1 is the degenerate
  // single-partition stream.
  const EdgePinnedCase cases[] = {
      {DatasetId::kEnwiki, 8,
       {"771256d776c0acc0", 163160, 0, 0},
       {"54b50c66d46d8a45", 28056, 16888, 3507},
       {"a1a5ce4c03cddd63", 0, 20395, 0}},
      {DatasetId::kOrkut, 32,
       {"4f08fcfb5bba6343", 475936, 0, 0},
       {"a6178c40c300b99a", 34464, 13796, 1077},
       {"d157739ad871a21e", 0, 14873, 0}},
      {DatasetId::kEnwiki, 64,
       {"87a7a14af3bda37b", 1305280, 0, 0},
       {"1800dd836e3d12f7", 224392, 16888, 3507},
       {"1a8c8d0b60c0ea28", 0, 20395, 0}},
      {DatasetId::kOrkut, 4,
       {"9e209508d115fac6", 59492, 0, 0},
       {"922deb1db846f6e5", 4308, 13796, 1077},
       {"56be269f97f9a6c4", 0, 14873, 0}},
      {DatasetId::kOrkut, 1,
       {"c46b2313bd95a375", 14873, 0, 0},
       {"c46b2313bd95a375", 1077, 13796, 1077},
       {"c46b2313bd95a375", 0, 14873, 0}},
  };
  auto hdrf = MakeEdgePartitioner(EdgePartitionerId::kHdrf);
  auto hep10 = MakeEdgePartitioner(EdgePartitionerId::kHep10);
  auto hep100 = MakeEdgePartitioner(EdgePartitionerId::kHep100);
  for (const EdgePinnedCase& c : cases) {
    Result<Graph> g = MakeDataset(c.dataset, 0.05, 42);
    ASSERT_TRUE(g.ok());
    const std::string where =
        DatasetCode(c.dataset) + " k=" + std::to_string(c.k);
    EXPECT_EQ(RunPinned(*hdrf, *g, c.k), c.hdrf) << where << " HDRF";
    EXPECT_EQ(RunPinned(*hep10, *g, c.k), c.hep10) << where << " HEP10";
    EXPECT_EQ(RunPinned(*hep100, *g, c.k), c.hep100) << where << " HEP100";
  }
}

TEST(EdgePinnedTest, HepWithTightCapFallsBackToLeastLoaded) {
  // With alpha < 1 the caps hold less than the whole stream. At alpha = 0.5
  // the in-memory phase already overfills every partition, so each streamed
  // edge takes the all-capped fallback. At alpha = 0.9 the streaming phase
  // first fills the open partitions up to the cap, then falls back.
  Result<Graph> g = MakeDataset(DatasetId::kEnwiki, 0.05, 42);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(RunPinned(HepPartitioner(10.0, /*alpha=*/0.5), *g, 8),
            (EdgePin{"fbdd3f6e1b4a7d66", 0, 16888, 3507}));
  EXPECT_EQ(RunPinned(HepPartitioner(10.0, /*alpha=*/0.9), *g, 8),
            (EdgePin{"4c6bb59e9671d4e6", 11734, 16888, 3507}));
}

TEST(EdgePinnedTest, LambdaExtremes) {
  // lambda = 0 leaves only the replication term, so the least-loaded
  // partition wins on its load tie-break; lambda = 20 makes the balance
  // term dominate, so the least-loaded partition often beats every
  // partition that holds an endpoint.
  Result<Graph> g = MakeDataset(DatasetId::kEnwiki, 0.05, 42);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(RunPinned(HdrfPartitioner(0.0), *g, 8),
            (EdgePin{"b2a21fe9b39a4977", 163160, 0, 0}));
  EXPECT_EQ(RunPinned(HdrfPartitioner(20.0), *g, 8),
            (EdgePin{"2fb23b175b65ae54", 163160, 0, 0}));
  EXPECT_EQ(RunPinned(HepPartitioner(10.0, 1.05, /*lambda=*/20.0), *g, 8),
            (EdgePin{"df367b13978826a6", 28056, 16888, 3507}));
}

TEST(EdgePinnedTest, PartitionStreamOnShuffledSubStream) {
  // A split-merge shard: the middle half of the edge list in shuffled
  // order, partitioned by a direct PartitionStream call.
  Result<Graph> g = MakeDataset(DatasetId::kOrkut, 0.05, 42);
  ASSERT_TRUE(g.ok());
  const size_t m = g->num_edges();
  std::vector<EdgeId> stream(m / 2);
  std::iota(stream.begin(), stream.end(), m / 4);
  Rng(7).Shuffle(&stream);
  const HdrfPartitioner hdrf;
  const HepPartitioner hep10(10.0);
  const HepPartitioner hep100(100.0);
  const std::pair<const StreamingEdgePartitioner*, EdgePin> cases[] = {
      {&hdrf, {"a1e953a1a04b4ec0", 118976, 0, 0}},
      {&hep10, {"b7f1c684dc4247cf", 13008, 6623, 813}},
      {&hep100, {"6e58a55e0438dc76", 0, 7436, 0}},
  };
  for (const auto& [partitioner, expected] : cases) {
    obs::ResetForTest();
    std::vector<PartitionId> assignment(m, kInvalidPartition);
    Rng rng(11);
    ASSERT_TRUE(
        partitioner->PartitionStream(*g, stream, 16, &rng, &assignment).ok());
    EXPECT_EQ(PinOf(partitioner->name(), assignment), expected)
        << partitioner->name();
  }
}

}  // namespace
}  // namespace gnnpart
