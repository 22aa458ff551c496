#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/degree_stats.h"

namespace gnnpart {
namespace {

TEST(DatasetsTest, AllFiveDatasetsExist) {
  auto all = AllDatasets();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(DatasetCode(all[0]), "HW");
  EXPECT_EQ(DatasetCode(all[1]), "DI");
  EXPECT_EQ(DatasetCode(all[2]), "EN");
  EXPECT_EQ(DatasetCode(all[3]), "EU");
  EXPECT_EQ(DatasetCode(all[4]), "OR");
}

TEST(DatasetsTest, DirectednessMatchesPaperTable1) {
  EXPECT_FALSE(DatasetDirected(DatasetId::kHollywood));
  EXPECT_TRUE(DatasetDirected(DatasetId::kDimacsUsa));
  EXPECT_TRUE(DatasetDirected(DatasetId::kEnwiki));
  EXPECT_TRUE(DatasetDirected(DatasetId::kEu));
  EXPECT_FALSE(DatasetDirected(DatasetId::kOrkut));
}

TEST(DatasetsTest, ParseCodeRoundTrip) {
  for (DatasetId id : AllDatasets()) {
    Result<DatasetId> parsed = ParseDatasetCode(DatasetCode(id));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_TRUE(ParseDatasetCode("or").ok());  // case-insensitive
  EXPECT_FALSE(ParseDatasetCode("XX").ok());
}

TEST(DatasetsTest, GeneratedGraphCarriesName) {
  Result<Graph> g = MakeDataset(DatasetId::kOrkut, 0.05, 42);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->name(), "OR");
}

TEST(DatasetsTest, ScaleControlsSize) {
  Result<Graph> small = MakeDataset(DatasetId::kEnwiki, 0.02, 42);
  Result<Graph> large = MakeDataset(DatasetId::kEnwiki, 0.08, 42);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->num_edges(), 2 * small->num_edges());
  EXPECT_GT(large->num_vertices(), 2 * small->num_vertices());
}

TEST(DatasetsTest, RejectsNonPositiveScale) {
  EXPECT_FALSE(MakeDataset(DatasetId::kOrkut, 0.0, 1).ok());
  EXPECT_FALSE(MakeDataset(DatasetId::kOrkut, -1.0, 1).ok());
}

// Scales that are not finite, or whose vertex count does not fit VertexId,
// fail by name before anything is allocated (1e6 asks for 2.4e10 to
// 4.8e10 vertices, so a check after allocation would not return at all).
TEST(DatasetsTest, RejectsHostileScaleByName) {
  const double inf = std::numeric_limits<double>::infinity();
  for (DatasetId id : AllDatasets()) {
    for (double scale : {std::nan(""), inf, -inf, 0.0, -1.0, 1e6, 1e30,
                         std::numeric_limits<double>::max()}) {
      Result<Graph> g = MakeDataset(id, scale, 1);
      ASSERT_FALSE(g.ok()) << DatasetCode(id) << " scale " << scale;
      EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(g.status().message().find("gen/dataset-size"),
                std::string::npos)
          << g.status();
    }
  }
}

TEST(DatasetsTest, DeterministicInSeed) {
  Result<Graph> a = MakeDataset(DatasetId::kEu, 0.02, 5);
  Result<Graph> b = MakeDataset(DatasetId::kEu, 0.02, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->edges(), b->edges());
}

TEST(DatasetsTest, RoadSubstituteHasRoadStructure) {
  Result<Graph> di = MakeDataset(DatasetId::kDimacsUsa, 0.25, 42);
  Result<Graph> ork = MakeDataset(DatasetId::kOrkut, 0.25, 42);
  ASSERT_TRUE(di.ok() && ork.ok());
  DegreeStats sdi = ComputeDegreeStats(*di);
  DegreeStats sor = ComputeDegreeStats(*ork);
  // The category-defining contrast the paper relies on: the road network
  // has tiny mean degree and almost no skew; the social graph is dense and
  // heavy-tailed.
  EXPECT_LT(sdi.mean_degree, 6.0);
  EXPECT_LT(sdi.skew, 0.5);
  EXPECT_GT(sor.mean_degree, 5 * sdi.mean_degree);
  EXPECT_GT(sor.skew, 4 * sdi.skew);
}

TEST(DatasetsTest, PowerLawSubstitutesAreSkewed) {
  for (DatasetId id : {DatasetId::kHollywood, DatasetId::kEnwiki,
                       DatasetId::kEu, DatasetId::kOrkut}) {
    Result<Graph> g = MakeDataset(id, 0.1, 42);
    ASSERT_TRUE(g.ok()) << DatasetCode(id) << ": " << g.status();
    DegreeStats s = ComputeDegreeStats(*g);
    EXPECT_GT(s.skew, 1.0) << DatasetCode(id);
    EXPECT_GT(s.top1pct_degree_share, 0.07) << DatasetCode(id);
  }
}

// FNV-1a 64 over a canonical edge array, each endpoint as 4 little-endian
// bytes (src, then dst).
uint64_t EdgeDigest(const std::vector<Edge>& edges) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) {
    for (VertexId v : {e.src, e.dst}) {
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (v >> (8 * byte)) & 0xFF;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

// Every generated dataset is pinned by (|V|, |E|, edge digest) at a small
// scale and two seeds, so any drift in a generator's RNG draws, weights or
// lookup shows up here, not only on the datasets a benchmark happens to use.
TEST(DatasetsTest, PinnedEdgeDigests) {
  struct Pin {
    DatasetId id;
    uint64_t seed;
    size_t vertices;
    size_t edges;
    uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {DatasetId::kHollywood, 1, 1600, 13024, 0xc350b0e5298577c1ULL},
      {DatasetId::kHollywood, 42, 1600, 12912, 0x1077469be3c6a2f3ULL},
      {DatasetId::kDimacsUsa, 1, 2401, 9248, 0xcf38583e02264088ULL},
      {DatasetId::kDimacsUsa, 42, 2401, 9249, 0x6864ee2eab3c6c01ULL},
      {DatasetId::kEnwiki, 1, 2000, 20358, 0xab11488dee3f1afdULL},
      {DatasetId::kEnwiki, 42, 2000, 20395, 0x8ddaad05ffb0a8e0ULL},
      {DatasetId::kEu, 1, 2200, 15993, 0xc6453e1cb5f97b91ULL},
      {DatasetId::kEu, 42, 2200, 15777, 0xd36586abb7ac9defULL},
      {DatasetId::kOrkut, 1, 1200, 14724, 0xca887001b0843b79ULL},
      {DatasetId::kOrkut, 42, 1200, 14873, 0x725b116c996bddf7ULL},
  };
  ASSERT_EQ(pins.size(), 2 * AllDatasets().size());
  for (const Pin& pin : pins) {
    Result<Graph> g = MakeDataset(pin.id, 0.05, pin.seed);
    ASSERT_TRUE(g.ok()) << g.status();
    SCOPED_TRACE(DatasetCode(pin.id) + " seed " + std::to_string(pin.seed));
    EXPECT_EQ(g->num_vertices(), pin.vertices);
    EXPECT_EQ(g->num_edges(), pin.edges);
    EXPECT_EQ(EdgeDigest(g->edges()), pin.digest);
  }
}

TEST(DatasetsTest, WebGraphIsMostSkewed) {
  Result<Graph> eu = MakeDataset(DatasetId::kEu, 0.1, 42);
  Result<Graph> ork = MakeDataset(DatasetId::kOrkut, 0.1, 42);
  ASSERT_TRUE(eu.ok() && ork.ok());
  EXPECT_GT(ComputeDegreeStats(*eu).skew, ComputeDegreeStats(*ork).skew);
}

}  // namespace
}  // namespace gnnpart
