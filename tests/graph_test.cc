#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/degree_stats.h"
#include "graph/graph.h"
#include "graph/split.h"

namespace gnnpart {
namespace {

Graph MustBuild(GraphBuilder* builder, const std::string& name = "") {
  Result<Graph> g = builder->Build(name);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(0, false);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, SimpleTriangle) {
  GraphBuilder b(3, false);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph g = MustBuild(&b, "triangle");
  EXPECT_EQ(g.name(), "triangle");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(GraphBuilderTest, RemovesSelfLoops) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, DeduplicatesUndirectedEdges) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edges()[0].src, 0u);
  EXPECT_EQ(g.edges()[0].dst, 1u);
}

TEST(GraphBuilderTest, DirectedKeepsReciprocalArcs) {
  GraphBuilder b(2, true);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.num_edges(), 2u);
  // Symmetrized adjacency still lists each neighbour once.
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 5);
  Result<Graph> g = b.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, NeighborsAreSortedUnique) {
  GraphBuilder b(5, false);
  b.AddEdge(2, 4);
  b.AddEdge(2, 1);
  b.AddEdge(2, 3);
  b.AddEdge(3, 2);  // duplicate in reverse
  Graph g = MustBuild(&b);
  auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(nbrs[2], 4u);
}

TEST(GraphBuilderTest, IsolatedVerticesHaveZeroDegree) {
  GraphBuilder b(4, false);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(GraphTest, MeanAndMaxDegree) {
  GraphBuilder b(4, false);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  Graph g = MustBuild(&b);
  EXPECT_EQ(g.MaxDegree(), 3u);
  EXPECT_DOUBLE_EQ(g.MeanDegree(), 6.0 / 4.0);
}

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  GraphBuilder b(2, false);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_FALSE(g.HasEdge(0, 7));
  EXPECT_FALSE(g.HasEdge(9, 1));
}

TEST(GraphTest, MemoryBytesIsPositive) {
  GraphBuilder b(3, false);
  b.AddEdge(0, 1);
  Graph g = MustBuild(&b);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

// ------------------------------------------------------------ DegreeStats

TEST(DegreeStatsTest, StarGraphIsSkewed) {
  GraphBuilder b(101, false);
  for (VertexId v = 1; v <= 100; ++v) b.AddEdge(0, v);
  Graph g = MustBuild(&b);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.max_degree, 100u);
  EXPECT_GT(s.skew, 3.0);
  EXPECT_GT(s.top1pct_degree_share, 0.4);
}

TEST(DegreeStatsTest, RingGraphIsRegular) {
  const size_t n = 100;
  GraphBuilder b(n, false);
  for (VertexId v = 0; v < n; ++v) b.AddEdge(v, (v + 1) % n);
  Graph g = MustBuild(&b);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_DOUBLE_EQ(s.mean_degree, 2.0);
  EXPECT_NEAR(s.skew, 0.0, 1e-12);
}

TEST(DegreeStatsTest, LogHistogramBuckets) {
  GraphBuilder b(10, false);
  // vertex 0 has degree 5 -> bucket 2 ([4,8)).
  for (VertexId v = 1; v <= 5; ++v) b.AddEdge(0, v);
  Graph g = MustBuild(&b);
  auto hist = LogDegreeHistogram(g);
  ASSERT_GE(hist.size(), 3u);
  EXPECT_EQ(hist[2], 1u);  // the hub
  EXPECT_EQ(hist[0], 9u);  // degree-1 leaves + isolated... leaves only
}

TEST(DegreeStatsTest, EmptyGraph) {
  GraphBuilder b(0, false);
  Graph g = MustBuild(&b);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.mean_degree, 0.0);
}

// ------------------------------------------------------------ VertexSplit

TEST(VertexSplitTest, FractionsRoughlyRespected) {
  VertexSplit split = VertexSplit::MakeRandom(10000, 0.1, 0.1, 42);
  EXPECT_NEAR(split.train_vertices().size(), 1000, 120);
  EXPECT_NEAR(split.validation_vertices().size(), 1000, 120);
  EXPECT_NEAR(split.test_vertices().size(), 8000, 250);
  EXPECT_EQ(split.train_vertices().size() + split.validation_vertices().size() +
                split.test_vertices().size(),
            10000u);
}

TEST(VertexSplitTest, DeterministicInSeed) {
  VertexSplit a = VertexSplit::MakeRandom(1000, 0.1, 0.1, 7);
  VertexSplit b = VertexSplit::MakeRandom(1000, 0.1, 0.1, 7);
  EXPECT_EQ(a.train_vertices(), b.train_vertices());
  VertexSplit c = VertexSplit::MakeRandom(1000, 0.1, 0.1, 8);
  EXPECT_NE(a.train_vertices(), c.train_vertices());
}

TEST(VertexSplitTest, RolesConsistentWithLists) {
  VertexSplit split = VertexSplit::MakeRandom(500, 0.2, 0.3, 3);
  for (VertexId v : split.train_vertices()) {
    EXPECT_TRUE(split.IsTrain(v));
    EXPECT_EQ(split.RoleOf(v), VertexRole::kTrain);
  }
  for (VertexId v : split.validation_vertices()) {
    EXPECT_EQ(split.RoleOf(v), VertexRole::kValidation);
  }
  for (VertexId v : split.test_vertices()) {
    EXPECT_EQ(split.RoleOf(v), VertexRole::kTest);
  }
}

// ------------------------------------------------------ FromCanonicalEdges

TEST(GraphFromCanonicalEdgesTest, EqualsBuilderOutput) {
  GraphBuilder b(6, true);
  for (auto [u, v] : {std::pair{4, 0}, {0, 1}, {1, 0}, {2, 3}, {1, 3}}) {
    b.AddEdge(u, v);
  }
  Graph built = MustBuild(&b, "g");
  Result<Graph> g = Graph::FromCanonicalEdges("g", true, 6, built.edges());
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->edges(), built.edges());
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_TRUE(std::ranges::equal(g->Neighbors(v), built.Neighbors(v))) << v;
  }
}

TEST(GraphFromCanonicalEdgesTest, RejectsEveryNonCanonicalForm) {
  struct Case {
    const char* what;
    bool directed;
    size_t n;
    std::vector<Edge> edges;
    const char* fault;
  };
  const std::vector<Case> cases = {
      {"unsorted", true, 4, {{0, 2}, {0, 1}}, "strictly follow"},
      {"duplicate", true, 4, {{0, 1}, {0, 1}}, "strictly follow"},
      {"unsorted sources", true, 4, {{1, 2}, {0, 3}}, "strictly follow"},
      {"self-loop", true, 4, {{0, 1}, {2, 2}}, "self-loop"},
      {"dst out of range", true, 4, {{0, 4}}, "out of range"},
      {"src out of range", true, 4, {{9, 1}}, "out of range"},
      {"src > dst undirected", false, 4, {{0, 1}, {3, 2}}, "src > dst"},
  };
  for (const Case& c : cases) {
    Result<Graph> g =
        Graph::FromCanonicalEdges("", c.directed, c.n, c.edges);
    ASSERT_FALSE(g.ok()) << c.what;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_NE(g.status().message().find("graph/canonical: edge"),
              std::string::npos)
        << c.what << ": " << g.status();
    EXPECT_NE(g.status().message().find(c.fault), std::string::npos)
        << c.what << ": " << g.status();
  }
  Result<Graph> huge =
      Graph::FromCanonicalEdges("", true, size_t{kInvalidVertex} + 1, {});
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("graph/canonical: |V|"),
            std::string::npos)
      << huge.status();
}

// --- Differential oracle: the sort-based builder, kept verbatim.
//
// ReferenceBuild is GraphBuilder::Build as it stood before construction
// became O(n + m): std::sort plus unique over the canonicalized edges, then
// a per-vertex sort + unique of the symmetrized adjacency. The counting-sort
// builder must reproduce its offsets, neighbours and edge list exactly, and
// its out-of-range error text.
namespace oracle {

Result<Graph> ReferenceBuild(size_t num_vertices_, bool directed_,
                             std::vector<Edge> raw_edges_,
                             std::string name) {
  for (const Edge& e : raw_edges_) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") with |V|=" + std::to_string(num_vertices_));
    }
  }

  // Canonicalize: drop self-loops; for undirected graphs order endpoints.
  std::vector<Edge> edges;
  edges.reserve(raw_edges_.size());
  for (const Edge& e : raw_edges_) {
    if (e.src == e.dst) continue;
    if (!directed_ && e.src > e.dst) {
      edges.push_back({e.dst, e.src});
    } else {
      edges.push_back(e);
    }
  }
  raw_edges_.clear();
  raw_edges_.shrink_to_fit();

  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<uint64_t> offsets;
  std::vector<VertexId> neighbors;
  std::vector<uint64_t> degree(num_vertices_ + 1, 0);
  for (const Edge& e : edges) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  offsets.assign(num_vertices_ + 1, 0);
  for (size_t v = 0; v < num_vertices_; ++v) {
    offsets[v + 1] = offsets[v] + degree[v];
  }
  neighbors.resize(offsets[num_vertices_]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    neighbors[cursor[e.src]++] = e.dst;
    neighbors[cursor[e.dst]++] = e.src;
  }
  // Sort + dedup each neighbourhood (dedup handles directed reciprocal arcs).
  uint64_t write = 0;
  std::vector<uint64_t> new_offsets(num_vertices_ + 1, 0);
  for (size_t v = 0; v < num_vertices_; ++v) {
    auto begin = neighbors.begin() + static_cast<int64_t>(offsets[v]);
    auto end = neighbors.begin() + static_cast<int64_t>(offsets[v + 1]);
    std::sort(begin, end);
    auto last = std::unique(begin, end);
    new_offsets[v] = write;
    for (auto it = begin; it != last; ++it) {
      neighbors[write++] = *it;
    }
  }
  new_offsets[num_vertices_] = write;
  neighbors.resize(write);
  neighbors.shrink_to_fit();
  offsets = std::move(new_offsets);
  return Graph::FromRawPartsForTest(std::move(name), directed_,
                                    std::move(offsets), std::move(neighbors),
                                    std::move(edges));
}

}  // namespace oracle

// Builds `raw` with both builders and asserts byte-equal results: the edge
// list, every vertex's offset (relative to vertex 0's) and neighbourhood.
void ExpectBuildersAgree(size_t n, bool directed, const std::vector<Edge>& raw,
                         const std::string& what) {
  SCOPED_TRACE(what + (directed ? " (directed)" : " (undirected)"));
  GraphBuilder builder(n, directed);
  for (const Edge& e : raw) builder.AddEdge(e.src, e.dst);
  Result<Graph> got = builder.Build("g");
  Result<Graph> want = oracle::ReferenceBuild(n, directed, raw, "g");
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(builder.pending_edges(), 0u);
  ASSERT_EQ(got->num_vertices(), want->num_vertices());
  EXPECT_EQ(got->name(), want->name());
  EXPECT_EQ(got->directed(), want->directed());
  EXPECT_EQ(got->edges(), want->edges());
  EXPECT_EQ(got->edges().capacity(), got->edges().size());
  EXPECT_EQ(got->MemoryBytes(), want->MemoryBytes());
  if (n == 0) return;
  const VertexId* got_base = got->Neighbors(0).data();
  const VertexId* want_base = want->Neighbors(0).data();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(got->Neighbors(v).data() - got_base,
              want->Neighbors(v).data() - want_base)
        << "offset of vertex " << v;
    ASSERT_TRUE(std::ranges::equal(got->Neighbors(v), want->Neighbors(v)))
        << "neighbours of vertex " << v;
  }
}

// A raw list with the same canonical edges as `edges`, made hard to build:
// shuffled, with duplicates, reversed pairs and self-loops mixed in.
std::vector<Edge> Scramble(const std::vector<Edge>& edges, size_t n,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Edge> raw;
  raw.reserve(2 * edges.size() + 16);
  for (const Edge& e : edges) {
    raw.push_back(e);
    switch (rng() % 8) {
      case 0: raw.push_back(e); break;                // duplicate
      case 1: raw.push_back({e.dst, e.src}); break;   // reversed pair
      case 2: raw.push_back({e.src, e.src}); break;   // self-loop
      default: break;
    }
  }
  for (size_t i = 0; i < 8 && n > 0; ++i) {
    const auto v = static_cast<VertexId>(rng() % n);
    raw.push_back({v, v});
  }
  std::shuffle(raw.begin(), raw.end(), rng);
  return raw;
}

TEST(GraphBuilderOracleTest, EveryGeneratorBothDirections) {
  std::vector<std::pair<std::string, Result<Graph>>> generated;
  for (bool directed : {false, true}) {
    const std::string dir = directed ? "/directed" : "/undirected";
    RmatParams rmat;
    rmat.num_vertices = 600;
    rmat.num_edges = 5000;
    rmat.directed = directed;
    generated.emplace_back("rmat" + dir, GenerateRmat(rmat, 1));
    rmat.connect_isolated = false;
    generated.emplace_back("rmat-isolated" + dir, GenerateRmat(rmat, 2));
    generated.emplace_back("er" + dir,
                           GenerateErdosRenyi(500, 4000, directed, 3));
    PowerLawCommunityParams dcsbm;
    dcsbm.num_vertices = 800;
    dcsbm.num_edges = 6000;
    dcsbm.directed = directed;
    generated.emplace_back("dcsbm" + dir, GeneratePowerLawCommunity(dcsbm, 4));
    RoadParams road;
    road.width = 30;
    road.height = 20;
    road.directed = directed;
    generated.emplace_back("road" + dir, GenerateRoadNetwork(road, 5));
  }
  generated.emplace_back("ba", GenerateBarabasiAlbert(700, 4, 6));
  generated.emplace_back("ws", GenerateWattsStrogatz(600, 3, 0.2, 7));
  for (DatasetId id : AllDatasets()) {
    generated.emplace_back(DatasetCode(id), MakeDataset(id, 0.02, 8));
  }
  {
    Result<Graph> full = MakeDataset(DatasetId::kEnwiki, 0.02, 9);
    ASSERT_TRUE(full.ok()) << full.status();
    std::vector<EdgeId> ids;
    for (EdgeId e = 0; e < full->num_edges(); e += 3) ids.push_back(e);
    generated.emplace_back("induced", InducedEdgeSubgraph(*full, ids));
  }

  uint64_t seed = 100;
  for (const auto& [what, g] : generated) {
    ASSERT_TRUE(g.ok()) << what << ": " << g.status();
    const size_t n = g->num_vertices();
    // The generator's own graph is a fixed point of the reference builder.
    ExpectBuildersAgree(n, g->directed(), g->edges(), what + " as generated");
    Result<Graph> again =
        oracle::ReferenceBuild(n, g->directed(), g->edges(), g->name());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->edges(), g->edges()) << what;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_TRUE(std::ranges::equal(again->Neighbors(v), g->Neighbors(v)))
          << what << " vertex " << v;
    }
    for (bool directed : {false, true}) {
      ExpectBuildersAgree(n, directed, Scramble(g->edges(), n, ++seed),
                          what + " scrambled");
    }
  }
}

TEST(GraphBuilderOracleTest, RandomRawListsAndEdgeCases) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng() % 64;
    const size_t m = rng() % 400;
    std::vector<Edge> raw(m);
    for (Edge& e : raw) {
      // A narrow id range forces duplicates, reciprocal arcs and
      // self-loops; the rest of [0, n) stays isolated.
      const size_t span = 1 + rng() % n;
      e = {static_cast<VertexId>(rng() % span),
           static_cast<VertexId>(rng() % span)};
    }
    for (bool directed : {false, true}) {
      ExpectBuildersAgree(n, directed, raw,
                          "trial " + std::to_string(trial));
    }
  }
  for (bool directed : {false, true}) {
    ExpectBuildersAgree(0, directed, {}, "n=0 m=0");
    ExpectBuildersAgree(1, directed, {}, "n=1 m=0");
    ExpectBuildersAgree(1, directed, {{0, 0}, {0, 0}}, "n=1 self-loops");
    ExpectBuildersAgree(5, directed, {}, "n=5 m=0");
    ExpectBuildersAgree(2, directed, {{1, 0}, {0, 1}, {1, 0}}, "reciprocal");
    ExpectBuildersAgree(3, directed, {{0, 1}, {2, 3}, {1, 2}},
                        "out of range dst");
    ExpectBuildersAgree(3, directed, {{1, 1}, {7, 0}, {0, 9}},
                        "out of range src first");
    ExpectBuildersAgree(0, directed, {{0, 0}}, "n=0 with an edge");
  }
}

}  // namespace
}  // namespace gnnpart
