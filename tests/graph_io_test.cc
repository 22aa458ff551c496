#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/io.h"

namespace gnnpart {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gnnpart_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, ParseEdgeListBasic) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n2 0\n", false);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST_F(GraphIoTest, ParseSkipsComments) {
  Result<Graph> g = ParseEdgeList("# comment\n% other\n0 1\n\n1 2\n", false);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST_F(GraphIoTest, ParseMalformedLineFails) {
  Result<Graph> g = ParseEdgeList("0 1\nnot an edge\n", false);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST_F(GraphIoTest, ParseExplicitVertexCount) {
  Result<Graph> g = ParseEdgeList("0 1\n", false, 10);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 10u);
}

TEST_F(GraphIoTest, ReadMissingFileFails) {
  Result<Graph> g = ReadEdgeListFile(Path("nope.txt"), false);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  Result<Graph> g = ParseEdgeList("0 3\n1 2\n3 2\n0 1\n", true, 5);
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_TRUE(WriteEdgeListFile(*g, Path("g.txt")).ok());
  Result<Graph> h = ReadEdgeListFile(Path("g.txt"), true, 5);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(g->edges(), h->edges());
}

TEST_F(GraphIoTest, BinaryRoundTripPreservesEverything) {
  Result<Graph> parsed = ParseEdgeList("0 1\n2 3\n1 3\n4 0\n", true, 6);
  ASSERT_TRUE(parsed.ok());
  // Rebuild with a name.
  GraphBuilder b(6, true);
  for (const Edge& e : parsed->edges()) b.AddEdge(e.src, e.dst);
  Result<Graph> named = b.Build("test-graph");
  ASSERT_TRUE(named.ok());

  ASSERT_TRUE(WriteBinaryGraph(*named, Path("g.bin")).ok());
  Result<Graph> loaded = ReadBinaryGraph(Path("g.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), "test-graph");
  EXPECT_EQ(loaded->directed(), true);
  EXPECT_EQ(loaded->num_vertices(), 6u);
  EXPECT_EQ(loaded->edges(), named->edges());
}

TEST_F(GraphIoTest, BinaryRejectsGarbage) {
  std::ofstream out(Path("junk.bin"), std::ios::binary);
  out << "this is not a graph file at all, definitely too short";
  out.close();
  Result<Graph> g = ReadBinaryGraph(Path("junk.bin"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n2 3\n", false, 4);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("full.bin")).ok());
  // Truncate the file.
  auto size = std::filesystem::file_size(Path("full.bin"));
  std::filesystem::resize_file(Path("full.bin"), size - 6);
  Result<Graph> h = ReadBinaryGraph(Path("full.bin"));
  ASSERT_FALSE(h.ok());
}

// Overwrites one 64-bit header field of a binary graph file in place.
void PatchHeader(const std::string& path, std::streamoff offset,
                 uint64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Header layout: magic, version, num_vertices, num_edges, directed,
// name_len — one u64 each.
constexpr std::streamoff kNumVerticesOffset = 2 * 8;
constexpr std::streamoff kNumEdgesOffset = 3 * 8;
constexpr std::streamoff kNameLenOffset = 5 * 8;

TEST_F(GraphIoTest, BinaryRejectsNameLongerThanFile) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n", false, 3);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("name.bin")).ok());
  PatchHeader(Path("name.bin"), kNameLenOffset, uint64_t{1} << 62);
  Result<Graph> h = ReadBinaryGraph(Path("name.bin"));
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kIoError);
  EXPECT_NE(h.status().message().find("graph/binary-size: name_len"),
            std::string::npos)
      << h.status();
}

TEST_F(GraphIoTest, BinaryRejectsEdgeCountLargerThanFile) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n", false, 3);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("edges.bin")).ok());
  PatchHeader(Path("edges.bin"), kNumEdgesOffset, uint64_t{1} << 61);
  Result<Graph> h = ReadBinaryGraph(Path("edges.bin"));
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kIoError);
  EXPECT_NE(h.status().message().find("graph/binary-size: num_edges"),
            std::string::npos)
      << h.status();
}

TEST_F(GraphIoTest, BinaryRejectsVertexCountBeyondVertexIdRange) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n", false, 3);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("vertices.bin")).ok());
  for (uint64_t num_vertices :
       {uint64_t{1} << 61, (uint64_t{1} << 32) + 5, uint64_t{1} << 32}) {
    PatchHeader(Path("vertices.bin"), kNumVerticesOffset, num_vertices);
    Result<Graph> h = ReadBinaryGraph(Path("vertices.bin"));
    ASSERT_FALSE(h.ok()) << num_vertices;
    EXPECT_EQ(h.status().code(), StatusCode::kIoError);
    EXPECT_NE(h.status().message().find("graph/binary-size: num_vertices"),
              std::string::npos)
        << h.status();
  }
}

// The v2 file size is the header, the name, and 4 bytes per vertex and per
// edge.
TEST_F(GraphIoTest, BinaryFileIsCsrSized) {
  Result<Graph> g = ParseEdgeList("0 1\n2 3\n1 3\n4 0\n", true, 6);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("g.bin")).ok());
  EXPECT_EQ(std::filesystem::file_size(Path("g.bin")), 6 * 8 + 4 * (6 + 4));
}

TEST_F(GraphIoTest, BinaryRoundTripsEveryDataset) {
  for (DatasetId id : AllDatasets()) {
    Result<Graph> made = MakeDataset(id, 0.05, 42);
    ASSERT_TRUE(made.ok()) << made.status();
    const std::string path = Path(DatasetCode(id) + ".bin");
    ASSERT_TRUE(WriteBinaryGraph(*made, path).ok());
    Result<Graph> read = ReadBinaryGraph(path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(read->name(), made->name());
    EXPECT_EQ(read->directed(), made->directed());
    ASSERT_EQ(read->num_vertices(), made->num_vertices());
    EXPECT_EQ(read->edges(), made->edges());
    EXPECT_EQ(read->MemoryBytes(), made->MemoryBytes());
    for (VertexId v = 0; v < made->num_vertices(); ++v) {
      ASSERT_TRUE(std::ranges::equal(read->Neighbors(v), made->Neighbors(v)))
          << DatasetCode(id) << " vertex " << v;
    }
  }
}

// Writes a binary graph file field by field: the u64 header, the name, the
// u32 out-degrees and the u32 destinations, so tests can fabricate payloads
// WriteBinaryGraph never produces.
void WriteRawBinary(const std::string& path, uint64_t version,
                    uint64_t num_vertices, uint64_t num_edges, bool directed,
                    const std::string& name,
                    const std::vector<uint32_t>& payload) {
  std::ofstream out(path, std::ios::binary);
  for (uint64_t field : {uint64_t{0x474e4e5047525048ULL}, version,
                         num_vertices, num_edges, uint64_t{directed},
                         uint64_t{name.size()}}) {
    out.write(reinterpret_cast<const char*>(&field), sizeof(field));
  }
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(uint32_t)));
}

TEST_F(GraphIoTest, BinaryFabricatedCanonicalPayloadLoads) {
  // Directed 0->1, 0->2, 2->0 with vertex 3 isolated.
  WriteRawBinary(Path("ok.bin"), 2, 4, 3, true, "ok", {2, 0, 1, 0, 1, 2, 0});
  Result<Graph> g = ReadBinaryGraph(Path("ok.bin"));
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->name(), "ok");
  EXPECT_EQ(g->edges(), (std::vector<Edge>{{0, 1}, {0, 2}, {2, 0}}));
  EXPECT_EQ(g->Degree(0), 2u);
  EXPECT_EQ(g->Degree(3), 0u);
}

TEST_F(GraphIoTest, BinaryRejectsVersionOne) {
  // A version-1 file: the same header followed by (src, dst) pairs.
  WriteRawBinary(Path("v1.bin"), 1, 3, 2, false, "old", {0, 1, 1, 2});
  Result<Graph> g = ReadBinaryGraph(Path("v1.bin"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().message().find("graph/binary-version"),
            std::string::npos)
      << g.status();
  EXPECT_NE(g.status().message().find("gnnpart_cli generate"),
            std::string::npos)
      << g.status();
}

TEST_F(GraphIoTest, BinaryRejectsNonCanonicalPayloads) {
  struct Case {
    const char* what;
    bool directed;
    uint64_t num_edges;
    std::vector<uint32_t> payload;  // 4 out-degrees, then destinations
  };
  const std::vector<Case> cases = {
      {"degree sum below num_edges", true, 3, {1, 0, 0, 0, 1, 2, 3}},
      {"degree sum above num_edges", true, 1, {1, 1, 0, 0, 1}},
      {"unsorted destinations", true, 2, {2, 0, 0, 0, 2, 1}},
      {"duplicate destinations", true, 2, {2, 0, 0, 0, 1, 1}},
      {"self-loop", true, 2, {1, 1, 0, 0, 1, 1}},
      {"destination past n", true, 1, {1, 0, 0, 0, 4}},
      {"src > dst undirected", false, 2, {1, 0, 1, 0, 2, 0}},
  };
  for (const Case& c : cases) {
    WriteRawBinary(Path("bad.bin"), 2, 4, c.num_edges, c.directed, "",
                   c.payload);
    Result<Graph> g = ReadBinaryGraph(Path("bad.bin"));
    ASSERT_FALSE(g.ok()) << c.what;
    EXPECT_EQ(g.status().code(), StatusCode::kIoError) << c.what;
    EXPECT_NE(g.status().message().find("graph/binary-canonical"),
              std::string::npos)
        << c.what << ": " << g.status();
  }
}

// Every vertex costs four file bytes, so the largest VertexId count fails
// the size check before anything of that size is allocated.
TEST_F(GraphIoTest, BinaryRejectsMaxVertexCountBeforeAllocating) {
  Result<Graph> g = ParseEdgeList("0 1\n1 2\n", false, 3);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(WriteBinaryGraph(*g, Path("maxv.bin")).ok());
  PatchHeader(Path("maxv.bin"), kNumVerticesOffset, uint64_t{kInvalidVertex});
  Result<Graph> h = ReadBinaryGraph(Path("maxv.bin"));
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kIoError);
  EXPECT_NE(h.status().message().find("graph/binary-size: num_vertices " +
                                      std::to_string(kInvalidVertex) +
                                      " needs 4 bytes each"),
            std::string::npos)
      << h.status();
}

TEST_F(GraphIoTest, WriteToUnwritablePathFails) {
  Result<Graph> g = ParseEdgeList("0 1\n", false);
  ASSERT_TRUE(g.ok());
  Status s = WriteEdgeListFile(*g, "/nonexistent-dir/x/y.txt");
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace gnnpart
