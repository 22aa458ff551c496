#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace gnnpart {
namespace {

constexpr uint64_t kBinaryMagic = 0x474e4e5047525048ULL;  // "GNNPGRPH"
// Version 2 stores the canonical edge list as CSR after the header and the
// name: a u32 out-degree per vertex, then the u32 destinations.
constexpr uint64_t kBinaryVersion = 2;

Result<Graph> ParseEdgeStream(std::istream& in, bool directed,
                              size_t num_vertices) {
  std::vector<Edge> edges;
  VertexId max_id = 0;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) {
      return Status::IoError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
      return Status::OutOfRange("vertex id too large at line " +
                                std::to_string(line_no));
    }
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
    max_id = std::max({max_id, static_cast<VertexId>(u),
                       static_cast<VertexId>(v)});
  }
  size_t n = num_vertices;
  if (n == 0) n = edges.empty() ? 0 : static_cast<size_t>(max_id) + 1;
  GraphBuilder builder(n, directed);
  builder.Reserve(edges.size());
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst);
  return builder.Build();
}

}  // namespace

Result<Graph> ReadEdgeListFile(const std::string& path, bool directed,
                               size_t num_vertices) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  return ParseEdgeStream(in, directed, num_vertices);
}

Result<Graph> ParseEdgeList(const std::string& text, bool directed,
                            size_t num_vertices) {
  std::istringstream in(text);
  return ParseEdgeStream(in, directed, num_vertices);
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << "# " << graph.name() << " |V|=" << graph.num_vertices()
      << " |E|=" << graph.num_edges()
      << (graph.directed() ? " directed" : " undirected") << "\n";
  for (const Edge& e : graph.edges()) {
    out << e.src << " " << e.dst << "\n";
  }
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::Ok();
}

Status WriteBinaryGraph(const Graph& graph, const std::string& path) {
  const size_t n = graph.num_vertices();
  const size_t m = graph.num_edges();
  std::vector<uint32_t> out_degree(n, 0);
  for (const Edge& e : graph.edges()) ++out_degree[e.src];

  std::string bytes;
  bytes.reserve(6 * sizeof(uint64_t) + graph.name().size() +
                (n + m) * sizeof(VertexId));
  auto put = [&](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (uint64_t field : {kBinaryMagic, kBinaryVersion, uint64_t{n},
                         uint64_t{m}, uint64_t{graph.directed()},
                         uint64_t{graph.name().size()}}) {
    put(&field, sizeof(field));
  }
  put(graph.name().data(), graph.name().size());
  put(out_degree.data(), n * sizeof(uint32_t));
  for (const Edge& e : graph.edges()) put(&e.dst, sizeof(e.dst));

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed for '" + path + "'");
  return Status::Ok();
}

Result<Graph> ReadBinaryGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  auto get_u64 = [&]() -> uint64_t {
    uint64_t x = 0;
    in.read(reinterpret_cast<char*>(&x), sizeof(x));
    return x;
  };
  if (get_u64() != kBinaryMagic) {
    return Status::IoError("'" + path + "' is not a gnnpart binary graph");
  }
  if (const uint64_t version = get_u64(); version != kBinaryVersion) {
    return Status::IoError(
        "graph/binary-version: '" + path + "' has format version " +
        std::to_string(version) + ", but this build reads only version " +
        std::to_string(kBinaryVersion) +
        "; regenerate it with `gnnpart_cli generate`");
  }
  uint64_t num_vertices = get_u64();
  uint64_t num_edges = get_u64();
  bool directed = get_u64() != 0;
  uint64_t name_len = get_u64();
  if (!in) return Status::IoError("truncated binary graph '" + path + "'");
  // Vertex ids are VertexId values below num_vertices, and kInvalidVertex
  // is reserved, so a larger count cannot describe a valid graph.
  if (num_vertices > kInvalidVertex) {
    return Status::IoError("graph/binary-size: num_vertices " +
                           std::to_string(num_vertices) +
                           " exceeds the VertexId range in '" + path + "'");
  }
  // The header's sizes must fit in the bytes that follow it; check before
  // allocating so a corrupt header fails by name, not with bad_alloc.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  uint64_t left = static_cast<uint64_t>(file_end - header_end);
  auto too_big = [&](const char* field, uint64_t count, uint64_t each) {
    return Status::IoError("graph/binary-size: " + std::string(field) + " " +
                           std::to_string(count) + " needs " +
                           std::to_string(each) + " bytes each, but " +
                           std::to_string(left) + " bytes are left in '" +
                           path + "'");
  };
  if (name_len > left) {
    return Status::IoError("graph/binary-size: name_len " +
                           std::to_string(name_len) + " exceeds the " +
                           std::to_string(left) + " bytes left in '" + path +
                           "'");
  }
  left -= name_len;
  if (num_vertices > left / sizeof(uint32_t)) {
    return too_big("num_vertices", num_vertices, sizeof(uint32_t));
  }
  left -= num_vertices * sizeof(uint32_t);
  if (num_edges > left / sizeof(VertexId)) {
    return too_big("num_edges", num_edges, sizeof(VertexId));
  }
  auto not_canonical = [&](const std::string& why) {
    return Status::IoError("graph/binary-canonical: '" + path +
                           "' does not hold a canonical edge list: " + why);
  };

  std::string name(name_len, '\0');
  in.read(name.data(), static_cast<std::streamsize>(name_len));
  std::vector<uint32_t> out_degree(num_vertices);
  in.read(reinterpret_cast<char*>(out_degree.data()),
          static_cast<std::streamsize>(num_vertices * sizeof(uint32_t)));
  if (!in) return Status::IoError("truncated binary graph '" + path + "'");
  uint64_t degree_sum = 0;
  for (uint32_t d : out_degree) degree_sum += d;
  if (degree_sum != num_edges) {
    return not_canonical("out-degrees sum to " + std::to_string(degree_sum) +
                         ", but num_edges is " + std::to_string(num_edges));
  }

  // Expand the destinations chunk by chunk straight into the edge list.
  std::vector<Edge> edges(num_edges);
  {
    constexpr size_t kChunk = size_t{1} << 14;
    std::vector<VertexId> dst(std::min<uint64_t>(num_edges, kChunk));
    VertexId src = 0;
    uint64_t src_left = num_vertices == 0 ? 0 : out_degree[0];
    for (uint64_t done = 0; done < num_edges;) {
      const size_t len = std::min<uint64_t>(num_edges - done, kChunk);
      in.read(reinterpret_cast<char*>(dst.data()),
              static_cast<std::streamsize>(len * sizeof(VertexId)));
      if (!in) return Status::IoError("truncated binary graph '" + path + "'");
      for (size_t i = 0; i < len; ++i, ++done) {
        // Terminates: the degrees sum to num_edges, so one is left.
        while (src_left == 0) src_left = out_degree[++src];
        --src_left;
        edges[done] = {src, dst[i]};
      }
    }
  }
  out_degree = {};
  Result<Graph> graph = Graph::FromCanonicalEdges(
      std::move(name), directed, num_vertices, std::move(edges));
  if (!graph.ok()) return not_canonical(graph.status().message());
  return graph;
}

}  // namespace gnnpart
