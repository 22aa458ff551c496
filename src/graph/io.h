#ifndef GNNPART_GRAPH_IO_H_
#define GNNPART_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace gnnpart {

/// Reads a whitespace-separated edge-list file ("u v" per line, '#' or '%'
/// comment lines, the common SNAP/KONECT format). Vertex ids must be in
/// [0, num_vertices); pass num_vertices = 0 to infer it as max id + 1.
Result<Graph> ReadEdgeListFile(const std::string& path, bool directed,
                               size_t num_vertices = 0);

/// Parses an edge list from an in-memory string (same format). Useful for
/// tests and small fixtures.
Result<Graph> ParseEdgeList(const std::string& text, bool directed,
                            size_t num_vertices = 0);

/// Writes the canonical edge list as "u v" lines.
Status WriteEdgeListFile(const Graph& graph, const std::string& path);

/// Binary snapshot, format version 2, little-endian: a header of u64 fields
/// (magic, version, num_vertices, num_edges, directed, name_len), the name,
/// then the canonical edge list as CSR: a u32 out-degree per vertex followed
/// by the u32 destinations. Round-trips exactly through ReadBinaryGraph,
/// which rejects by name any other version (`graph/binary-version`), sizes
/// the file cannot hold (`graph/binary-size`) and payloads that are not a
/// canonical edge list (`graph/binary-canonical`).
Status WriteBinaryGraph(const Graph& graph, const std::string& path);
Result<Graph> ReadBinaryGraph(const std::string& path);

}  // namespace gnnpart

#endif  // GNNPART_GRAPH_IO_H_
