#include "gen/datasets.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "gen/generators.h"

namespace gnnpart {

std::vector<DatasetId> AllDatasets() {
  return {DatasetId::kHollywood, DatasetId::kDimacsUsa, DatasetId::kEnwiki,
          DatasetId::kEu, DatasetId::kOrkut};
}

std::string DatasetCode(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
      return "HW";
    case DatasetId::kDimacsUsa:
      return "DI";
    case DatasetId::kEnwiki:
      return "EN";
    case DatasetId::kEu:
      return "EU";
    case DatasetId::kOrkut:
      return "OR";
  }
  return "??";
}

std::string DatasetCategory(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
      return "Colla.";
    case DatasetId::kDimacsUsa:
      return "Road";
    case DatasetId::kEnwiki:
      return "Wiki";
    case DatasetId::kEu:
      return "Web";
    case DatasetId::kOrkut:
      return "Social";
  }
  return "?";
}

bool DatasetDirected(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
    case DatasetId::kOrkut:
      return false;
    case DatasetId::kDimacsUsa:
    case DatasetId::kEnwiki:
    case DatasetId::kEu:
      return true;
  }
  return false;
}

Result<DatasetId> ParseDatasetCode(const std::string& code) {
  std::string up = code;
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (DatasetId id : AllDatasets()) {
    if (DatasetCode(id) == up) return id;
  }
  return Status::NotFound("unknown dataset code '" + code + "'");
}

namespace {

// DC-SBM parameters of the four power-law substitutes at scale 1.
struct PowerLawSpec {
  size_t vertices;
  size_t edges;
  double skew;
  size_t communities;
  double mixing;
};

PowerLawSpec PowerLawSpecOf(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
      // Collaboration network: dense power law (orig. mean degree ~114
      // symmetrized) with strong community structure (productions).
      return {32000, 640000, 0.78, 96, 0.85};
    case DatasetId::kEnwiki:
      // Wiki link graph: directed power law with looser topical communities.
      return {40000, 600000, 0.82, 64, 0.7};
    case DatasetId::kEu:
      // Web crawl: extreme hub skew and very strong host locality.
      return {44000, 700000, 0.95, 128, 0.9};
    case DatasetId::kOrkut:
      // Social network: dense, heavy-tailed but flatter than web, with
      // weaker community structure than the collaboration graph.
      return {24000, 600000, 0.75, 48, 0.75};
    case DatasetId::kDimacsUsa:
      break;  // a road lattice, not a DC-SBM: see MakeDataset
  }
  return {};
}

// gen/dataset-size: a vertex count that does not fit VertexId, rejected
// before anything of that size is allocated.
Status DatasetTooLarge(DatasetId id, double scale, double vertices) {
  std::ostringstream os;
  os << "gen/dataset-size: " << DatasetCode(id) << " at scale " << scale
     << " would have " << vertices << " vertices, more than VertexId holds ("
     << std::numeric_limits<VertexId>::max() << ")";
  return Status::InvalidArgument(os.str());
}

}  // namespace

Result<Graph> MakeDataset(DatasetId id, double scale, uint64_t seed) {
  if (!(scale > 0) || !std::isfinite(scale)) {
    std::ostringstream os;
    os << "gen/dataset-size: dataset scale must be positive and finite, got "
       << scale;
    return Status::InvalidArgument(os.str());
  }
  const double max_vertices = std::numeric_limits<VertexId>::max();
  const uint64_t s = HashCombine64(seed, static_cast<uint64_t>(id));
  Result<Graph> result = Status::Internal("unreachable");
  if (id == DatasetId::kDimacsUsa) {
    // Road network: tiny mean degree, no skew, huge diameter.
    const double side = std::max(8.0, std::round(220 * std::sqrt(scale)));
    if (side * side > max_vertices) {
      return DatasetTooLarge(id, scale, side * side);
    }
    RoadParams p;
    p.width = p.height = static_cast<size_t>(side);
    p.diagonal_prob = 0.05;
    p.deletion_prob = 0.03;
    p.directed = true;
    result = GenerateRoadNetwork(p, s);
  } else {
    const PowerLawSpec spec = PowerLawSpecOf(id);
    const double vertices = std::round(spec.vertices * scale);
    if (vertices > max_vertices) return DatasetTooLarge(id, scale, vertices);
    auto scaled = [&](size_t base) {
      return std::max<size_t>(
          16, static_cast<size_t>(std::llround(base * scale)));
    };
    PowerLawCommunityParams p;
    p.num_vertices = scaled(spec.vertices);
    p.num_edges = scaled(spec.edges);
    p.skew = spec.skew;
    p.num_communities = spec.communities;
    p.mixing = spec.mixing;
    p.directed = DatasetDirected(id);
    result = GeneratePowerLawCommunity(p, s);
  }
  if (!result.ok()) return result.status();
  return std::move(result).value().WithName(DatasetCode(id));
}

}  // namespace gnnpart
