#include "gen/datasets.h"

#include <algorithm>
#include <cctype>
#include <cmath>
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

Result<Graph> MakeDataset(DatasetId id, double scale, uint64_t seed) {
  if (scale <= 0) {
    return Status::InvalidArgument("dataset scale must be > 0");
  }
  uint64_t s = HashCombine64(seed, static_cast<uint64_t>(id));
  auto scaled = [&](size_t base) {
    return std::max<size_t>(16, static_cast<size_t>(
                                    std::llround(base * scale)));
  };
  Result<Graph> result = Status::Internal("unreachable");
  switch (id) {
    case DatasetId::kHollywood: {
      // Collaboration network: dense power law (orig. mean degree ~114
      // symmetrized) with strong community structure (productions).
      PowerLawCommunityParams p;
      p.num_vertices = scaled(32000);
      p.num_edges = scaled(640000);
      p.skew = 0.78;
      p.num_communities = 96;
      p.mixing = 0.85;
      p.directed = false;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
    case DatasetId::kDimacsUsa: {
      // Road network: tiny mean degree, no skew, huge diameter.
      RoadParams p;
      double side = std::sqrt(scale);
      p.width = std::max<size_t>(8, static_cast<size_t>(std::llround(220 * side)));
      p.height = std::max<size_t>(8, static_cast<size_t>(std::llround(220 * side)));
      p.diagonal_prob = 0.05;
      p.deletion_prob = 0.03;
      p.directed = true;
      result = GenerateRoadNetwork(p, s);
      break;
    }
    case DatasetId::kEnwiki: {
      // Wiki link graph: directed power law with looser topical communities.
      PowerLawCommunityParams p;
      p.num_vertices = scaled(40000);
      p.num_edges = scaled(600000);
      p.skew = 0.82;
      p.num_communities = 64;
      p.mixing = 0.7;
      p.directed = true;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
    case DatasetId::kEu: {
      // Web crawl: extreme hub skew and very strong host locality.
      PowerLawCommunityParams p;
      p.num_vertices = scaled(44000);
      p.num_edges = scaled(700000);
      p.skew = 0.95;
      p.num_communities = 128;
      p.mixing = 0.9;
      p.directed = true;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
    case DatasetId::kOrkut: {
      // Social network: dense, heavy-tailed but flatter than web, with
      // weaker community structure than the collaboration graph.
      PowerLawCommunityParams p;
      p.num_vertices = scaled(24000);
      p.num_edges = scaled(600000);
      p.skew = 0.75;
      p.num_communities = 48;
      p.mixing = 0.75;
      p.directed = false;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
  }
  if (!result.ok()) return result.status();
  return std::move(result).value().WithName(DatasetCode(id));
}

}  // namespace gnnpart
