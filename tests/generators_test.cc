#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "gen/guide_table.h"
#include "graph/degree_stats.h"

namespace gnnpart {
namespace {

// The answer GuideTable::Find must reproduce bit for bit: a binary search
// over the cumulative array, clamped to the last index as the generator
// has always done.
size_t LowerBoundOracle(const std::vector<double>& cum, double u) {
  const size_t idx = static_cast<size_t>(
      std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
  return std::min(idx, cum.size() - 1);
}

// Compares Find with the oracle on u = 0, u = total, every bucket edge
// k * total / B and its nextafter neighbours, every cumulative value and
// its neighbours (ties and plateaus), and generator-style draws
// NextDouble() * total.
void ExpectMatchesOracleOnCumulative(const std::vector<double>& cum,
                                     uint64_t seed) {
  const double acc = cum.back();
  const GuideTable table(cum);
  ASSERT_EQ(table.size(), cum.size());
  ASSERT_EQ(table.total(), acc);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {0.0, acc, std::nextafter(acc, inf)};
  const double b = static_cast<double>(cum.size());
  for (size_t k = 0; k <= cum.size(); ++k) {
    probes.push_back(static_cast<double>(k) * acc / b);
    probes.push_back(static_cast<double>(k) * (acc / b));
  }
  for (double x : cum) probes.push_back(x);
  const size_t exact = probes.size();
  for (size_t i = 0; i < exact; ++i) {
    probes.push_back(std::nextafter(probes[i], 0.0));
    probes.push_back(std::nextafter(probes[i], inf));
  }
  Rng rng(seed);
  for (int i = 0; i < 2000; ++i) probes.push_back(rng.NextDouble() * acc);
  for (double u : probes) {
    ASSERT_EQ(table.Find(u), LowerBoundOracle(cum, u))
        << "u=" << u << " total=" << acc << " size=" << cum.size();
  }
}

// Same check on the running sums of `weights`, as the generator builds
// them.
void ExpectMatchesOracle(const std::vector<double>& weights, uint64_t seed) {
  std::vector<double> cum(weights.size());
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    cum[i] = acc;
  }
  ExpectMatchesOracleOnCumulative(cum, seed);
}

// Every entry is k * total / B, k * (total / B) or a nextafter neighbour of
// one, for random totals: entries sit exactly where a bucket expression
// rounds one way or the other, so a guide built with any expression other
// than the one Find uses picks a wrong start on some of them.
TEST(GuideTableTest, MatchesLowerBoundOnEntriesAtBucketEdges) {
  Rng rng(11);
  for (int rep = 0; rep < 300; ++rep) {
    const size_t n = 2 + rng.NextBounded(40);
    const double b = static_cast<double>(n);
    const double total =
        (rng.NextDouble() + 0.01) *
        std::pow(10.0, static_cast<double>(rng.NextBounded(12)) - 6);
    std::vector<double> cum;
    for (size_t i = 0; i + 1 < n; ++i) {
      const double k = static_cast<double>(rng.NextBounded(n + 1));
      double x = rng.NextBounded(2) ? k * total / b : k * (total / b);
      const uint64_t nudge = rng.NextBounded(3);
      if (nudge == 1) x = std::nextafter(x, 0.0);
      if (nudge == 2) x = std::nextafter(x, total);
      cum.push_back(std::min(x, total));
    }
    cum.push_back(total);
    std::sort(cum.begin(), cum.end());
    ExpectMatchesOracleOnCumulative(cum, rep);
  }
}

TEST(GuideTableTest, MatchesLowerBoundOnRandomArrays) {
  Rng rng(3);
  for (size_t n : {1u, 2u, 3u, 7u, 64u, 100u, 1000u}) {
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<double> w(n);
      for (double& x : w) x = rng.NextDouble();
      ExpectMatchesOracle(w, n * 10 + rep);
    }
  }
}

TEST(GuideTableTest, MatchesLowerBoundOnEqualWeights) {
  ExpectMatchesOracle(std::vector<double>(1000, 1.0), 1);
  // 0.1 is inexact in binary, so the running sums round unevenly.
  ExpectMatchesOracle(std::vector<double>(1000, 0.1), 2);
}

TEST(GuideTableTest, MatchesLowerBoundOnGeneratorWeights) {
  // The DC-SBM weights, including extreme skews whose pow() underflows to
  // zero and leaves long plateaus in the cumulative array.
  for (double skew : {0.7, 0.95, 2.0, 60.0, 400.0}) {
    std::vector<double> w(5000);
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = std::pow(static_cast<double>(i + 1), -skew);
    }
    Rng rng(static_cast<uint64_t>(skew * 10));
    rng.Shuffle(&w);
    ExpectMatchesOracle(w, 5);
  }
}

TEST(GuideTableTest, MatchesLowerBoundOnPlateausAndTies) {
  ExpectMatchesOracle({1, 0, 0, 0, 2, 0, 0, 1}, 1);
  ExpectMatchesOracle({0, 0, 1}, 2);     // leading zeros: cum[0] == 0
  ExpectMatchesOracle({1, 0, 0}, 3);     // trailing plateau at the total
  ExpectMatchesOracle({0, 0, 0}, 4);     // zero total
  ExpectMatchesOracle({5}, 5);           // a single element
  ExpectMatchesOracle({0}, 6);
  ExpectMatchesOracle({1, 1e-300}, 7);   // 1 + 1e-300 rounds to 1: a tie
  ExpectMatchesOracle({1e-300, 1}, 8);
  ExpectMatchesOracle({1e-310, 1e-310}, 9);  // subnormal total
  ExpectMatchesOracle({1e300, 1e300, 1e300}, 10);
}

TEST(DcSbmTest, ExtremeSkewStillGenerates) {
  // At skew 60 most weights underflow to zero, so whole communities have a
  // zero cumulative total; the draws must still land on a member.
  PowerLawCommunityParams p;
  p.num_vertices = 500;
  p.num_edges = 2000;
  p.skew = 60;
  p.num_communities = 16;
  Result<Graph> g = GeneratePowerLawCommunity(p, 1);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 500u);
  EXPECT_GT(g->num_edges(), 0u);
}

TEST(DcSbmTest, RejectsVertexCountPastVertexId) {
  PowerLawCommunityParams p;
  p.num_vertices = size_t{1} << 33;  // rejected before any allocation
  p.num_edges = 10;
  EXPECT_FALSE(GeneratePowerLawCommunity(p, 1).ok());
}

TEST(RmatTest, ProducesRequestedSize) {
  RmatParams p;
  p.num_vertices = 1000;
  p.num_edges = 8000;
  Result<Graph> g = GenerateRmat(p, 1);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 1000u);
  // Dedup removes duplicates (frequent at this density); the bulk remains.
  EXPECT_GT(g->num_edges(), 5000u);
  EXPECT_LE(g->num_edges(), 8000u);
}

TEST(RmatTest, DeterministicInSeed) {
  RmatParams p;
  p.num_vertices = 500;
  p.num_edges = 2000;
  Result<Graph> a = GenerateRmat(p, 7);
  Result<Graph> b = GenerateRmat(p, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->edges(), b->edges());
  Result<Graph> c = GenerateRmat(p, 8);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->edges(), c->edges());
}

TEST(RmatTest, SkewedParamsGiveSkewedDegrees) {
  RmatParams skewed;
  skewed.num_vertices = 4000;
  skewed.num_edges = 40000;
  skewed.a = 0.62;
  skewed.b = 0.17;
  skewed.c = 0.17;
  RmatParams flat;
  flat.num_vertices = 4000;
  flat.num_edges = 40000;
  flat.a = 0.25;
  flat.b = 0.25;
  flat.c = 0.25;
  Result<Graph> gs = GenerateRmat(skewed, 3);
  Result<Graph> gf = GenerateRmat(flat, 3);
  ASSERT_TRUE(gs.ok() && gf.ok());
  DegreeStats ss = ComputeDegreeStats(*gs);
  DegreeStats sf = ComputeDegreeStats(*gf);
  EXPECT_GT(ss.skew, 2.0 * sf.skew);
  EXPECT_GT(ss.max_degree, 3 * sf.max_degree);
}

TEST(RmatTest, RejectsBadParams) {
  RmatParams p;
  p.num_vertices = 0;
  EXPECT_FALSE(GenerateRmat(p, 1).ok());
  p.num_vertices = 10;
  p.num_edges = 10;
  p.a = -0.1;
  EXPECT_FALSE(GenerateRmat(p, 1).ok());
}

TEST(BarabasiAlbertTest, PowerLawTail) {
  Result<Graph> g = GenerateBarabasiAlbert(3000, 4, 11);
  ASSERT_TRUE(g.ok()) << g.status();
  DegreeStats s = ComputeDegreeStats(*g);
  EXPECT_GT(s.max_degree, 50u);  // hubs exist
  EXPECT_NEAR(s.mean_degree, 8.0, 1.5);
}

TEST(BarabasiAlbertTest, RejectsBadParams) {
  EXPECT_FALSE(GenerateBarabasiAlbert(3, 5, 1).ok());
  EXPECT_FALSE(GenerateBarabasiAlbert(100, 0, 1).ok());
}

TEST(ErdosRenyiTest, NearRegularDegrees) {
  Result<Graph> g = GenerateErdosRenyi(2000, 20000, false, 5);
  ASSERT_TRUE(g.ok()) << g.status();
  DegreeStats s = ComputeDegreeStats(*g);
  EXPECT_LT(s.skew, 0.4);
}

TEST(ErdosRenyiTest, DirectedKeepsMoreArcs) {
  Result<Graph> und = GenerateErdosRenyi(500, 5000, false, 9);
  Result<Graph> dir = GenerateErdosRenyi(500, 5000, true, 9);
  ASSERT_TRUE(und.ok() && dir.ok());
  EXPECT_GE(dir->num_edges(), und->num_edges());
}

TEST(WattsStrogatzTest, RingWithoutRewiring) {
  Result<Graph> g = GenerateWattsStrogatz(100, 2, 0.0, 1);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_edges(), 200u);
  DegreeStats s = ComputeDegreeStats(*g);
  EXPECT_DOUBLE_EQ(s.mean_degree, 4.0);
  EXPECT_NEAR(s.skew, 0.0, 1e-9);
}

TEST(WattsStrogatzTest, RejectsBadParams) {
  EXPECT_FALSE(GenerateWattsStrogatz(4, 2, 0.1, 1).ok());
  EXPECT_FALSE(GenerateWattsStrogatz(100, 0, 0.1, 1).ok());
}

TEST(RoadNetworkTest, LowDegreeNoSkew) {
  RoadParams p;
  p.width = 60;
  p.height = 60;
  Result<Graph> g = GenerateRoadNetwork(p, 13);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), 3600u);
  DegreeStats s = ComputeDegreeStats(*g);
  EXPECT_LT(s.mean_degree, 5.0);
  EXPECT_LE(s.max_degree, 8u);
  EXPECT_LT(s.skew, 0.5);
}

TEST(RoadNetworkTest, DirectedProducesReciprocalArcs) {
  RoadParams p;
  p.width = 10;
  p.height = 10;
  p.deletion_prob = 0;
  p.diagonal_prob = 0;
  p.directed = true;
  Result<Graph> g = GenerateRoadNetwork(p, 1);
  ASSERT_TRUE(g.ok()) << g.status();
  // Full lattice: 2 * (9*10 + 10*9) directed arcs.
  EXPECT_EQ(g->num_edges(), 360u);
}

TEST(RoadNetworkTest, RejectsDegenerate) {
  RoadParams p;
  p.width = 1;
  p.height = 5;
  EXPECT_FALSE(GenerateRoadNetwork(p, 1).ok());
}

}  // namespace
}  // namespace gnnpart
