#include "partition/edge/hep.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "partition/edge/hdrf.h"

namespace gnnpart {
namespace {

// Max-heap entry ordered so the vertex with the *fewest* external unassigned
// edges pops first.
struct Candidate {
  uint32_t external;  // unassigned incident edges leading outside the set
  VertexId vertex;
  bool operator<(const Candidate& other) const {
    return external > other.external;  // min-heap via operator<
  }
};

// The low-degree part as CSR: every vertex's low-low edges, in ascending
// edge-id order, as parallel neighbour and edge-id arrays. A vertex is high
// if its incident-edge count in the stream exceeds the threshold; high
// vertices have empty lists. Neighbourhood expansion only ever follows
// low-low edges, so it reads nothing else.
struct LowIncidence {
  std::vector<uint64_t> offsets;  // size n + 1
  std::vector<VertexId> neighbor;
  std::vector<EdgeId> edge;
  size_t num_edges = 0;  // low-low edges
};

LowIncidence BuildLowIncidence(const Graph& graph,
                               const std::vector<EdgeId>& sorted,
                               double threshold) {
  const size_t n = graph.num_vertices();
  const auto& edges = graph.edges();
  std::vector<uint64_t> count(n, 0);
  for (EdgeId e : sorted) {
    ++count[edges[e].src];
    ++count[edges[e].dst];
  }
  std::vector<uint8_t> is_high(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    is_high[v] = static_cast<double>(count[v]) > threshold;
  }
  auto low_low = [&](EdgeId e) {
    return !is_high[edges[e].src] && !is_high[edges[e].dst];
  };

  LowIncidence low;
  low.offsets.assign(n + 1, 0);
  for (EdgeId e : sorted) {
    if (!low_low(e)) continue;
    ++low.offsets[edges[e].src + 1];
    ++low.offsets[edges[e].dst + 1];
    ++low.num_edges;
  }
  std::partial_sum(low.offsets.begin(), low.offsets.end(),
                   low.offsets.begin());
  low.neighbor.resize(low.offsets[n]);
  low.edge.resize(low.offsets[n]);
  std::copy(low.offsets.begin(), low.offsets.end() - 1, count.begin());
  for (EdgeId e : sorted) {
    if (!low_low(e)) continue;
    const uint64_t at_src = count[edges[e].src]++;
    const uint64_t at_dst = count[edges[e].dst]++;
    low.neighbor[at_src] = edges[e].dst;
    low.edge[at_src] = e;
    low.neighbor[at_dst] = edges[e].src;
    low.edge[at_dst] = e;
  }
  return low;
}

}  // namespace

Result<EdgePartitioning> HepPartitioner::Partition(const Graph& graph,
                                                   PartitionId k,
                                                   uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, k));
  const size_t m = graph.num_edges();

  EdgePartitioning result;
  result.k = k;
  result.assignment.assign(m, kInvalidPartition);

  // HEP consumes the edge list in its on-disk (canonical) order; only the
  // streaming-phase leftovers are shuffled, from the same RNG stream.
  std::vector<EdgeId> stream(m);
  std::iota(stream.begin(), stream.end(), 0);
  Rng rng(seed);

  GNNPART_RETURN_NOT_OK(
      PartitionStream(graph, stream, k, &rng, &result.assignment));
  return result;
}

Status HepPartitioner::PartitionStream(
    const Graph& graph, const std::vector<EdgeId>& stream, PartitionId k,
    Rng* rng, std::vector<PartitionId>* assignment) const {
  if (tau_ <= 0) return Status::InvalidArgument("HEP: tau must be > 0");
  if (!(lambda_ > 0)) return Status::InvalidArgument("HEP: lambda must be > 0");
  const size_t n = graph.num_vertices();
  // Degree threshold and balance cap scale with the *stream* size; for the
  // full stream this equals graph.num_edges(), reproducing the sequential
  // partitioner bit for bit.
  const size_t m = stream.size();
  const auto& edges = graph.edges();
  // Ascending edge-id order makes every order-sensitive step below a pure
  // function of the stream's contents, so the in-memory phase over the full
  // stream is the sequential pass. Partition() passes the identity order;
  // only a shuffled shard stream needs a sorted copy.
  std::vector<EdgeId> sorted_copy;
  if (!std::is_sorted(stream.begin(), stream.end())) {
    sorted_copy = stream;
    std::sort(sorted_copy.begin(), sorted_copy.end());
  }
  const std::vector<EdgeId>& sorted =
      sorted_copy.empty() ? stream : sorted_copy;

  std::vector<uint64_t> load(k, 0);
  std::vector<uint64_t> replicas(n, 0);
  auto assign_edge = [&](EdgeId e, PartitionId p) {
    (*assignment)[e] = p;
    ++load[p];
    replicas[edges[e].src] |= 1ULL << p;
    replicas[edges[e].dst] |= 1ULL << p;
  };
  // Edges the in-memory phase assigned, one bit per edge id: the stream's
  // edges enter unassigned, so this mirrors (*assignment)[e] != invalid.
  std::vector<uint64_t> taken((graph.num_edges() + 63) / 64, 0);
  auto is_taken = [&](EdgeId e) { return (taken[e / 64] >> (e % 64)) & 1; };

  // ---- In-memory phase: grow k expansion sets over the low-degree part.
  // Its state is scoped to this block and freed before the streaming phase.
  size_t assigned_low = 0;
  {
    const double mean_inc =
        static_cast<double>(2 * m) / static_cast<double>(n);
    const LowIncidence low = BuildLowIncidence(graph, sorted, tau_ * mean_inc);
    // Which expansion set a vertex joined (kInvalidPartition = none yet).
    std::vector<PartitionId> owner(n, kInvalidPartition);
    // Last partition whose boundary heap a vertex was pushed into (dedups
    // pushes; boundary membership itself is implied by heap entries).
    std::vector<PartitionId> boundary_of(n, kInvalidPartition);

    // Classic NE selection criterion |N(v) \ (C u S)| over the unassigned
    // low-low edges: vertices already in p's core (owner) or queued in p's
    // boundary (boundary_of) count as internal.
    auto external_score = [&](VertexId v, PartitionId p) {
      uint32_t ext = 0;
      for (uint64_t i = low.offsets[v]; i < low.offsets[v + 1]; ++i) {
        if (is_taken(low.edge[i])) continue;
        const VertexId w = low.neighbor[i];
        if (owner[w] != p && boundary_of[w] != p) ++ext;
      }
      return ext;
    };

    VertexId scan_cursor = 0;  // round-robin start for fresh seeds
    for (PartitionId p = 0; p < k; ++p) {
      const size_t remaining = low.num_edges - assigned_low;
      const size_t parts_left = k - p;
      const uint64_t target = (remaining + parts_left - 1) / parts_left;
      if (target == 0) break;

      std::priority_queue<Candidate> heap;
      auto push_seed = [&]() -> bool {
        // Find an untaken vertex with an unassigned low-low edge (high
        // vertices have none).
        for (size_t step = 0; step < n; ++step) {
          VertexId v = scan_cursor;
          scan_cursor = (scan_cursor + 1 == n) ? 0 : scan_cursor + 1;
          if (owner[v] != kInvalidPartition) continue;
          for (uint64_t i = low.offsets[v]; i < low.offsets[v + 1]; ++i) {
            if (!is_taken(low.edge[i])) {
              heap.push({external_score(v, p), v});
              return true;
            }
          }
        }
        return false;
      };
      if (!push_seed()) break;

      while (load[p] < target) {
        if (heap.empty() && !push_seed()) break;
        Candidate cand = heap.top();
        heap.pop();
        VertexId v = cand.vertex;
        if (owner[v] != kInvalidPartition) continue;  // stale entry
        // While p grows, edges only become assigned and owner/boundary_of
        // only become p, so a queued score can only have fallen: no entry
        // pops with a stale, too-low score, and none needs requeueing.
        GNNPART_CHECK_PARANOID(external_score(v, p) <= cand.external,
                               "HEP: a queued external score rose");
        owner[v] = p;
        // Neighbourhood expansion proper: once v enters the core, every
        // unassigned low-low edge of v is claimed for p — the other
        // endpoint becomes (or already is) a boundary/core member of p.
        // Boundary vertices of other partitions get replicated, which is
        // exactly NE's replication mechanism.
        for (uint64_t i = low.offsets[v]; i < low.offsets[v + 1]; ++i) {
          const EdgeId e = low.edge[i];
          if (is_taken(e)) continue;
          const VertexId w = low.neighbor[i];
          const PartitionId nbr_owner = owner[w];
          if (nbr_owner != kInvalidPartition && nbr_owner != p) {
            // Other endpoint belongs to another core; leave the edge to the
            // streaming phase, which places it against replica state.
            continue;
          }
          taken[e / 64] |= 1ULL << (e % 64);
          assign_edge(e, p);
          ++assigned_low;
          if (nbr_owner == kInvalidPartition && boundary_of[w] != p) {
            boundary_of[w] = p;
            heap.push({external_score(w, p), w});
          }
        }
        if (load[p] >= target) break;
      }
    }
  }

  // ---- Streaming phase: HDRF over everything still unassigned. ----
  std::vector<EdgeId> rest;
  rest.reserve(m - assigned_low);
  for (EdgeId e : sorted) {
    if (!is_taken(e)) rest.push_back(e);
  }
  rng->Shuffle(&rest);

  const size_t streamed_edges = rest.size();
  uint64_t score_evals = 0;  // accumulated locally, published once below
  std::vector<uint32_t> partial_degree(n, 0);
  const uint64_t cap = static_cast<uint64_t>(
      alpha_ * static_cast<double>(m) / static_cast<double>(k)) + 1;
  uint64_t max_load = *std::max_element(load.begin(), load.end());
  LeastLoaded least(load);
  uint64_t capped = 0;  // partitions at the balance cap
  for (PartitionId p = 0; p < k; ++p) {
    if (load[p] >= cap) capped |= 1ULL << p;
  }
  for (EdgeId e : rest) {
    VertexId u = edges[e].src;
    VertexId v = edges[e].dst;
    ++partial_degree[u];
    ++partial_degree[v];
    double du = partial_degree[u];
    double dv = partial_degree[v];
    double theta_u = du / (du + dv);
    double denom = 1.0 + static_cast<double>(max_load - least.min_load());
    PartitionId best = kInvalidPartition;
    double best_score = -1.0;
    // Counted as the full scan over the partitions below the cap.
    score_evals += k - static_cast<PartitionId>(std::popcount(capped));
    // Only the uncapped partitions of R and the least-loaded one can win
    // (hep.h); ascending order keeps the full scan's tie-breaks.
    for (uint64_t cand =
             (replicas[u] | replicas[v] | (1ULL << least.partition())) &
             ~capped;
         cand != 0; cand &= cand - 1) {
      const auto p = static_cast<PartitionId>(std::countr_zero(cand));
      double g = 0;
      if (replicas[u] & (1ULL << p)) g += 1.0 + (1.0 - theta_u);
      if (replicas[v] & (1ULL << p)) g += 1.0 + theta_u;
      double bal = lambda_ * static_cast<double>(max_load - load[p]) / denom;
      double score = g + bal;
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best == kInvalidPartition) {
      // All partitions at cap (can only happen with alpha < 1): least load.
      best = least.partition();
    }
    assign_edge(e, best);
    max_load = std::max(max_load, load[best]);
    least.Grew(load, best);
    if (load[best] >= cap) capped |= 1ULL << best;
  }
  obs::Count("partition/edge/" + name() + "/edges_assigned", m, "edges");
  obs::Count("partition/edge/" + name() + "/in_memory_edges", assigned_low,
             "edges");
  obs::Count("partition/edge/" + name() + "/streamed_edges", streamed_edges,
             "edges");
  obs::Count("partition/edge/" + name() + "/score_evals", score_evals,
             "evals");
  return Status::Ok();
}

}  // namespace gnnpart
