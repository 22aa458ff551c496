#include "net/flowsim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "check/check.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The water-filling state of one SimulateFlows run. `crossing[l]` lists
/// the active flows crossing link l in admission order, one entry per
/// occurrence in Flow::links; it persists across events, gaining an entry
/// when a flow is admitted and losing it in place when the flow retires,
/// and is never reordered. The rest is per-event scratch: per-link residual
/// capacity, crossing-flow count and weight sum; per flow index, the
/// assigned rate and the event that fixed it.
struct WaterFill {
  WaterFill(size_t num_links, size_t num_flows)
      : crossing(num_links), cap(num_links), nflows(num_links),
        wsum(num_links), rate(num_flows), fixed(num_flows, 0) {}

  std::vector<std::vector<size_t>> crossing;
  std::vector<double> cap;
  std::vector<size_t> nflows;
  std::vector<double> wsum;
  std::vector<double> rate;
  std::vector<uint64_t> fixed;
};

/// Weighted max-min fair-share allocation (progressive water-filling) over
/// the `active` flows of `s->crossing`. A link's per-weight-unit share is
/// capacity / (sum of crossing flow weights), and a flow crossing the
/// bottleneck receives `share * weight`. Deterministic: the bottleneck link
/// is the strict minimum of capacity/weight-sum with ties broken on the
/// lowest link index, and its unfixed flows are fixed in admission order.
/// Each round visits only the bottleneck's list.
///
/// Bit-exactness: every link's weight sum is folded from 0.0 along its list
/// on every event — never patched incrementally across events — then
/// decremented in the order its flows are fixed, so each link sees the same
/// flows in the same order as a full scan of the active set in admission
/// order: every division, subtraction and assigned rate is the same
/// double. With every weight at 1.0 each weight sum is a sum of exact 1.0s,
/// the double the integer flow count converts to, and `share * 1.0 ==
/// share`, which is the historical unweighted arithmetic. The integer
/// `nflows` count is the crossing-flows guard so an emptied link is skipped
/// exactly, not via a residue-prone `wsum > 0` comparison.
void FairShareRates(const std::vector<Link>& links,
                    const std::vector<Flow>& flows, size_t active,
                    uint64_t event, WaterFill* s) {
  for (size_t l = 0; l < links.size(); ++l) {
    s->cap[l] = links[l].capacity;
    s->nflows[l] = s->crossing[l].size();
    double sum = 0.0;
    for (size_t f : s->crossing[l]) sum += flows[f].weight;
    s->wsum[l] = sum;
  }
  size_t left = active;
  while (left > 0) {
    size_t bottleneck = links.size();
    double fair = 0;
    for (size_t l = 0; l < links.size(); ++l) {
      if (s->nflows[l] == 0) continue;
      const double share = s->cap[l] / s->wsum[l];
      if (bottleneck == links.size() || share < fair) {
        bottleneck = l;
        fair = share;
      }
    }
    GNNPART_CHECK_CHEAP(bottleneck < links.size() && fair > 0,
                        "net/fair-share: no capacity left for active flows");
    for (size_t f : s->crossing[bottleneck]) {
      if (s->fixed[f] == event) continue;
      s->fixed[f] = event;
      const Flow& flow = flows[f];
      s->rate[f] = fair * flow.weight;
      --left;
      for (int l : flow.links) {
        s->cap[static_cast<size_t>(l)] -= fair * flow.weight;
        --s->nflows[static_cast<size_t>(l)];
        s->wsum[static_cast<size_t>(l)] -= flow.weight;
      }
    }
  }
}

}  // namespace

void LinkUsage::EnsureShape(const Fabric& fabric) {
  link_bytes.resize(fabric.links().size(), 0.0);
  link_busy_seconds.resize(fabric.links().size(), 0.0);
  host_egress_bytes.resize(static_cast<size_t>(fabric.num_hosts()), 0.0);
  host_offered_bytes.resize(static_cast<size_t>(fabric.num_hosts()), 0.0);
}

void LinkUsage::MergeFrom(const LinkUsage& other) {
  auto merge = [](std::vector<double>* into, const std::vector<double>& from) {
    if (into->size() < from.size()) into->resize(from.size(), 0.0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  };
  merge(&link_bytes, other.link_bytes);
  merge(&link_busy_seconds, other.link_busy_seconds);
  merge(&host_egress_bytes, other.host_egress_bytes);
  merge(&host_offered_bytes, other.host_offered_bytes);
  phases += other.phases;
  flows += other.flows;
}

std::vector<double> SimulateFlows(const Fabric& fabric,
                                  const std::vector<Flow>& flows,
                                  LinkUsage* usage, PhaseLog* log) {
  const std::vector<Link>& links = fabric.links();
  const double latency = fabric.config().link_latency;
  std::vector<double> completion(flows.size(), 0.0);
  if (usage != nullptr) usage->EnsureShape(fabric);
  if (log != nullptr) log->flows.resize(flows.size());
  for (const Flow& f : flows) {
    GNNPART_CHECK_CHEAP(!f.links.empty(), "net/flow: flow without links");
    GNNPART_CHECK_CHEAP(f.bytes >= 0 && f.start >= 0 && f.latency_rounds >= 0,
                        "net/flow: negative bytes, start or rounds");
    GNNPART_CHECK_CHEAP(std::isfinite(f.weight) && f.weight > 0,
                        "net/flow: weight must be finite and positive");
    for (int l : f.links) {
      GNNPART_CHECK_CHEAP(l >= 0 && static_cast<size_t>(l) < links.size(),
                          "net/flow: link index out of range");
    }
  }

  // Arrival order: (start, flow index) — stable_sort keeps the index
  // tiebreak, so admission order is deterministic.
  std::vector<size_t> order(flows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return flows[a].start < flows[b].start;
  });

  // The flow's finish projection is anchor_t + remaining/rate; the anchor
  // moves ONLY when the fair-share rate changes (bitwise), so uncontended
  // flows keep anchor_t == start, remaining == bytes and finish exactly at
  // start + bytes/rate — the closed form (see flowsim.h). The projection is
  // cached and recomputed only on re-anchor.
  struct Anchor {
    double t = 0;
    double remaining = 0;
    double rate = 0;
    double finish = 0;

    void Project() { finish = remaining <= 0 ? t : t + remaining / rate; }
  };
  std::vector<size_t> active;   // flow indices, admission order
  std::vector<Anchor> anchors;  // parallel to `active`
  WaterFill fill(links.size(), flows.size());
  std::vector<std::vector<size_t>>& crossing = fill.crossing;
  uint64_t event = 0;
  size_t next_arrival = 0;
  double now = 0.0;

  while (next_arrival < order.size() || !active.empty()) {
    if (active.empty()) {
      // Idle fabric: jump straight to the next arrival. Arrivals at or
      // before `now` were admitted at an earlier event, so time moves
      // forward (event-queue monotonicity).
      const double t0 = flows[order[next_arrival]].start;
      GNNPART_CHECK_CHEAP(t0 >= now, "net/event-monotonic: arrival in past");
      now = t0;
    }
    while (next_arrival < order.size() &&
           flows[order[next_arrival]].start <= now) {
      const size_t idx = order[next_arrival];
      active.push_back(idx);
      anchors.push_back({flows[idx].start, flows[idx].bytes, 0.0, 0.0});
      anchors.back().Project();
      for (int l : flows[idx].links) {
        crossing[static_cast<size_t>(l)].push_back(idx);
      }
      ++next_arrival;
    }

    // Reallocate bandwidth; re-anchor only flows whose rate changed.
    FairShareRates(links, flows, active.size(), ++event, &fill);
    double t_finish = kInf;
    for (size_t i = 0; i < active.size(); ++i) {
      Anchor& a = anchors[i];
      const double rate = fill.rate[active[i]];
      if (a.rate != rate) {
        if (a.rate > 0) {
          a.remaining -= a.rate * (now - a.t);
          if (a.remaining < 0) a.remaining = 0;
        }
        a.t = now;
        a.rate = rate;
        a.Project();
      }
      t_finish = std::min(t_finish, a.finish);
    }
    const double t_arrive = next_arrival < order.size()
                                ? flows[order[next_arrival]].start
                                : kInf;
    const double t_next = std::min(t_finish, t_arrive);
    GNNPART_CHECK_CHEAP(t_next >= now && t_next < kInf,
                        "net/event-monotonic: next event not in the future");

    if ((usage != nullptr || log != nullptr) && t_next > now) {
      const double dt = t_next - now;
      for (size_t l = 0; l < links.size(); ++l) {
        if (crossing[l].empty()) continue;
        if (usage != nullptr) usage->link_busy_seconds[l] += dt;
        if (log == nullptr) continue;
        // One utilization sample per active link per event interval, in
        // link-index order — the piecewise-constant rate profile the
        // explain engine derives peak/p99 utilization from.
        double rate = 0.0;
        for (size_t f : crossing[l]) rate += fill.rate[f];
        log->samples.push_back(
            {static_cast<int>(l), now, t_next, rate, crossing[l].size()});
      }
    }
    now = t_next;

    // Retire flows whose projection is due. The completion uses the flow's
    // own projection (not `now`) so the closed form survives bit-exactly.
    size_t kept = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      const double finish = anchors[i].finish;
      if (finish <= now) {
        const size_t idx = active[i];
        for (int l : flows[idx].links) {
          std::vector<size_t>& on = crossing[static_cast<size_t>(l)];
          on.erase(std::find(on.begin(), on.end(), idx));
        }
        completion[idx] = finish + flows[idx].latency_rounds * latency;
        if (log != nullptr) {
          // The solo rate is the min capacity over the flow's links —
          // exactly the fair share the water-filling assigns a lone flow,
          // so the closed form below matches the engine's completion
          // bitwise whenever the flow was never throttled (flowsim.h).
          double solo = kInf;
          for (int l : flows[idx].links) {
            solo = std::min(solo, links[static_cast<size_t>(l)].capacity);
          }
          FlowDetail& fd = log->flows[idx];
          fd.host = flows[idx].host;
          fd.dst = flows[idx].dst;
          fd.start = flows[idx].start;
          fd.bytes = flows[idx].bytes;
          fd.finish = completion[idx];
          fd.uncontended_finish = (flows[idx].start + flows[idx].bytes / solo) +
                                  flows[idx].latency_rounds * latency;
          fd.links = flows[idx].links;
        }
        if (usage != nullptr) {
          for (int l : flows[idx].links) {
            usage->link_bytes[static_cast<size_t>(l)] += flows[idx].bytes;
          }
          usage->host_egress_bytes[static_cast<size_t>(flows[idx].host)] +=
              flows[idx].bytes;
        }
        continue;
      }
      active[kept] = active[i];
      anchors[kept] = anchors[i];
      ++kept;
    }
    active.resize(kept);
    anchors.resize(kept);
  }
  if (usage != nullptr) usage->flows += flows.size();
  return completion;
}

size_t AppendHostFlows(const Fabric& fabric, int host, double start,
                       double bytes, double rounds, double weight,
                       std::vector<Flow>* flows) {
  if (bytes <= 0) return 0;
  const std::vector<Route>& routes = fabric.HostRoutes(host);
  const uint32_t host_weight = fabric.HostWeight(host);
  const size_t before = flows->size();
  double split = 0;
  for (size_t r = 0; r < routes.size(); ++r) {
    // The last route takes the remainder, so the host's flow bytes sum
    // to `bytes` exactly — and a single-route host (every host on
    // full-bisection) carries its bytes unsplit.
    double share;
    if (r + 1 == routes.size()) {
      share = bytes - split;
      if (share < 0) share = 0;
    } else {
      share = bytes * routes[r].weight / host_weight;
      split += share;
    }
    if (share <= 0) continue;
    Flow flow;
    flow.host = host;
    flow.dst = routes[r].dst;
    flow.start = start;
    flow.bytes = share;
    flow.latency_rounds = rounds;
    flow.weight = weight;
    flow.links = routes[r].links;
    flows->push_back(std::move(flow));
  }
  return flows->size() - before;
}

std::vector<double> SimulatePhase(const Fabric& fabric, const PhaseSpec& spec,
                                  LinkUsage* usage, PhaseLog* log) {
  const size_t hosts = static_cast<size_t>(fabric.num_hosts());
  GNNPART_CHECK_CHEAP(spec.start.size() == hosts &&
                          spec.bytes.size() == hosts &&
                          spec.rounds.size() == hosts,
                      "net/phase: spec shape does not match the fabric");
  static const obs::Counter phase_count =
      obs::GetCounter("net/phases", "phases");
  static const obs::Counter flow_count = obs::GetCounter("net/flows", "flows");
  const double latency = fabric.config().link_latency;
  std::vector<double> completion(hosts, 0.0);
  if (usage != nullptr) {
    usage->EnsureShape(fabric);
    ++usage->phases;
  }

  std::vector<Flow> flows;
  std::vector<std::pair<size_t, size_t>> flow_range(hosts, {0, 0});
  for (size_t h = 0; h < hosts; ++h) {
    if (usage != nullptr) usage->host_offered_bytes[h] += spec.bytes[h];
    // Floor charge: the serial offset plus the latency rounds. For zero
    // egress this is the whole cost — bitwise what the legacy closed form
    // (start + 0/B) + rounds*latency evaluates to — and the engine's
    // finish times can only meet or exceed it.
    completion[h] = spec.start[h] + spec.rounds[h] * latency;
    if (spec.bytes[h] <= 0) continue;
    flow_range[h].first = flows.size();
    AppendHostFlows(fabric, static_cast<int>(h), spec.start[h], spec.bytes[h],
                    spec.rounds[h], /*weight=*/1.0, &flows);
    flow_range[h].second = flows.size();
  }

  const std::vector<double> finish = SimulateFlows(fabric, flows, usage, log);
  for (size_t h = 0; h < hosts; ++h) {
    for (size_t i = flow_range[h].first; i < flow_range[h].second; ++i) {
      completion[h] = std::max(completion[h], finish[i]);
    }
  }
  phase_count.Inc();
  flow_count.Add(flows.size());
  return completion;
}

double PhaseBarrierSeconds(const Fabric& fabric, const PhaseSpec& spec,
                           LinkUsage* usage) {
  const std::vector<double> completion = SimulatePhase(fabric, spec, usage);
  double barrier = 0;
  for (double t : completion) barrier = std::max(barrier, t);
  return barrier;
}

}  // namespace net
}  // namespace gnnpart
