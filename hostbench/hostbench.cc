// hostbench: host-time benchmark binary for gnnpart (see README.md).
//
// One process runs one named workload. --seed expands into kInputs inputs,
// which run one after another, each in an equal slice of --seconds. An
// input's slice starts with its set-up, repeated several times and timed:
// build the graph, write it as a binary graph and read it back (plus, on
// the serve workloads, partition the serving owners). Passes over the
// input then fill the rest of the slice in a closed loop: each cell starts
// after the previous one returns, and every call into a library layer is
// timed from outside by a span. Only the current input is resident. Each
// cell hashes its deterministic outputs together with the non-zero
// det:true obs rows it produced; every set-up repetition and every pass
// must reproduce the digests of the first one over its input, and for the
// seeds listed in the --digests file they must equal the pinned ones.
//
// Usage:
//   hostbench <workload> --seed N [--threads N] [--seconds S]
//             [--trace-out FILE] [--graph-file FILE] [--digests FILE]
//             [--tiny]
//
// Without --trace-out every pass is untraced and the end-to-end metrics are
// reported. With it, passes over each input alternate untraced/traced, the
// per-layer metrics are reported and the spans are written to FILE at
// exit. The last stdout line is one JSON object. Exit 0 when every cell
// succeeded and every digest matched, 1 on any failure, 2 on a usage error.

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/validators.h"
#include "common/parallel.h"
#include "common/status.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/split.h"
#include "harness/experiment.h"
#include "metrics/partition_metrics.h"
#include "net/flowsim.h"
#include "net/topology.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "serve/serve.h"
#include "serve/workload.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"
#include "trace/explain.h"
#include "trace/trace.h"

using namespace gnnpart;

namespace {

using Clock = std::chrono::steady_clock;

// Every seed expands into kInputs generated inputs (graph, split, serving
// owners and request streams), and passes cycle through them. A run's
// medians then cover several draws of each randomized input, which keeps
// seed-to-seed spread down where a layer's cost depends strongly on its
// input (multilevel coarsening, the serving backlog past saturation).
constexpr uint64_t kInputs = 8;
// Each input's set-up runs at least kMinSetupReps times, and more while the
// repetitions fit in kSetupShare of the input's slice of --seconds.
constexpr int kMinSetupReps = 3;
constexpr double kSetupShare = 0.2;
constexpr size_t kGlobalBatchSize = 256;
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  double t0 = 0;    // seconds since the tracer's origin
  double t1 = 0;
  int parent = -1;  // index of the enclosing span; -1 at top level
  int cell = -1;    // cell id; -1 outside a cell (set-up, pass)
};

// In-memory span recorder. While disabled it records nothing and never
// reads the clock, so untraced passes pay only for a branch per call.
class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }
  int Begin(const std::string& name, int cell) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.t0 = Now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.cell = cell;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].t1 = Now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, int cell)
      : tracer_(tracer), id_(tracer->Begin(name, cell)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// The layer a span belongs to: the part of its name before the first dot,
// with the two epoch simulators grouped as "sim" and the structural spans
// (set-up, pass, cell) as the benchmark's own.
std::string LayerOf(const std::string& span) {
  const std::string head = span.substr(0, span.find('.'));
  if (head == "distgnn" || head == "distdgl") return "sim";
  if (head == "setup" || head == "pass" || head == "cell") return "bench";
  return head;
}

const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {
      "gen", "graph", "partition", "metrics", "sim", "sampling", "serve",
      "explain"};
  return layers;
}

// Sums over the spans in [first, end): busy seconds per span name
// ("span:<name>"), and per layer its busy seconds ("<layer>.s", outermost
// spans of the layer only) and self seconds ("<layer>.self_s", each span's
// duration minus the durations of its child spans).
std::map<std::string, double> Aggregate(const std::vector<Span>& spans,
                                        size_t first) {
  std::map<std::string, double> out;
  std::vector<double> child(spans.size(), 0.0);
  for (size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= static_cast<int>(first)) {
      child[static_cast<size_t>(spans[i].parent)] += spans[i].t1 - spans[i].t0;
    }
  }
  for (size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.t1 - s.t0;
    const std::string layer = LayerOf(s.name);
    out["span:" + s.name] += dur;
    out[layer + ".self_s"] += dur - child[i];
    const bool outermost =
        s.parent < static_cast<int>(first) ||
        LayerOf(spans[static_cast<size_t>(s.parent)].name) != layer;
    if (outermost) out[layer + ".s"] += dur;
  }
  out["trace.spans"] = static_cast<double>(spans.size() - first);
  return out;
}

// ---------------------------------------------------------------------------
// Canonical digest text

class Canon {
 public:
  void Add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Line(key, buf);
  }
  void Add(const std::string& key, uint64_t v) { Line(key, std::to_string(v)); }
  void Add(const std::string& key, const std::string& v) { Line(key, v); }
  // The non-zero deterministic obs rows, in DumpDeterministic's line
  // format. Rows the cell never touched stay out, so a cell's text does
  // not depend on which metrics earlier cells happened to register.
  void AddObsRows(const obs::MetricsSnapshot& snap) {
    for (const obs::MetricRow& row : snap.rows) {
      if (!row.deterministic ||
          (row.value == 0 && row.level == 0 && row.count == 0)) {
        continue;
      }
      obs::AppendMetricLine(row, &text_);
    }
  }
  std::string Digest() const { return Hex(Fnv1a(text_.data(), text_.size())); }

 private:
  void Line(const std::string& key, const std::string& v) {
    text_ += key;
    text_ += '=';
    text_ += v;
    text_ += '\n';
  }
  std::string text_;
};

void AddReport(Canon* c, const DistGnnEpochReport& r) {
  c->Add("epoch", r.epoch_seconds);
  c->Add("fwd", r.forward_seconds);
  c->Add("bwd", r.backward_seconds);
  c->Add("sync", r.sync_seconds);
  c->Add("opt", r.optimizer_seconds);
  c->Add("net_bytes", r.total_network_bytes);
  c->Add("max_mem", r.max_memory_bytes);
  c->Add("mean_mem", r.mean_memory_bytes);
  c->Add("mem_balance", r.memory_balance);
  c->Add("oom", static_cast<uint64_t>(r.out_of_memory));
  for (const DistGnnMachineStats& m : r.machines) {
    c->Add("m.compute", m.compute_seconds);
    c->Add("m.network", m.network_seconds);
    c->Add("m.bytes", m.network_bytes);
    c->Add("m.memory", m.memory_bytes);
  }
}

void AddReport(Canon* c, const DistDglEpochReport& r) {
  c->Add("epoch", r.epoch_seconds);
  c->Add("sampling", r.sampling_seconds);
  c->Add("feature", r.feature_seconds);
  c->Add("fwd", r.forward_seconds);
  c->Add("bwd", r.backward_seconds);
  c->Add("update", r.update_seconds);
  c->Add("net_bytes", r.total_network_bytes);
  c->Add("remote_inputs", r.remote_input_vertices);
  c->Add("time_balance", r.time_balance);
  for (const DistDglWorkerStats& w : r.workers) {
    c->Add("w.sampling", w.sampling_seconds);
    c->Add("w.feature", w.feature_seconds);
    c->Add("w.fwd", w.forward_seconds);
    c->Add("w.bwd", w.backward_seconds);
    c->Add("w.update", w.update_seconds);
    c->Add("w.bytes", w.network_bytes);
  }
}

std::string AssignmentHash(const std::vector<PartitionId>& a) {
  return Hex(Fnv1a(a.data(), a.size() * sizeof(PartitionId)));
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kDistGnn, kDistDgl, kServe };

struct Workload {
  std::string name;
  Kind kind = Kind::kDistGnn;
  DatasetId dataset = DatasetId::kEnwiki;
  double scale = 1;
  PartitionId k = 0;
  // Serve workloads only.
  net::TopologyKind topology = net::TopologyKind::kFullBisection;
  double arrival_rate = 0;  // requests per simulated second
  double duration = 0;      // simulated seconds of arrivals
};

// The four workloads at full size, or at the tiny size of the self-tests.
std::vector<Workload> MakeWorkloads(bool tiny) {
  const Workload distgnn{"distgnn", Kind::kDistGnn, DatasetId::kEnwiki,
                         tiny ? 0.05 : 0.5, tiny ? 8u : 32u};
  const Workload distdgl{"distdgl", Kind::kDistDgl, DatasetId::kOrkut,
                         tiny ? 0.05 : 0.25, tiny ? 4u : 16u};
  const Workload congested{"serve-congested", Kind::kServe,
                           DatasetId::kEnwiki, 0.05, 8,
                           net::TopologyKind::kRing, tiny ? 500.0 : 4500.0,
                           tiny ? 0.2 : 0.15};
  const Workload light{"serve-light", Kind::kServe, DatasetId::kEnwiki,
                       0.05, 8, net::TopologyKind::kFullBisection,
                       tiny ? 200.0 : 2000.0, tiny ? 0.5 : 5.0};
  return {distgnn, distdgl, congested, light};
}

// The 12 study partitioners' display names, vertex ones prefixed with "v".
std::vector<std::string> StudyPartitionerNames() {
  std::vector<std::string> names;
  for (EdgePartitionerId id : AllEdgePartitioners()) {
    names.push_back(MakeEdgePartitioner(id)->name());
  }
  for (VertexPartitionerId id : AllVertexPartitioners()) {
    names.push_back("v" + MakeVertexPartitioner(id)->name());
  }
  return names;
}

// The 4:1 fat-tree every training epoch of the benchmark runs on.
net::NetworkConfig FatTree(const ClusterSpec& cluster) {
  net::NetworkConfig config = net::NetworkConfig::FromCluster(cluster);
  config.topology = net::TopologyKind::kFatTree;
  config.oversubscription = 4.0;
  return config;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int threads = 4;
  double seconds = 10;
  std::string trace_out;
  std::string graph_file = "hostbench_graph.bin";
  std::string digests;
  bool tiny = false;
};

// A vertex ownership the serve workloads route requests by.
struct Owners {
  std::string name;
  VertexPartitioning parts;
};

// One generated input of a workload; `seed` seeds everything derived from
// it: the graph, the split, the partitioners and the request streams.
struct Input {
  uint64_t seed = 0;
  Graph graph;
  VertexSplit split;
  std::vector<Owners> owners;
  double file_bytes = 0;
};

// One cell's outcome: the layer of the last call it made (the culprit when
// `status` is not OK) and the digest of its outputs.
struct CellResult {
  std::string name;
  std::string layer;
  Status status;
  std::string digest;
};

using Counters = std::map<std::string, double>;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class Bench {
 public:
  Bench(const Options& opt, const Workload& w);
  int Run();

 private:
  Status Setup(Input* in, std::string* layer, Canon* canon);
  void RunPass(std::vector<CellResult>* cells, Counters* counters);
  void RunCell(const std::string& name,
               const std::function<Status(CellResult*, Canon*)>& body,
               std::vector<CellResult>* cells, Counters* counters);
  Status DistGnnCell(EdgePartitionerId id, CellResult* cell, Canon* c);
  Status DistDglCell(VertexPartitionerId id, CellResult* cell, Canon* c);
  Status ExplainCell(CellResult* cell, Canon* c, Counters* counters);
  Status ServeCell(const Owners& owners, bool cotenant, size_t stream,
                   CellResult* cell, Canon* c, Counters* counters);

  template <typename F>
  auto Timed(const std::string& span, F&& f) {
    Scope s(&tracer_, span, cell_id_);
    return f();
  }
  void Fail(const std::string& layer, const std::string& what);
  void CheckPinnedDigests();
  std::vector<Metric> Metrics(bool traced) const;
  Status WriteTrace() const;
  void PrintResult(bool traced) const;

  Options opt_;
  Workload w_;
  ClusterSpec cluster_;
  net::Fabric fabric_;
  std::vector<GnnConfig> grid_;
  Tracer tracer_;
  int cell_id_ = -1;
  int next_cell_ = 0;

  const Input* in_ = nullptr;  // the input of the current pass
  // vMetis's 3-layer profile from the current distdgl pass, which the
  // explained epoch replays.
  DistDglEpochProfile explain_profile_;
  bool have_explain_profile_ = false;

  // Measurements.
  std::vector<double> setup_seconds_;
  std::vector<uint64_t> setup_inputs_;
  std::vector<double> untraced_pass_seconds_;
  std::vector<uint64_t> untraced_pass_inputs_;
  std::vector<double> traced_pass_seconds_;
  std::vector<uint64_t> traced_pass_inputs_;
  std::vector<Counters> setup_layers_;  // one per set-up, traced runs only
  std::vector<Counters> pass_layers_;   // one per traced pass
  // Work counters and graph file sizes summed over the first set-up and the
  // first pass of each input.
  Counters setup_counters_;
  Counters pass_counters_;
  Counters failed_by_layer_;
  double file_bytes_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t passes_ = 0;
  std::vector<std::string> errors_;
  // "<input>:<cell>" -> digest, from the first set-up and the first pass
  // over each input.
  std::vector<std::pair<std::string, std::string>> digests_;
  bool pinned_ = false;
};

Bench::Bench(const Options& opt, const Workload& w)
    : opt_(opt),
      w_(w),
      cluster_([&] {
        ClusterSpec c;
        c.num_machines = static_cast<int>(w.k);
        return c;
      }()),
      fabric_(FatTree(cluster_), static_cast<int>(w.k)),
      grid_(HyperParameterGrid(ExperimentContext{},
                               GnnArchitecture::kGraphSage)) {}

void Bench::Fail(const std::string& layer, const std::string& what) {
  ++failed_;
  failed_by_layer_[layer] += 1;
  if (errors_.size() < 20) errors_.push_back(what);
}

// Adds the work counters of interest from the det:true obs rows.
void AddCounters(const obs::MetricsSnapshot& snap, Counters* out) {
  static const std::vector<std::pair<std::string, std::string>> kRows = {
      {"gen/edges_emitted", "gen.edges"},
      {"partition/vertex/multilevel/refine_moves",
       "partition.multilevel.refine_moves"},
      {"partition/vertex/multilevel/coarsen_levels",
       "partition.multilevel.coarsen_levels"},
      {"sim/distgnn/epochs_simulated", "distgnn.epochs"},
      {"sim/distdgl/epochs_simulated", "distdgl.epochs"},
      {"sampler/neighbor/sampled_edges", "sampling.sampled_edges"},
      {"sampler/neighbor/remote_requests", "sampling.remote_requests"},
      {"net/flows", "net.flows"},
      {"net/phases", "net.phases"},
  };
  for (const obs::MetricRow& row : snap.rows) {
    for (const auto& [obs_name, metric] : kRows) {
      if (row.deterministic && row.name == obs_name) {
        (*out)[metric] += static_cast<double>(row.value);
      }
    }
  }
}

Status Bench::Setup(Input* in, std::string* layer, Canon* canon) {
  {
    // The generated graph is dropped once the read-back copy matches it.
    *layer = "gen";
    Result<Graph> made = Timed(
        "gen", [&] { return MakeDataset(w_.dataset, w_.scale, in->seed); });
    if (!made.ok()) return made.status();
    *layer = "graph";
    Status written = Timed("graph.write", [&] {
      return WriteBinaryGraph(*made, opt_.graph_file);
    });
    if (!written.ok()) return written;
    std::error_code ec;
    in->file_bytes = static_cast<double>(
        std::filesystem::file_size(opt_.graph_file, ec));
    Result<Graph> read =
        Timed("graph.read", [&] { return ReadBinaryGraph(opt_.graph_file); });
    std::filesystem::remove(opt_.graph_file, ec);
    if (!read.ok()) return read.status();
    if (read->num_vertices() != made->num_vertices() ||
        read->directed() != made->directed() ||
        read->edges() != made->edges()) {
      return Status::Internal("binary graph did not round-trip");
    }
    in->graph = std::move(read).value();
  }
  const Graph& graph = in->graph;
  in->split = VertexSplit::MakeRandom(graph.num_vertices(), 0.1, 0.1, in->seed);
  canon->Add("vertices", static_cast<uint64_t>(graph.num_vertices()));
  canon->Add("edges", static_cast<uint64_t>(graph.num_edges()));
  canon->Add("edge_hash", Hex(Fnv1a(graph.edges().data(),
                                    graph.edges().size() * sizeof(Edge))));
  if (w_.kind != Kind::kServe) return Status::Ok();

  // The serving owners: a multilevel edge-cut, HDRF's vertex-cut served
  // through DeriveVertexOwnership, and the random baseline.
  *layer = "partition";
  auto metis = MakeVertexPartitioner(VertexPartitionerId::kMetis);
  Result<VertexPartitioning> metis_parts = Timed("partition.vMetis", [&] {
    return metis->Partition(graph, in->split, w_.k, in->seed);
  });
  if (!metis_parts.ok()) return metis_parts.status();
  in->owners.push_back({"vMetis", std::move(metis_parts).value()});
  auto hdrf = MakeEdgePartitioner(EdgePartitionerId::kHdrf);
  Result<EdgePartitioning> hdrf_parts = Timed(
      "partition.HDRF", [&] { return hdrf->Partition(graph, w_.k, in->seed); });
  if (!hdrf_parts.ok()) return hdrf_parts.status();
  *layer = "serve";
  in->owners.push_back({"HDRF", Timed("serve.owners", [&] {
                          return serve::DeriveVertexOwnership(graph,
                                                              *hdrf_parts);
                        })});
  *layer = "partition";
  auto random = MakeVertexPartitioner(VertexPartitionerId::kRandom);
  Result<VertexPartitioning> random_parts = Timed("partition.vRandom", [&] {
    return random->Partition(graph, in->split, w_.k, in->seed);
  });
  if (!random_parts.ok()) return random_parts.status();
  in->owners.push_back({"vRandom", std::move(random_parts).value()});
  for (const Owners& o : in->owners) {
    canon->Add("owners." + o.name, AssignmentHash(o.parts.assignment));
  }
  return Status::Ok();
}

void Bench::RunCell(const std::string& name,
                    const std::function<Status(CellResult*, Canon*)>& body,
                    std::vector<CellResult>* cells, Counters* counters) {
  CellResult cell;
  cell.name = name;
  cell_id_ = next_cell_++;
  Canon canon;
  {
    Scope s(&tracer_, "cell", cell_id_);
    obs::ResetForTest();
    cell.status = body(&cell, &canon);
    const obs::MetricsSnapshot snap = obs::Snapshot();
    AddCounters(snap, counters);
    canon.AddObsRows(snap);
  }
  cell_id_ = -1;
  cell.digest = canon.Digest();
  cells->push_back(std::move(cell));
}

void Bench::RunPass(std::vector<CellResult>* cells, Counters* counters) {
  switch (w_.kind) {
    case Kind::kDistGnn:
      for (EdgePartitionerId id : AllEdgePartitioners()) {
        RunCell(
            MakeEdgePartitioner(id)->name(),
            [&](CellResult* cell, Canon* c) {
              return DistGnnCell(id, cell, c);
            },
            cells, counters);
      }
      break;
    case Kind::kDistDgl:
      have_explain_profile_ = false;
      for (VertexPartitionerId id : AllVertexPartitioners()) {
        RunCell(
            "v" + MakeVertexPartitioner(id)->name(),
            [&](CellResult* cell, Canon* c) {
              return DistDglCell(id, cell, c);
            },
            cells, counters);
      }
      RunCell(
          "explain",
          [&](CellResult* cell, Canon* c) {
            return ExplainCell(cell, c, counters);
          },
          cells, counters);
      break;
    case Kind::kServe:
      // Each cell serves its own request stream, so that a pass averages
      // several independent draws of the arrival process: past saturation
      // the host cost grows superlinearly with the number of arrivals.
      for (size_t i = 0; i < in_->owners.size(); ++i) {
        RunCell(
            "serve:" + in_->owners[i].name,
            [&](CellResult* cell, Canon* c) {
              return ServeCell(in_->owners[i], false, i, cell, c, counters);
            },
            cells, counters);
      }
      RunCell(
          "cotenant:" + in_->owners.front().name,
          [&](CellResult* cell, Canon* c) {
            return ServeCell(in_->owners.front(), true, in_->owners.size(),
                             cell, c, counters);
          },
          cells, counters);
      break;
  }
}

// The paper's DistGNN loop for one edge partitioner: partition, quality
// metrics, workload build, and the Table-3 grid on the fat-tree.
Status Bench::DistGnnCell(EdgePartitionerId id, CellResult* cell, Canon* c) {
  auto partitioner = MakeEdgePartitioner(id);
  cell->layer = "partition";
  Result<EdgePartitioning> parts =
      Timed("partition." + partitioner->name(), [&] {
        return partitioner->Partition(in_->graph, w_.k, in_->seed);
      });
  if (!parts.ok()) return parts.status();
  c->Add("assignment", AssignmentHash(parts->assignment));

  cell->layer = "metrics";
  const EdgePartitionMetrics m = Timed("metrics", [&] {
    return ComputeEdgePartitionMetrics(in_->graph, *parts);
  });
  c->Add("rf", m.replication_factor);
  c->Add("edge_balance", m.edge_balance);
  c->Add("vertex_balance", m.vertex_balance);
  c->Add("replicas", m.total_replicas);

  cell->layer = "sim";
  const DistGnnWorkload workload = Timed("distgnn.build", [&] {
    return BuildDistGnnWorkload(in_->graph, *parts);
  });
  std::vector<DistGnnEpochReport> reports(grid_.size());
  Timed("distgnn.sim", [&] {
    ParallelFor(grid_.size(), 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        reports[i] = SimulateDistGnnEpoch(workload, grid_[i], cluster_,
                                          nullptr, &fabric_);
      }
    });
  });
  for (const DistGnnEpochReport& r : reports) AddReport(c, r);
  return Status::Ok();
}

// The paper's DistDGL loop for one vertex partitioner: partition, quality
// metrics, one sampled epoch profile per layer count, and the 3x3 grid per
// profile on the fat-tree (as RunDistDglGrid does).
Status Bench::DistDglCell(VertexPartitionerId id, CellResult* cell,
                          Canon* c) {
  auto partitioner = MakeVertexPartitioner(id);
  cell->layer = "partition";
  Result<VertexPartitioning> parts =
      Timed("partition.v" + partitioner->name(), [&] {
        return partitioner->Partition(in_->graph, in_->split, w_.k, in_->seed);
      });
  if (!parts.ok()) return parts.status();
  c->Add("assignment", AssignmentHash(parts->assignment));

  cell->layer = "metrics";
  const VertexPartitionMetrics m = Timed("metrics", [&] {
    return ComputeVertexPartitionMetrics(in_->graph, *parts, in_->split);
  });
  c->Add("edge_cut", m.edge_cut_ratio);
  c->Add("vertex_balance", m.vertex_balance);
  c->Add("train_balance", m.train_vertex_balance);
  c->Add("cut_edges", m.cut_edges);

  cell->layer = "sampling";
  std::vector<DistDglEpochProfile> profiles;
  for (int layers : {2, 3, 4}) {
    Result<DistDglEpochProfile> profile = Timed("sampling", [&] {
      return ProfileDistDglEpoch(in_->graph, *parts, in_->split,
                                 GnnConfig::DefaultFanouts(layers),
                                 kGlobalBatchSize,
                                 in_->seed + static_cast<uint64_t>(layers));
    });
    if (!profile.ok()) return profile.status();
    c->Add("remote_inputs", profile->TotalRemoteInputVertices());
    c->Add("inputs", profile->TotalInputVertices());
    c->Add("comp_edges", profile->TotalComputationEdges());
    c->Add("input_balance", profile->InputVertexBalance());
    profiles.push_back(std::move(profile).value());
  }

  cell->layer = "sim";
  std::vector<DistDglEpochReport> reports(grid_.size());
  Timed("distdgl.sim", [&] {
    ParallelFor(grid_.size(), 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        const GnnConfig& config = grid_[i];
        reports[i] = SimulateDistDglEpoch(
            profiles[static_cast<size_t>(config.num_layers - 2)], config,
            cluster_, nullptr, &fabric_);
      }
    });
  });
  for (const DistDglEpochReport& r : reports) AddReport(c, r);
  if (id == VertexPartitionerId::kMetis) {
    explain_profile_ = std::move(profiles[1]);
    have_explain_profile_ = true;
  }
  return Status::Ok();
}

// One explained epoch of vMetis's 3-layer profile, as `gnnpart_cli explain`
// runs it: traced simulation with an event log, the cross-layer checks,
// and the critical-path attribution.
Status Bench::ExplainCell(CellResult* cell, Canon* c, Counters* counters) {
  cell->layer = "explain";
  if (!have_explain_profile_) {
    return Status::FailedPrecondition("no vMetis profile to explain");
  }
  Scope s(&tracer_, "explain", cell_id_);
  GnnConfig config;
  config.fanouts = GnnConfig::DefaultFanouts(config.num_layers);
  config.global_batch_size = kGlobalBatchSize;
  trace::TraceRecorder recorder;
  obs::EventLog events;
  net::LinkUsage usage;
  const DistDglEpochReport report = Timed("explain.traced_sim", [&] {
    return SimulateDistDglEpoch(explain_profile_, config, cluster_, &recorder,
                                &fabric_, &usage, &events);
  });
  AddReport(c, report);
  for (Status st : {check::CheckTraceReconstructsReport(recorder, report),
                    check::ValidateEventLog(events),
                    check::CheckEventSpansMatchTrace(events, recorder),
                    check::CheckEventAttribution(events)}) {
    if (!st.ok()) return st;
  }
  Result<trace::ExplainReport> explained =
      Timed("explain.compute", [&] { return trace::ComputeExplain(events); });
  if (!explained.ok()) return explained.status();
  c->Add("total", explained->total_seconds);
  c->Add("compute", explained->compute_seconds);
  c->Add("wait", explained->wait_seconds);
  c->Add("congestion", explained->congestion_seconds);
  c->Add("migration", explained->migration_seconds);
  c->Add("links", static_cast<uint64_t>(explained->links.size()));
  uint64_t records = events.run_events().size();
  for (const obs::EpochEvents& epoch : events.epochs()) {
    records += epoch.events.size();
  }
  c->Add("events", records);
  (*counters)["explain.events"] += static_cast<double>(records);
  return Status::Ok();
}

// One open-loop serving window against `owners`, optionally alongside a
// co-tenant DistDGL trainer: request stream number `stream` of the seed,
// then RunServe.
Status Bench::ServeCell(const Owners& owners, bool cotenant, size_t stream,
                        CellResult* cell, Canon* c, Counters* counters) {
  serve::ServeConfig config;
  config.workload.arrival_rate = w_.arrival_rate;
  config.workload.duration = w_.duration;
  config.workload.seed = in_->seed * 16 + stream;
  config.batch.max_batch = 8;
  config.batch.max_wait = 0.002;
  config.serve_weight = 4.0;
  config.cotenant = cotenant;
  config.gnn.num_layers = 3;
  config.gnn.feature_size = 256;
  config.gnn.hidden_dim = 64;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(3);
  config.gnn.global_batch_size = kGlobalBatchSize;
  config.cluster = cluster_;
  config.network = net::NetworkConfig::FromCluster(cluster_);
  config.network.topology = w_.topology;
  config.seed = in_->seed;

  cell->layer = "serve";
  // RunServe generates the same stream itself; this copy is hashed and
  // dropped first, so that the benchmark holds no request vector while
  // RunServe runs.
  size_t num_requests = 0;
  {
    const std::vector<serve::ServeRequest> requests = Timed("serve.gen", [&] {
      return serve::GenerateRequests(config.workload, owners.parts);
    });
    uint64_t h = kFnvOffset;
    for (const serve::ServeRequest& r : requests) {
      h = Fnv1a(&r.id, sizeof(r.id), h);
      h = Fnv1a(&r.arrival, sizeof(r.arrival), h);
      h = Fnv1a(&r.ego, sizeof(r.ego), h);
      h = Fnv1a(&r.home, sizeof(r.home), h);
    }
    c->Add("request_trace", Hex(h));
    num_requests = requests.size();
  }
  Result<serve::ServeReport> report = Timed("serve.run", [&] {
    return serve::RunServe(in_->graph, owners.parts, config, nullptr);
  });
  if (!report.ok()) return report.status();
  if (report->requests != num_requests) {
    return Status::Internal("RunServe served " +
                            std::to_string(report->requests) + " of " +
                            std::to_string(num_requests) + " requests");
  }
  c->Add("requests", report->requests);
  c->Add("batches", report->batches);
  c->Add("mean_batch", report->mean_batch_size);
  c->Add("p50", report->latency.p50);
  c->Add("p95", report->latency.p95);
  c->Add("p99", report->latency.p99);
  c->Add("max", report->latency.max);
  c->Add("mean", report->latency.mean);
  c->Add("queue", report->queue_seconds);
  c->Add("compute", report->compute_seconds);
  c->Add("network", report->network_seconds);
  c->Add("congestion", report->congestion_seconds);
  c->Add("net_bytes", report->network_bytes);
  c->Add("cotenant_steps", report->cotenant_steps);
  (*counters)["serve.requests"] += static_cast<double>(report->requests);
  (*counters)["serve.batches"] += static_cast<double>(report->batches);
  return Status::Ok();
}

// Compares the first pass's digests with the ones pinned for this
// (workload, seed), if the digests file pins any. Tiny runs are pinned
// under "<workload>@tiny".
void Bench::CheckPinnedDigests() {
  if (opt_.digests.empty()) return;
  const std::string key = w_.name + (opt_.tiny ? "@tiny" : "");
  std::ifstream in(opt_.digests);
  if (!in) {
    Fail("bench", "cannot read digests file '" + opt_.digests + "'");
    return;
  }
  std::map<std::string, std::string> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, cell, digest;
    if (!(fields >> workload >> seed >> cell >> digest)) continue;
    if (workload == key && seed == std::to_string(opt_.seed)) {
      pinned[cell] = digest;
    }
  }
  if (pinned.empty()) return;
  pinned_ = true;
  for (const auto& [cell, digest] : digests_) {
    auto it = pinned.find(cell);
    if (it == pinned.end() || it->second != digest) {
      Fail("bench", "digest of cell '" + cell + "' is " + digest +
                         ", pinned " +
                         (it == pinned.end() ? "none" : it->second));
    }
    if (it != pinned.end()) pinned.erase(it);
  }
  for (const auto& [cell, digest] : pinned) {
    Fail("bench", "pinned cell '" + cell + "' did not run");
  }
}

// The mean over inputs of the median of each input's samples: passes over
// different inputs cost different amounts, and a run ends after whichever
// pass fits, so a plain median would depend on which inputs got one pass
// more.
double InputMeanOfMedians(const std::vector<double>& values,
                          const std::vector<uint64_t>& inputs) {
  double sum = 0;
  int used = 0;
  for (uint64_t i = 0; i < kInputs; ++i) {
    std::vector<double> mine;
    for (size_t j = 0; j < values.size(); ++j) {
      if (inputs[j] == i) mine.push_back(values[j]);
    }
    if (mine.empty()) continue;
    sum += Median(mine);
    ++used;
  }
  return used == 0 ? 0.0 : sum / used;
}

// The digest recorded for `key` by the first pass over its input, or "".
std::string FindDigest(
    const std::vector<std::pair<std::string, std::string>>& digests,
    const std::string& key) {
  for (const auto& [name, digest] : digests) {
    if (name == key) return digest;
  }
  return "";
}

int Bench::Run() {
  const bool trace_mode = !opt_.trace_out.empty();
  const double slice = opt_.seconds / static_cast<double>(kInputs);
  const int min_passes = trace_mode ? 2 : 1;
  Input input;
  for (uint64_t index = 0; index < kInputs && failed_ == 0; ++index) {
    const Clock::time_point slice_start = Clock::now();
    const std::string setup_key = std::to_string(index) + ":setup";

    // Set-up, repeated while it fits in its share of the slice; every
    // repetition must rebuild exactly the same input. The last one is kept.
    tracer_.Enable(trace_mode);
    double setup_total = 0;
    double last_setup = 0;
    for (int rep = 0; failed_ == 0; ++rep) {
      if (rep >= kMinSetupReps &&
          setup_total + last_setup > kSetupShare * slice) {
        break;
      }
      input = Input{};  // free the previous repetition before building anew
      input.seed = opt_.seed * kInputs + index;
      const size_t first = tracer_.spans().size();
      obs::ResetForTest();
      std::string layer;
      Canon canon;
      Status st;
      const Clock::time_point t0 = Clock::now();
      {
        Scope s(&tracer_, "setup", -1);
        st = Setup(&input, &layer, &canon);
      }
      last_setup = SecondsSince(t0);
      setup_total += last_setup;
      ++attempted_;
      if (!st.ok()) {
        Fail(layer, setup_key + ": " + st.ToString());
        break;
      }
      setup_seconds_.push_back(last_setup);
      setup_inputs_.push_back(index);
      if (trace_mode) setup_layers_.push_back(Aggregate(tracer_.spans(), first));
      const obs::MetricsSnapshot snap = obs::Snapshot();
      canon.AddObsRows(snap);
      if (rep == 0) {
        AddCounters(snap, &setup_counters_);
        file_bytes_ += input.file_bytes;
        digests_.emplace_back(setup_key, canon.Digest());
      } else if (canon.Digest() != FindDigest(digests_, setup_key)) {
        Fail("bench", setup_key + ": set-up changed between repetitions");
      }
    }

    // Closed loop over passes on this input; a pass is started only if it
    // is expected to end within the slice, but at least min_passes run.
    // Traced runs alternate untraced and traced passes, so that the
    // tracing overhead is measured in one process on the same inputs.
    in_ = &input;
    double last_pass = 0;
    for (int pass = 0; failed_ == 0; ++pass) {
      if (pass >= min_passes &&
          SecondsSince(slice_start) + last_pass > slice) {
        break;
      }
      const bool traced = trace_mode && pass % 2 == 1;
      tracer_.Enable(traced);
      const size_t first = tracer_.spans().size();
      std::vector<CellResult> cells;
      Counters counters;
      const Clock::time_point t0 = Clock::now();
      {
        Scope s(&tracer_, "pass", -1);
        RunPass(&cells, &counters);
      }
      last_pass = SecondsSince(t0);
      ++passes_;
      (traced ? traced_pass_seconds_ : untraced_pass_seconds_)
          .push_back(last_pass);
      (traced ? traced_pass_inputs_ : untraced_pass_inputs_).push_back(index);
      if (traced) pass_layers_.push_back(Aggregate(tracer_.spans(), first));
      if (pass == 0) {
        for (const auto& [name, value] : counters) pass_counters_[name] += value;
      }
      for (const CellResult& cell : cells) {
        ++attempted_;
        const std::string key = std::to_string(index) + ":" + cell.name;
        if (!cell.status.ok()) {
          Fail(cell.layer, key + ": " + cell.status.ToString());
        } else if (pass == 0) {
          digests_.emplace_back(key, cell.digest);
        } else if (FindDigest(digests_, key) != cell.digest) {
          Fail(cell.layer, key + ": digest changed between passes");
        }
      }
    }
    in_ = nullptr;
  }
  tracer_.Enable(false);
  if (failed_ == 0) CheckPinnedDigests();
  if (trace_mode) {
    if (Status st = WriteTrace(); !st.ok()) Fail("bench", st.ToString());
  }
  PrintResult(trace_mode);
  return failed_ == 0 ? 0 : 1;
}

// Every metric of the run, in report order: the end-to-end set when
// untraced, the per-layer set when traced. The traced set is the same on
// every workload, with 0 where a workload does not use a layer.
std::vector<Metric> Bench::Metrics(bool traced) const {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };
  if (!traced) {
    add("setup_s", "s", InputMeanOfMedians(setup_seconds_, setup_inputs_));
    add("wall_s", "s",
        InputMeanOfMedians(untraced_pass_seconds_, untraced_pass_inputs_));
    add("peak_rss_mb", "MiB",
        static_cast<double>(obs::PeakRssBytes()) / (1024.0 * 1024.0));
    return out;
  }
  // Set-up layers are averaged like setup_s over the set-ups, pass layers
  // like wall_s over the traced passes; a span name occurs in only one of
  // the two.
  auto timed = [&](const std::string& key) {
    auto values = [&](const std::vector<Counters>& runs) {
      std::vector<double> v;
      for (const Counters& m : runs) {
        auto it = m.find(key);
        v.push_back(it == m.end() ? 0.0 : it->second);
      }
      return v;
    };
    return InputMeanOfMedians(values(setup_layers_), setup_inputs_) +
           InputMeanOfMedians(values(pass_layers_), traced_pass_inputs_);
  };
  // Counters are per input: the mean over the inputs of one set-up plus
  // one pass, so they repeat exactly for a given seed.
  auto count = [&](const std::string& key) {
    auto get = [&](const Counters& m) {
      auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    return (get(setup_counters_) + get(pass_counters_)) /
           static_cast<double>(kInputs);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto failed = [&](const std::string& layer) {
    auto it = failed_by_layer_.find(layer);
    return it == failed_by_layer_.end() ? 0.0 : it->second;
  };
  for (const std::string& layer : Layers()) {
    add(layer + ".s", "s", timed(layer + ".s"));
    add(layer + ".self_s", "s", timed(layer + ".self_s"));
    add(layer + ".failed", "count", failed(layer));
  }
  add("gen.edges", "edges", count("gen.edges"));
  add("graph.write_s", "s", timed("span:graph.write"));
  add("graph.read_s", "s", timed("span:graph.read"));
  add("graph.file_bytes", "bytes", file_bytes_ / static_cast<double>(kInputs));
  for (const std::string& name : StudyPartitionerNames()) {
    add("partition." + name + ".s", "s", timed("span:partition." + name));
  }
  add("partition.multilevel.refine_moves", "count",
      count("partition.multilevel.refine_moves"));
  add("partition.multilevel.coarsen_levels", "count",
      count("partition.multilevel.coarsen_levels"));
  add("distgnn.build_s", "s", timed("span:distgnn.build"));
  add("distgnn.sim_s", "s", timed("span:distgnn.sim"));
  add("distgnn.epochs", "count", count("distgnn.epochs"));
  add("distdgl.sim_s", "s", timed("span:distdgl.sim"));
  add("distdgl.epochs", "count", count("distdgl.epochs"));
  add("sampling.sampled_edges", "edges", count("sampling.sampled_edges"));
  add("sampling.remote_requests", "count", count("sampling.remote_requests"));
  // On the serve workloads sampling runs inside RunServe, which has no
  // sampling span of its own; there the rate is over serve.run_s.
  const double run_s = timed("span:serve.run");
  add("sampling.edges_per_s", "1/s",
      ratio(count("sampling.sampled_edges"), timed("sampling.s") + run_s));
  add("net.flows", "count", count("net.flows"));
  add("net.phases", "count", count("net.phases"));
  add("serve.gen_s", "s", timed("span:serve.gen"));
  add("serve.owners_s", "s", timed("span:serve.owners"));
  add("serve.run_s", "s", run_s);
  add("serve.requests", "count", count("serve.requests"));
  add("serve.batches", "count", count("serve.batches"));
  add("serve.batches_per_s", "1/s", ratio(count("serve.batches"), run_s));
  add("serve.req_per_s", "1/s", ratio(count("serve.requests"), run_s));
  add("explain.traced_sim_s", "s", timed("span:explain.traced_sim"));
  add("explain.compute_s", "s", timed("span:explain.compute"));
  add("explain.events", "count", count("explain.events"));
  add("bench.self_s", "s", timed("bench.self_s"));
  add("trace.spans", "count", timed("trace.spans"));
  add("trace.overhead", "ratio",
      ratio(InputMeanOfMedians(traced_pass_seconds_, traced_pass_inputs_),
            InputMeanOfMedians(untraced_pass_seconds_,
                               untraced_pass_inputs_)) -
          1.0);
  return out;
}

Status Bench::WriteTrace() const {
  std::ofstream out(opt_.trace_out);
  if (!out) return Status::IoError("cannot write '" + opt_.trace_out + "'");
  for (const Span& s : tracer_.spans()) {
    out << "{\"name\":" << JsonString(s.name) << ",\"t0\":" << JsonNumber(s.t0)
        << ",\"t1\":" << JsonNumber(s.t1) << ",\"parent\":" << s.parent
        << ",\"cell\":" << s.cell << "}\n";
  }
  out.close();
  if (!out) return Status::IoError("write failed for '" + opt_.trace_out + "'");
  return Status::Ok();
}

void Bench::PrintResult(bool traced) const {
  std::ostringstream os;
  os << "{\"workload\":" << JsonString(w_.name) << ",\"seed\":" << opt_.seed
     << ",\"threads\":" << opt_.threads
     << ",\"tiny\":" << (opt_.tiny ? "true" : "false")
     << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"setup_reps\":" << setup_seconds_.size()
     << ",\"passes\":" << passes_
     << ",\"pinned\":" << (pinned_ ? "true" : "false")
     << ",\"correct\":" << (failed_ == 0 ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : Metrics(traced)) {
    os << (first ? "" : ",") << JsonString(m.name) << ":{\"value\":"
       << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  os << "},\"untraced_pass_s\":[";
  for (size_t i = 0; i < untraced_pass_seconds_.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonNumber(untraced_pass_seconds_[i]);
  }
  os << "],\"setup_s\":[";
  for (size_t i = 0; i < setup_seconds_.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonNumber(setup_seconds_[i]);
  }
  os << "],\"digests\":{";
  first = true;
  for (const auto& [cell, digest] : digests_) {
    os << (first ? "" : ",") << JsonString(cell) << ":" << JsonString(digest);
    first = false;
  }
  os << "},\"errors\":[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonString(errors_[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

int Usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: hostbench <distgnn|distdgl|serve-congested|serve-light>"
               " --seed N [--threads N] [--seconds S] [--trace-out FILE]"
               " [--graph-file FILE] [--digests FILE] [--tiny]\n";
  return 2;
}

bool ParseSeed(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--seed") {
      if (!ParseSeed(take(), &opt.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--threads") {
      opt.threads = ParseThreadCount(take());
      if (opt.threads < 1 || opt.threads > 1024) return Usage("bad --threads");
    } else if (arg == "--seconds") {
      const char* v = take();
      char* end = nullptr;
      opt.seconds = v != nullptr ? std::strtod(v, &end) : -1;
      if (v == nullptr || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 3600) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace-out" || arg == "--graph-file" ||
               arg == "--digests") {
      const char* v = take();
      if (v == nullptr || *v == '\0') return Usage("missing value for " + arg);
      (arg == "--trace-out"    ? opt.trace_out
       : arg == "--graph-file" ? opt.graph_file
                               : opt.digests) = v;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage("unknown flag " + arg);
    } else if (opt.workload.empty()) {
      opt.workload = arg;
    } else {
      return Usage("unexpected argument " + arg);
    }
  }
  if (opt.workload.empty()) return Usage("missing workload");
  if (!have_seed) return Usage("missing --seed");
  const std::vector<Workload> workloads = MakeWorkloads(opt.tiny);
  auto it = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const Workload& w) { return w.name == opt.workload; });
  if (it == workloads.end()) return Usage("unknown workload " + opt.workload);

  SetDefaultThreads(opt.threads);
  Bench bench(opt, *it);
  return bench.Run();
}
