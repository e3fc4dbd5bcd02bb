// The four workloads. Each episode stands up a fresh simulated deployment
// through Testbed and drives it only through public entry points, one
// closed-loop client on the simulator runtime: an operation runs to network
// quiescence before the next one starts.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "core/oracle.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/random.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace perfbench {

using codb::CostClass;
using codb::FlowId;
using codb::GeneratedNetwork;
using codb::HeadTuple;
using codb::Instance;
using codb::NetworkInstance;
using codb::Node;
using codb::Result;
using codb::Testbed;
using codb::Tuple;
using codb::Value;
using codb::WorkloadOptions;

int64_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

namespace {
constexpr int64_t kRetainedSlackBytes = 64 * 1024;
}  // namespace

std::string Deterministic::FirstDifference(const Deterministic& o) const {
  if (op_virtual_us != o.op_virtual_us) return "virtual_us_per_op";
  if (op_bytes != o.op_bytes) return "wire_bytes_per_op";
  if (op_messages != o.op_messages) return "messages_per_op";
  for (size_t c = 0; c < codb::kCostClassCount; ++c) {
    const char* name = codb::CostClassName(static_cast<CostClass>(c));
    if (class_bytes[c] != o.class_bytes[c]) {
      return std::string("cost.") + name + ".bytes";
    }
    if (class_messages[c] != o.class_messages[c]) {
      return std::string("cost.") + name + ".msgs";
    }
  }
  for (const auto& [name, value] : counters) {
    auto it = o.counters.find(name);
    if (it == o.counters.end() || it->second != value) return name;
  }
  if (counters.size() != o.counters.size()) return "counter set";
  // Heap readings carry allocator jitter (thread caches, the adaptive
  // mmap threshold, pointer-ordered containers) of well under 0.1%.
  const int64_t jitter = std::max<int64_t>(
      kRetainedSlackBytes,
      std::max(std::abs(retained_bytes), std::abs(o.retained_bytes)) / 100);
  if (std::abs(retained_bytes - o.retained_bytes) > jitter) {
    return "retained_kb_per_op (" + std::to_string(retained_bytes) +
           " vs " + std::to_string(o.retained_bytes) + " bytes)";
  }
  if (rows != o.rows) return "rows";
  return "";
}

namespace {

// Workload shapes. Sizes are part of the benchmark's definition: changing
// one changes every figure, so a later change to them is a new baseline.
constexpr int kRefreshChainNodes = 5;
constexpr int kRefreshRowsPerNode = 3000;
constexpr int kRefreshTimedOps = 10;
constexpr int kReadsPerOp = 8;

constexpr int kDeltaTreeNodes = 15;
constexpr int kDeltaRowsPerNode = 4000;
constexpr int kDeltaWarmupOps = 14;
constexpr int kDeltaTimedOps = 406;
constexpr int kDeltaRowsPerOp = 10;
constexpr int kDeltaReadEvery = 4;

constexpr int kFanoutTreeNodes = 15;
constexpr int kFanoutRowsPerNode = 1000;
constexpr int kFanoutTimedOps = 30;

constexpr int kSettleNodes = 250;
constexpr int kSettleRowsPerNode = 10;
constexpr int kSettleSupers = 2;
constexpr int kSettleTimedOps = 4;
constexpr int64_t kBeaconPeriodUs = 200'000;
constexpr int kSettlePeriods = 5;

const char* const kCounterNames[] = {
    "update.eval_rows",        "update.tuples_shipped",
    "update.dups_suppressed",  "update.memory_suppressed",
    "update.delta_rows",       "query.results_in",
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MsSince(uint64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

struct NetTotals {
  int64_t virtual_us = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
  std::array<codb::CostLedger::Totals, codb::kCostClassCount> cls{};
};

NetTotals ReadTotals(Testbed& bed) {
  NetTotals t;
  t.virtual_us = bed.network().now_us();
  t.bytes = bed.network().stats().total_bytes();
  t.messages = bed.network().stats().total_messages();
  for (size_t c = 0; c < codb::kCostClassCount; ++c) {
    t.cls[c] = bed.cost().Sent(static_cast<CostClass>(c));
  }
  return t;
}

// Adds the traffic between two readings to the episode's totals.
void AddTraffic(const NetTotals& before, const NetTotals& after,
                Deterministic* det) {
  det->op_virtual_us.push_back(after.virtual_us - before.virtual_us);
  det->op_bytes.push_back(after.bytes - before.bytes);
  det->op_messages.push_back(after.messages - before.messages);
  for (size_t c = 0; c < codb::kCostClassCount; ++c) {
    det->class_bytes[c] += after.cls[c].bytes - before.cls[c].bytes;
    det->class_messages[c] += after.cls[c].messages - before.cls[c].messages;
  }
}

std::map<std::string, uint64_t> SumCounters(Testbed& bed) {
  std::map<std::string, uint64_t> sums;
  for (const char* name : kCounterNames) sums[name] = 0;
  for (const auto& node : bed.nodes()) {
    codb::MetricsSnapshot snap = node->statistics().metrics().Snapshot();
    for (const char* name : kCounterNames) {
      auto it = snap.entries.find(name);
      if (it != snap.entries.end()) sums[name] += it->second.value;
    }
  }
  return sums;
}

std::vector<uint64_t> ProfilerBuckets(Testbed& bed, const std::string& kind) {
  std::vector<uint64_t> buckets(codb::kHistogramBuckets, 0);
  codb::MetricsSnapshot snap = bed.network().profiler().Snapshot();
  for (const auto& [name, value] : snap.entries) {
    if (name.rfind(kind, 0) != 0) continue;
    for (const auto& [index, count] : value.buckets) buckets[index] += count;
  }
  return buckets;
}

std::vector<uint64_t> BucketDiff(const std::vector<uint64_t>& after,
                                 const std::vector<uint64_t>& before) {
  std::vector<uint64_t> diff(after.size());
  for (size_t i = 0; i < after.size(); ++i) diff[i] = after[i] - before[i];
  return diff;
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Sorted copy of every relation of every node.
NetworkInstance Canonical(NetworkInstance instance) {
  for (auto& [node, relations] : instance) {
    for (auto& [relation, rows] : relations) {
      std::sort(rows.begin(), rows.end());
    }
  }
  return instance;
}

// Drives one episode: owns the failure accounting, the per-op traffic
// readings and, for traced episodes, span harvesting around each op.
class EpisodeRunner {
 public:
  explicit EpisodeRunner(const EpisodeConfig& config, Episode* out)
      : config_(config), out_(out), rng_(config.seed) {}

  codb::Rng& rng() { return rng_; }
  Episode& out() { return *out_; }

  bool Check(bool ok, const std::string& what) {
    ++out_->attempted;
    if (!ok) Fail(what);
    return ok;
  }
  void Fail(const std::string& what) {
    ++out_->failed;
    if (out_->failures.size() < 5) out_->failures.push_back(what);
  }

  // Brackets one timed operation's tracing window.
  void BeginOp() {
    if (config_.traced) codb::Tracer::Global().Clear();
    op_start_ns_ = NowNs();
  }
  // Ends the window and returns its wall time in ms.
  double EndOp() {
    const uint64_t end = NowNs();
    const double ms = (end - op_start_ns_) / 1e6;
    if (config_.traced) {
      std::vector<SpanInterval> spans;
      for (const codb::TraceSpan& s :
           codb::Tracer::Global().FinishedSpans()) {
        spans.push_back({s.node, s.thread, s.parent, s.name, s.start_wall_ns,
                         s.end_wall_ns});
      }
      out_->budget.Add(ComputeLayerBudget(spans));
      out_->op_window_ns += end - op_start_ns_;
      out_->uncovered_ns += UncoveredNs(spans, op_start_ns_, end);
      codb::Tracer::Global().Clear();
    }
    return ms;
  }
  // Op time that runs outside any traced window (a teardown no span can
  // cover): counted as op time no span covers.
  void AddUntracedTime(double ms) {
    if (!config_.traced) return;
    out_->op_window_ns += ms * 1e6;
    out_->uncovered_ns += ms * 1e6;
  }
  // Drops spans recorded outside the timed ops (set-up, warm-up), so the
  // heap reading that follows does not count them.
  void DropSpans() {
    if (config_.traced) codb::Tracer::Global().Clear();
  }

  // Readings before the timed ops of a long-lived deployment; EndTimed
  // turns them into the episode's totals. The heap is read last, after
  // every buffer the ops fill has its final capacity.
  void BeginTimed(Testbed& bed, size_t ops, size_t reads) {
    out_->op_ms.reserve(ops);
    out_->insert_local_us.reserve(ops);
    out_->read_us.reserve(reads);
    out_->det.op_virtual_us.reserve(ops);
    out_->det.op_bytes.reserve(ops);
    out_->det.op_messages.reserve(ops);
    counters_before_ = SumCounters(bed);
    service_before_ = ProfilerBuckets(bed, "queue.service_us");
    sojourn_before_ = ProfilerBuckets(bed, "queue.sojourn_us");
    DropSpans();
    heap_before_ = HeapInUse();
  }
  void EndTimed(Testbed& bed) {
    out_->det.retained_bytes = HeapInUse() - heap_before_;
    for (const auto& [name, value] : SumCounters(bed)) {
      out_->det.counters[name] = value - counters_before_.at(name);
    }
    out_->service_us_buckets =
        BucketDiff(ProfilerBuckets(bed, "queue.service_us"), service_before_);
    out_->sojourn_us_buckets =
        BucketDiff(ProfilerBuckets(bed, "queue.sojourn_us"), sojourn_before_);
  }

  // One local point read at `node`: q(V) :- d(key, V).
  void PointRead(Node* node, int64_t key, std::vector<Tuple> expected) {
    Result<codb::ConjunctiveQuery> query = codb::ParseQuery(
        "q(V) :- d(" + std::to_string(key) + ", V).");
    if (!Check(query.ok(), "read query parse")) return;
    const uint64_t start = NowNs();
    Result<std::vector<Tuple>> answers = node->LocalQuery(query.value());
    out_->read_us.push_back((NowNs() - start) / 1e3);
    Check(answers.ok() && Sorted(answers.value()) == Sorted(expected),
          "read of key " + std::to_string(key) + " at " + node->name());
  }

  bool FlowOk(Testbed& bed, Node* root, const Result<FlowId>& flow,
              const std::string& what) {
    if (!flow.ok()) {
      Check(false, what + ": " + flow.status().ToString());
      return false;
    }
    const codb::UpdateReport* report =
        root->statistics().FindReport(flow.value());
    return Check(bed.AllComplete(flow.value()) && report != nullptr &&
                     !report->aborted,
                 what + " did not complete");
  }

 private:
  const EpisodeConfig& config_;
  Episode* out_;
  codb::Rng rng_;
  uint64_t op_start_ns_ = 0;
  std::map<std::string, uint64_t> counters_before_;
  std::vector<uint64_t> service_before_;
  std::vector<uint64_t> sojourn_before_;
  int64_t heap_before_ = 0;
};

Testbed::Options DataOptions() {
  Testbed::Options options;
  options.node_threads = 1;
  options.profiling = true;
  return options;
}

std::unique_ptr<Testbed> MustCreate(const GeneratedNetwork& generated,
                                    const Testbed::Options& options,
                                    EpisodeRunner* runner) {
  Result<std::unique_ptr<Testbed>> bed = Testbed::Create(generated, options);
  if (!runner->Check(bed.ok(), "Testbed::Create")) return nullptr;
  return std::move(bed).value();
}

// Rows of `store` that are not in `base`: what an importer received.
void AppendImported(const Instance& store, const Instance& base,
                    std::vector<HeadTuple>* out) {
  for (const auto& [relation, rows] : store) {
    std::set<Tuple> known;
    auto it = base.find(relation);
    if (it != base.end()) known.insert(it->second.begin(), it->second.end());
    for (const Tuple& row : rows) {
      if (!known.count(row)) out->push_back(HeadTuple{relation, row});
    }
  }
}

// Expected answers of q(V) :- d(key, V) over an instance's d relation.
std::map<int64_t, std::vector<Tuple>> PointAnswers(const Instance& instance) {
  std::map<int64_t, std::vector<Tuple>> answers;
  auto it = instance.find("d");
  if (it == instance.end()) return answers;
  for (const Tuple& row : it->second) {
    answers[row.at(0).AsInt()].push_back(Tuple{row.at(1)});
  }
  return answers;
}

void RandomPointReads(EpisodeRunner& runner, Node* node,
                      const std::map<int64_t, std::vector<Tuple>>& answers,
                      int count) {
  for (int i = 0; i < count; ++i) {
    auto it = answers.begin();
    std::advance(it, runner.rng().UniformInt(0, answers.size() - 1));
    runner.PointRead(node, it->first, it->second);
  }
}

// -- bulk_refresh -------------------------------------------------------------
// A chain whose join-copy rules re-derive both relations at every importer;
// each op is a global refresh (drop imported + full re-derivation) from n0.

void RunBulkRefresh(const EpisodeConfig& config, EpisodeRunner& runner) {
  Episode& out = runner.out();
  WorkloadOptions options;
  options.nodes = kRefreshChainNodes;
  options.tuples_per_node = kRefreshRowsPerNode;
  options.style = codb::RuleStyle::kJoinCopy;
  options.seed = config.seed;
  GeneratedNetwork generated = codb::MakeChain(options);
  Result<NetworkInstance> oracle =
      codb::Oracle::PathBounded(generated.config, generated.seeds);
  if (!runner.Check(oracle.ok(), "oracle")) return;
  const Instance expected_root = Canonical(oracle.value()).at("n0");
  const auto answers = PointAnswers(expected_root);

  const uint64_t setup_start = NowNs();
  std::unique_ptr<Testbed> bed = MustCreate(generated, DataOptions(), &runner);
  if (bed == nullptr) return;
  Node* root = bed->node("n0");
  // Warm-up: the first refresh has nothing to drop yet.
  if (!runner.FlowOk(*bed, root, bed->RunGlobalRefresh("n0"), "warm-up")) {
    return;
  }
  out.setup_s = MsSince(setup_start) / 1e3;

  if (config.capture_rows) {
    for (const auto& [name, store] : bed->Snapshot()) {
      AppendImported(store, generated.seeds.at(name), &out.shipped_rows);
    }
  }
  uint64_t imported = 0;
  for (const auto& node : bed->nodes()) {
    imported += node->database().TotalTuples();
  }
  for (const auto& [name, seed] : generated.seeds) {
    for (const auto& [relation, rows] : seed) imported -= rows.size();
  }

  runner.BeginTimed(*bed, kRefreshTimedOps, kRefreshTimedOps * kReadsPerOp);
  for (int op = 0; op < kRefreshTimedOps; ++op) {
    const NetTotals before = ReadTotals(*bed);
    runner.BeginOp();
    Result<FlowId> flow = bed->RunGlobalRefresh("n0");
    out.op_ms.push_back(runner.EndOp());
    AddTraffic(before, ReadTotals(*bed), &out.det);
    out.det.rows += imported;
    if (runner.FlowOk(*bed, root, flow, "refresh")) {
      Instance store = root->database().Snapshot();
      runner.Check(Canonical({{"n0", std::move(store)}}).at("n0") ==
                       expected_root,
                   "root store differs from PathBounded after a refresh");
    }
    RandomPointReads(runner, root, answers, kReadsPerOp);
  }
  runner.EndTimed(*bed);
}

// -- delta_mix ----------------------------------------------------------------
// Semi-naive write path with durable storage: a 10-row InsertLocal at a
// seeded random non-root node, then an incremental update from it; every
// 4th op reads the fresh rows back at the root.

void RunDeltaMix(const EpisodeConfig& config, EpisodeRunner& runner) {
  Episode& out = runner.out();
  WorkloadOptions options;
  options.nodes = kDeltaTreeNodes;
  options.tuples_per_node = kDeltaRowsPerNode;
  options.style = codb::RuleStyle::kCopy;
  options.seed = config.seed;
  GeneratedNetwork generated = codb::MakeTree(options);

  const std::string wal_dir = config.work_dir + "/delta_mix_storage";
  std::error_code ignored;
  std::filesystem::remove_all(wal_dir, ignored);
  Testbed::Options bed_options = DataOptions();
  bed_options.storage.directory = wal_dir;

  // The op sequence: (node, rows) drawn from the seed before timing.
  struct DeltaOp {
    int node;
    std::vector<Tuple> rows;
  };
  // Every non-root node takes one warm-up op and the same number of timed
  // ops, in a seeded order, so traffic and memory per op barely depend on
  // the seed.
  std::vector<int> targets;
  for (int count : {kDeltaWarmupOps, kDeltaTimedOps}) {
    std::vector<int> phase;
    for (int op = 0; op < count; ++op) {
      phase.push_back(1 + op % (kDeltaTreeNodes - 1));
    }
    for (size_t i = phase.size() - 1; i > 0; --i) {
      std::swap(phase[i], phase[runner.rng().UniformInt(0, i)]);
    }
    targets.insert(targets.end(), phase.begin(), phase.end());
  }
  std::vector<DeltaOp> plan;
  std::vector<int> next_key(kDeltaTreeNodes, kDeltaRowsPerNode);
  for (int target : targets) {
    DeltaOp d;
    d.node = target;
    for (int r = 0; r < kDeltaRowsPerOp; ++r) {
      const int64_t key = int64_t{d.node} * 10000 + next_key[d.node]++;
      d.rows.push_back(Tuple{Value::Int(key),
                             Value::Int(runner.rng().UniformInt(0, 99))});
    }
    plan.push_back(std::move(d));
  }

  const uint64_t setup_start = NowNs();
  std::unique_ptr<Testbed> bed = MustCreate(generated, bed_options, &runner);
  if (bed == nullptr) return;
  Node* root = bed->node("n0");
  if (!runner.FlowOk(*bed, root, bed->RunGlobalUpdate("n0"),
                     "synchronising update")) {
    return;
  }
  auto total_rows = [&] {
    uint64_t rows = 0;
    for (const auto& node : bed->nodes()) {
      rows += node->database().TotalTuples();
    }
    return rows;
  };
  size_t op = 0;
  for (; op < static_cast<size_t>(kDeltaWarmupOps); ++op) {
    const std::string name = codb::NodeName(plan[op].node);
    Node* node = bed->node(name);
    runner.Check(node->InsertLocal("d", plan[op].rows).ok(), "InsertLocal");
    runner.FlowOk(*bed, node, bed->RunIncrementalUpdate(name),
                  "warm-up incremental update");
  }
  out.setup_s = MsSince(setup_start) / 1e3;

  NetworkInstance before_timed;
  if (config.capture_rows) before_timed = bed->Snapshot();
  runner.BeginTimed(*bed, kDeltaTimedOps,
                    kDeltaTimedOps / kDeltaReadEvery * kDeltaRowsPerOp);
  for (int timed = 0; timed < kDeltaTimedOps; ++timed, ++op) {
    const DeltaOp& d = plan[op];
    const std::string name = codb::NodeName(d.node);
    Node* node = bed->node(name);
    const uint64_t rows_before = total_rows();
    const NetTotals before = ReadTotals(*bed);
    runner.BeginOp();
    const uint64_t insert_start = NowNs();
    codb::Status inserted = node->InsertLocal("d", d.rows);
    const double insert_us = (NowNs() - insert_start) / 1e3;
    Result<FlowId> flow = bed->RunIncrementalUpdate(name);
    out.op_ms.push_back(runner.EndOp());
    out.insert_local_us.push_back(insert_us);
    AddTraffic(before, ReadTotals(*bed), &out.det);
    out.det.rows += total_rows() - rows_before - d.rows.size();
    runner.Check(inserted.ok(), "InsertLocal");
    runner.FlowOk(*bed, node, flow, "incremental update");
    if ((timed + 1) % kDeltaReadEvery == 0) {
      for (const Tuple& row : d.rows) {
        runner.PointRead(root, row.at(0).AsInt(), {Tuple{row.at(1)}});
      }
    }
  }
  runner.EndTimed(*bed);

  // End of episode: every store equals PathBounded over the seeds plus
  // every inserted delta.
  NetworkInstance initial = generated.seeds;
  for (const DeltaOp& d : plan) {
    auto& rows = initial[codb::NodeName(d.node)]["d"];
    rows.insert(rows.end(), d.rows.begin(), d.rows.end());
  }
  Result<NetworkInstance> oracle =
      codb::Oracle::PathBounded(generated.config, initial);
  if (runner.Check(oracle.ok(), "oracle")) {
    NetworkInstance stores = bed->Snapshot();
    if (config.capture_rows) {
      // Rows imported during the timed ops: everything a store gained
      // beyond its state before them and its own inserted deltas.
      for (auto& [name, base] : before_timed) {
        for (size_t i = kDeltaWarmupOps; i < plan.size(); ++i) {
          if (codb::NodeName(plan[i].node) != name) continue;
          auto& rows = base["d"];
          rows.insert(rows.end(), plan[i].rows.begin(), plan[i].rows.end());
        }
        AppendImported(stores.at(name), base, &out.shipped_rows);
      }
    }
    runner.Check(Canonical(std::move(stores)) == Canonical(oracle.value()),
                 "stores differ from PathBounded at the end of the episode");
  }
  bed.reset();
  std::filesystem::remove_all(wal_dir, ignored);
}

// -- query_fanout -------------------------------------------------------------
// Query-time answering: a distributed q(K,W) :- d(K,W) from the root of a
// tree of join rules; stores are never written.

void RunQueryFanout(const EpisodeConfig& config, EpisodeRunner& runner) {
  Episode& out = runner.out();
  WorkloadOptions options;
  options.nodes = kFanoutTreeNodes;
  options.tuples_per_node = kFanoutRowsPerNode;
  options.style = codb::RuleStyle::kJoin;
  options.seed = config.seed;
  GeneratedNetwork generated = codb::MakeTree(options);
  Result<NetworkInstance> oracle =
      codb::Oracle::PathBounded(generated.config, generated.seeds);
  if (!runner.Check(oracle.ok(), "oracle")) return;
  const std::vector<Tuple> expected = Sorted(oracle.value().at("n0").at("d"));
  const auto answers = PointAnswers(generated.seeds.at("n0"));
  Result<codb::ConjunctiveQuery> query = codb::ParseQuery("q(K, W) :- d(K, W).");
  if (!runner.Check(query.ok(), "query parse")) return;

  auto run_query = [&](Testbed& bed, Node* root) -> std::vector<Tuple> {
    Result<FlowId> flow = root->StartQuery(query.value());
    if (!flow.ok()) return {};
    bed.network().Run();
    if (!root->QueryDone(flow.value())) return {};
    Result<std::vector<Tuple>> rows = root->QueryAnswers(flow.value());
    return rows.ok() ? std::move(rows).value() : std::vector<Tuple>{};
  };

  const uint64_t setup_start = NowNs();
  std::unique_ptr<Testbed> bed = MustCreate(generated, DataOptions(), &runner);
  if (bed == nullptr) return;
  Node* root = bed->node("n0");
  runner.Check(Sorted(run_query(*bed, root)) == expected,
               "warm-up query answers differ from the oracle");
  out.setup_s = MsSince(setup_start) / 1e3;

  runner.BeginTimed(*bed, kFanoutTimedOps, kFanoutTimedOps * kReadsPerOp);
  for (int op = 0; op < kFanoutTimedOps; ++op) {
    const NetTotals before = ReadTotals(*bed);
    runner.BeginOp();
    std::vector<Tuple> rows = run_query(*bed, root);
    out.op_ms.push_back(runner.EndOp());
    AddTraffic(before, ReadTotals(*bed), &out.det);
    out.det.rows += rows.size();
    if (config.capture_rows && op == 0) {
      AppendImported({{"d", rows}}, generated.seeds.at("n0"),
                     &out.shipped_rows);
    }
    runner.Check(Sorted(std::move(rows)) == expected,
                 "query answers differ from the oracle");
    RandomPointReads(runner, root, answers, kReadsPerOp);
  }
  runner.EndTimed(*bed);
  for (const auto& node : bed->nodes()) {
    out.foreign_query_states += node->query_manager()->ForeignQueryStates();
  }
}

// -- peer_settle --------------------------------------------------------------
// One op stands up a 250-peer deployment with discovery, membership and two
// federated super-peers, lets 5 beacon periods pass, collects the
// federated statistics, and tears it down.

void RunPeerSettle(const EpisodeConfig& config, EpisodeRunner& runner) {
  Episode& out = runner.out();
  WorkloadOptions options;
  options.nodes = kSettleNodes;
  options.tuples_per_node = kSettleRowsPerNode;
  options.seed = config.seed;
  GeneratedNetwork generated = codb::MakeTree(options);
  const auto answers = PointAnswers(generated.seeds.at("n0"));

  Testbed::Options bed_options;
  bed_options.node_threads = 1;
  bed_options.profiling = true;
  bed_options.membership = true;
  bed_options.membership_options.period_us = kBeaconPeriodUs;
  bed_options.super_peers = kSettleSupers;

  out.op_ms.reserve(kSettleTimedOps);
  out.read_us.reserve(kSettleTimedOps * kReadsPerOp);
  out.settle_create_ms.reserve(kSettleTimedOps);
  out.settle_heartbeat_ms.reserve(kSettleTimedOps);
  out.settle_collect_ms.reserve(kSettleTimedOps);
  out.det.op_virtual_us.reserve(kSettleTimedOps);
  out.det.op_bytes.reserve(kSettleTimedOps);
  out.det.op_messages.reserve(kSettleTimedOps);
  for (const char* name : kCounterNames) out.det.counters[name] = 0;

  // Op 0 is the warm-up and counts as set-up.
  for (int op = 0; op <= kSettleTimedOps; ++op) {
    const bool timed = op > 0;
    runner.DropSpans();
    const int64_t heap_before = HeapInUse();
    runner.BeginOp();
    const uint64_t start = NowNs();
    std::unique_ptr<Testbed> bed = MustCreate(generated, bed_options, &runner);
    if (bed == nullptr) return;
    const double create_ms = MsSince(start);
    const uint64_t heartbeat_start = NowNs();
    bed->network().RunFor(kSettlePeriods * kBeaconPeriodUs);
    const double heartbeat_ms = MsSince(heartbeat_start);
    const uint64_t collect_start = NowNs();
    codb::Status collected = bed->CollectStats();
    const double collect_ms = MsSince(collect_start);
    const double live_ms = timed ? runner.EndOp() : MsSince(start);
    runner.DropSpans();
    // An op's deployment is what it holds until teardown.
    const int64_t held = HeapInUse() - heap_before;
    const NetTotals totals = ReadTotals(*bed);
    const auto service = ProfilerBuckets(*bed, "queue.service_us");
    const auto sojourn = ProfilerBuckets(*bed, "queue.sojourn_us");

    // Every peer reached its super-peer's config version, and the
    // federated statistics cover every node.
    int current = 0;
    for (const auto& node : bed->nodes()) {
      codb::SuperPeer* super = bed->super_of(node->name());
      if (super != nullptr &&
          node->config_version() == super->config_version()) {
        ++current;
      }
    }
    runner.Check(collected.ok(), "CollectStats");
    runner.Check(current == kSettleNodes,
                 std::to_string(kSettleNodes - current) +
                     " peers behind the config version");
    codb::MetricsSnapshot federated = bed->super_peer(0).FederatedMetrics();
    auto slices = federated.entries.find("config.slices_applied");
    runner.Check(slices != federated.entries.end() &&
                     slices->second.value == kSettleNodes,
                 "federated statistics do not cover every node");
    RandomPointReads(runner, bed->node("n0"), answers, kReadsPerOp);
    const auto counters = SumCounters(*bed);

    const uint64_t teardown_start = NowNs();
    bed.reset();
    const double teardown_ms = MsSince(teardown_start);
    if (!timed) {
      out.setup_s = (live_ms + teardown_ms) / 1e3;
      continue;
    }
    runner.AddUntracedTime(teardown_ms);
    out.op_ms.push_back(live_ms + teardown_ms);
    out.settle_create_ms.push_back(create_ms);
    out.settle_heartbeat_ms.push_back(heartbeat_ms);
    out.settle_collect_ms.push_back(collect_ms);
    AddTraffic(NetTotals{}, totals, &out.det);
    for (const auto& [name, value] : counters) out.det.counters[name] += value;
    out.service_us_buckets.resize(service.size());
    out.sojourn_us_buckets.resize(sojourn.size());
    for (size_t i = 0; i < service.size(); ++i) {
      out.service_us_buckets[i] += service[i];
      out.sojourn_us_buckets[i] += sojourn[i];
    }
    out.det.rows += kSettleNodes;
    out.det.retained_bytes += held;
  }
}

}  // namespace

Episode RunEpisode(const EpisodeConfig& config) {
  Episode out;
  EpisodeRunner runner(config, &out);
  if (config.workload == "bulk_refresh") {
    RunBulkRefresh(config, runner);
  } else if (config.workload == "delta_mix") {
    RunDeltaMix(config, runner);
  } else if (config.workload == "query_fanout") {
    RunQueryFanout(config, runner);
  } else if (config.workload == "peer_settle") {
    RunPeerSettle(config, runner);
  } else {
    runner.Fail("unknown workload " + config.workload);
  }
  return out;
}

}  // namespace perfbench
