// coDB benchmark binary.
//
//   codb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// Runs a fixed number of episodes of one workload (see bench.h), checks
// every output against an oracle, and prints a table followed by one JSON
// line: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. --seconds sets how many episodes run through a fixed table of
// nominal episode lengths, never through a clock, so the same arguments
// give the same work on any host. The line before the result,
// "DETERMINISM {...}", lists the figures that must repeat exactly for this
// seed; the wrapper script compares them across runs.
//
// Exit codes: 0 success, 1 a failed operation (the result is still
// printed, with "correct": false), 2 a determinism failure or a failed
// self-check (no result is printed), 3 bad arguments.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/protocol.h"
#include "obs/trace.h"
#include "relation/relation.h"
#include "storage/wal_file.h"
#include "workload/topology_gen.h"

namespace perfbench {
namespace {

using codb::CostClass;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

// Nominal wall seconds of one untraced episode on the reference host
// (4 vCPU, GCC 12, Release). Only the episode count derives from it.
const std::map<std::string, double> kNominalEpisodeSeconds = {
    {"bulk_refresh", 2.0},
    {"delta_mix", 1.2},
    {"query_fanout", 0.8},
    {"peer_settle", 2.0},
};
constexpr int kMinEpisodes = 3;

// Largest per-message overhead of a data-class message beyond its rows
// (envelope, flow id, rule id, propagation path).
constexpr double kMaxDataHeaderBytes = 256;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stoi(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return kNominalEpisodeSeconds.count(args->workload) > 0 &&
         args->seconds > 0;
}

std::string Num(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

// The highest of a fixed ladder of percentiles that leaves at least ten
// samples beyond it. The ladder stops at p99: beyond it, one run's samples
// mostly time the host (interrupts, page faults), not the system.
double TailPercentile(size_t samples) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (samples * (1 - p / 100) >= 10) return p;
  }
  return 50.0;
}

// Quantile of a log2-bucketed histogram, linear within the bucket. Bucket
// 0 holds whole-microsecond readings of 0, i.e. [0, 1) us.
double BucketQuantile(const std::vector<uint64_t>& buckets, double q) {
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  const double target = q * total;
  double seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= target) {
      const double low = i == 0 ? 0 : std::ldexp(1.0, i - 1);
      const double high = std::ldexp(1.0, i);
      return low + (high - low) * (target - seen) / buckets[i];
    }
    seen += buckets[i];
  }
  return 0;
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

struct Replay {
  size_t rows = 0;
  double encode_ns_per_row = 0;
  double decode_ns_per_row = 0;
  double insert_ns_per_row = 0;
  double append_ns_per_row = 0;
  double bytes_per_row = 0;
  double wal_bytes_per_row = 0;
  std::string error;
};

double NsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Times the public layer functions on the rows the workload shipped.
Replay ReplayLayers(const std::vector<codb::HeadTuple>& rows,
                    const std::string& work_dir) {
  Replay replay;
  replay.rows = rows.size();
  if (rows.empty()) return replay;
  constexpr int kRepeats = 5;
  std::vector<double> encode, decode, insert, append;
  const codb::DatabaseSchema schema = codb::StandardSchema();
  for (int rep = 0; rep < kRepeats; ++rep) {
    auto start = std::chrono::steady_clock::now();
    codb::WireWriter writer;
    codb::WriteHeadTuples(writer, rows);
    std::vector<uint8_t> bytes = writer.Take();
    encode.push_back(NsSince(start));
    replay.bytes_per_row = static_cast<double>(bytes.size()) / rows.size();

    start = std::chrono::steady_clock::now();
    codb::WireReader reader(bytes);
    codb::Result<std::vector<codb::HeadTuple>> decoded =
        codb::ReadHeadTuples(reader);
    decode.push_back(NsSince(start));
    if (!decoded.ok() || decoded.value() != rows) {
      replay.error = "ReadHeadTuples does not round-trip the shipped rows";
      return replay;
    }

    std::map<std::string, std::unique_ptr<codb::Relation>> relations;
    for (const codb::RelationSchema& rel : schema.relations()) {
      relations[rel.name()] = std::make_unique<codb::Relation>(rel);
    }
    start = std::chrono::steady_clock::now();
    for (const codb::HeadTuple& row : rows) {
      relations.at(row.relation)->Insert(row.tuple);
    }
    insert.push_back(NsSince(start));

    codb::StorageOptions options;
    options.directory = work_dir + "/replay_wal";
    std::error_code ignored;
    std::filesystem::remove_all(options.directory, ignored);
    std::filesystem::create_directories(options.directory, ignored);
    {
      codb::Result<std::unique_ptr<codb::FileWal>> wal =
          codb::FileWal::Open(options, 1);
      if (!wal.ok()) {
        replay.error = "FileWal::Open: " + wal.status().ToString();
        return replay;
      }
      start = std::chrono::steady_clock::now();
      for (const codb::HeadTuple& row : rows) {
        if (!wal.value()->Append(row.relation, row.tuple).ok()) {
          replay.error = "FileWal::Append failed";
          return replay;
        }
      }
      append.push_back(NsSince(start));
      replay.wal_bytes_per_row =
          static_cast<double>(wal.value()->appended_bytes()) / rows.size();
    }
    std::filesystem::remove_all(options.directory, ignored);
  }
  const double n = static_cast<double>(rows.size());
  replay.encode_ns_per_row = Quantile(encode, 0.5) / n;
  replay.decode_ns_per_row = Quantile(decode, 0.5) / n;
  replay.insert_ns_per_row = Quantile(insert, 0.5) / n;
  replay.append_ns_per_row = Quantile(append, 0.5) / n;
  return replay;
}

// FNV-1a over the per-op vectors, so the cross-run record stays short.
uint64_t Fingerprint(const Deterministic& det) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (int64_t v : det.op_virtual_us) mix(static_cast<uint64_t>(v));
  for (uint64_t v : det.op_bytes) mix(v);
  for (uint64_t v : det.op_messages) mix(v);
  return hash;
}

class JsonObject {
 public:
  void Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + raw;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Prints a metric as a table line and adds it to the JSON result. A
// figure that cannot be formed (no ops completed) reads 0.
struct MetricSink {
  JsonObject json;
  // Per-layer sinks mark a 0 as a layer that does no work here.
  bool zero_is_na = false;
  void Put(const std::string& name, double value, const std::string& unit,
           std::string note = "") {
    if (!std::isfinite(value)) value = 0;
    if (zero_is_na && value == 0 && note.empty()) note = "n/a";
    std::printf("  %-36s %14s %-10s %s\n", name.c_str(), Num(value).c_str(),
                unit.c_str(), note.c_str());
    JsonObject metric;
    metric.Add("value", Num(value));
    metric.Add("unit", "\"" + unit + "\"");
    json.Add(name, metric.str());
  }
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: codb_perfbench --workload "
                 "bulk_refresh|delta_mix|query_fanout|peer_settle --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 3;
  }
  std::string self_check = SelfCheckLayerBudget();
  if (!self_check.empty()) {
    std::fprintf(stderr, "layer budget self-check failed: %s\n",
                 self_check.c_str());
    return 2;
  }
  int episodes = std::max(
      kMinEpisodes,
      static_cast<int>(std::lround(
          args.seconds / kNominalEpisodeSeconds.at(args.workload))));
  // A traced run splits the same budget between untraced and traced
  // episodes.
  if (args.trace) episodes = std::max(2, (episodes + 1) / 2);

  // Untraced episodes give the end-to-end figures. A traced run
  // interleaves traced and untraced episodes, so the tracing overhead is
  // measured against the same host phase.
  std::vector<Episode> plain, traced;
  const auto run_start = std::chrono::steady_clock::now();
  for (int e = 0; e < episodes; ++e) {
    EpisodeConfig config;
    config.workload = args.workload;
    config.seed = args.seed;
    config.work_dir = args.work_dir;
    config.capture_rows = args.trace && e == 0;
    plain.push_back(RunEpisode(config));
    if (args.trace) {
      config.traced = true;
      config.capture_rows = false;
      codb::Tracer::Global().Enable();
      traced.push_back(RunEpisode(config));
      codb::Tracer::Global().Disable();
      codb::Tracer::Global().Clear();
    }
  }
  const double run_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  // Correctness.
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const auto* list : {&plain, &traced}) {
    for (const Episode& ep : *list) {
      attempted += ep.attempted;
      failed += ep.failed;
      for (const std::string& f : ep.failures) {
        if (failures.size() < 5) failures.push_back(f);
      }
    }
  }

  // Determinism: every episode, traced or not, repeats episode 0. A run
  // with failed ops is already reported as incorrect.
  const Deterministic& det = plain.front().det;
  for (const auto* list : {&plain, &traced}) {
    for (size_t e = 0; e < list->size() && failed == 0; ++e) {
      std::string diff = (*list)[e].det.FirstDifference(det);
      if (!diff.empty()) {
        std::fprintf(stderr,
                     "determinism failure: %s differs between episode 0 and "
                     "%s episode %zu\n",
                     diff.c_str(), list == &plain ? "untraced" : "traced", e);
        return 2;
      }
    }
  }

  const double ops = static_cast<double>(det.op_bytes.size());
  std::vector<double> op_ms, read_us, virtual_ms, insert_us, create_ms,
      heartbeat_ms, collect_ms, setup_s;
  double op_s_total = 0, rows_total = 0;
  for (const Episode& ep : plain) {
    Append(&op_ms, ep.op_ms);
    Append(&read_us, ep.read_us);
    Append(&insert_us, ep.insert_local_us);
    Append(&create_ms, ep.settle_create_ms);
    Append(&heartbeat_ms, ep.settle_heartbeat_ms);
    Append(&collect_ms, ep.settle_collect_ms);
    setup_s.push_back(ep.setup_s);
    for (double ms : ep.op_ms) op_s_total += ms / 1e3;
    rows_total += ep.det.rows;
  }
  for (int64_t us : det.op_virtual_us) virtual_ms.push_back(us / 1e3);
  double bytes = 0, messages = 0;
  for (size_t i = 0; i < det.op_bytes.size(); ++i) {
    bytes += det.op_bytes[i];
    messages += det.op_messages[i];
  }

  std::printf("workload %s  seed %llu  trace %d  episodes %d  ops %zu  "
              "reads %zu  run %.1f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              episodes, op_ms.size(), read_us.size(), run_s);
  for (const std::string& f : failures) std::printf("  FAILED: %s\n", f.c_str());

  const double op_tail_p = TailPercentile(op_ms.size());
  const double read_tail_p = TailPercentile(read_us.size());
  const double op_p50 = Quantile(op_ms, 0.5);
  MetricSink sink;
  MetricSink layers;
  layers.zero_is_na = true;
  if (!args.trace) {
    sink.Put("setup_s", Quantile(setup_s, 0.5), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups");
    sink.Put("op_ms_p50", op_p50, "ms",
             std::to_string(op_ms.size()) + " samples");
    sink.Put("op_ms_tail", Quantile(op_ms, op_tail_p / 100), "ms",
             "p" + Num(op_tail_p) + " of " + std::to_string(op_ms.size()));
    sink.Put("rows_per_s", op_s_total > 0 ? rows_total / op_s_total : 0,
             "1/s");
    sink.Put("read_us_p50", Quantile(read_us, 0.5), "us",
             std::to_string(read_us.size()) + " samples");
    sink.Put("read_us_tail", Quantile(read_us, read_tail_p / 100), "us",
             "p" + Num(read_tail_p) + " of " + std::to_string(read_us.size()));
    sink.Put("virtual_ms_p50", Quantile(virtual_ms, 0.5), "ms_virtual");
    sink.Put("wire_bytes_per_op", bytes / ops, "B");
    sink.Put("messages_per_op", messages / ops, "count");
    sink.Put("peak_rss_mb", PeakRssKb() / 1024.0, "MB");
    sink.Put("retained_kb_per_op", det.retained_bytes / ops / 1024.0, "KB");
  } else {
    // Per-layer figures: spans from the traced episodes, everything else
    // from the untraced ones of this run.
    LayerBudget budget;
    double window_ns = 0, uncovered_ns = 0, traced_ops = 0;
    std::vector<double> traced_op_ms;
    for (const Episode& ep : traced) {
      budget.Add(ep.budget);
      window_ns += ep.op_window_ns;
      uncovered_ns += ep.uncovered_ns;
      traced_ops += ep.op_ms.size();
      Append(&traced_op_ms, ep.op_ms);
    }
    auto self_ms = [&](std::initializer_list<const char*> names) {
      double ns = 0;
      for (const char* name : names) {
        auto it = budget.self_ns.find(name);
        if (it != budget.self_ns.end()) ns += it->second;
      }
      return traced_ops > 0 ? ns / traced_ops / 1e6 : 0;
    };
    auto total_ms = [&](const char* name) {
      auto it = budget.total_ns.find(name);
      return it == budget.total_ns.end() || traced_ops == 0
                 ? 0
                 : it->second / traced_ops / 1e6;
    };
    auto counter = [&](const char* name) {
      auto it = det.counters.find(name);
      return it == det.counters.end() ? 0.0 : it->second / ops;
    };
    std::vector<uint64_t> service(codb::kHistogramBuckets, 0),
        sojourn(codb::kHistogramBuckets, 0);
    for (const Episode& ep : plain) {
      for (size_t i = 0; i < ep.service_us_buckets.size(); ++i) {
        service[i] += ep.service_us_buckets[i];
        sojourn[i] += ep.sojourn_us_buckets[i];
      }
    }
    Replay replay =
        ReplayLayers(plain.front().shipped_rows, args.work_dir);
    if (!replay.error.empty()) {
      std::fprintf(stderr, "layer replay failed: %s\n", replay.error.c_str());
      return 2;
    }
    // The rows shipped, encoded as the replay encodes them, must account
    // for the data-class bytes the ledger charged, up to per-message
    // headers.
    const double shipped = counter("update.tuples_shipped");
    const size_t data = static_cast<size_t>(CostClass::kData);
    const double data_bytes = det.class_bytes[data] / ops;
    const double data_msgs = det.class_messages[data] / ops;
    if (shipped > 0) {
      const double rows_bytes = replay.bytes_per_row * shipped;
      std::printf("  replay check: %.0f rows x %.2f B = %.0f B vs ledger "
                  "data %.0f B in %.1f messages\n",
                  shipped, replay.bytes_per_row, rows_bytes, data_bytes,
                  data_msgs);
      if (data_bytes < rows_bytes ||
          data_bytes > rows_bytes + data_msgs * kMaxDataHeaderBytes) {
        std::fprintf(stderr,
                     "determinism failure: wire.bytes_per_row x rows shipped "
                     "(%.0f) does not agree with cost.data.bytes_per_op "
                     "(%.0f)\n",
                     rows_bytes, data_bytes);
        return 2;
      }
    }

    layers.Put("net.deliver.self_ms_per_op", self_ms({"net.deliver"}), "ms");
    layers.Put("net.service_us_p50", BucketQuantile(service, 0.5), "us");
    layers.Put("net.sojourn_us_p50", BucketQuantile(sojourn, 0.5),
               "us_virtual");
    layers.Put("update.rule_eval.ms_per_op", total_ms("update.rule_eval"),
               "ms");
    layers.Put("update.ship.self_ms_per_op", self_ms({"update.ship"}), "ms");
    layers.Put("update.data.self_ms_per_op", self_ms({"update.data"}), "ms");
    layers.Put("update.control.self_ms_per_op",
               self_ms({"update.start", "update.request", "update.ack",
                        "update.complete", "update.link_closed"}),
               "ms");
    layers.Put("update.eval_rows_per_op", counter("update.eval_rows"),
               "count");
    layers.Put("update.tuples_shipped_per_op", shipped, "count");
    layers.Put("update.dups_suppressed_per_op",
               counter("update.dups_suppressed"), "count");
    layers.Put("update.memory_suppressed_per_op",
               counter("update.memory_suppressed"), "count");
    layers.Put("update.ship_useful_ratio",
               shipped > 0 ? (det.rows / ops) / shipped : 0, "ratio");
    layers.Put("query.serve.self_ms_per_op", self_ms({"query.serve"}), "ms");
    layers.Put("query.result.self_ms_per_op", self_ms({"query.result"}),
               "ms");
    layers.Put("query.control.self_ms_per_op",
               self_ms({"query.start", "query.request"}), "ms");
    layers.Put("query.results_in_per_op", counter("query.results_in"),
               "count");
    layers.Put("query.foreign_states",
               static_cast<double>(plain.front().foreign_query_states),
               "count");
    layers.Put("eval.full.self_ms_per_op", self_ms({"eval.full"}), "ms");
    layers.Put("eval.delta.self_ms_per_op", self_ms({"eval.delta"}), "ms");
    layers.Put("relation.insert_ns_per_row", replay.insert_ns_per_row, "ns");
    layers.Put("wire.encode_ns_per_row", replay.encode_ns_per_row, "ns");
    layers.Put("wire.decode_ns_per_row", replay.decode_ns_per_row, "ns");
    layers.Put("wire.bytes_per_row", replay.bytes_per_row, "B");
    layers.Put("storage.wal_append.self_ms_per_op",
               self_ms({"storage.wal_append"}), "ms");
    layers.Put("storage.wal_bytes_per_row", replay.wal_bytes_per_row, "B");
    layers.Put("storage.append_ns_per_row", replay.append_ns_per_row, "ns");
    layers.Put("wrapper.insert_local_us_p50", Quantile(insert_us, 0.5), "us");
    layers.Put("settle.create_ms", Quantile(create_ms, 0.5), "ms");
    layers.Put("settle.heartbeat_ms", Quantile(heartbeat_ms, 0.5), "ms");
    layers.Put("settle.collect_stats_ms", Quantile(collect_ms, 0.5), "ms");
    for (size_t c = 0; c < codb::kCostClassCount; ++c) {
      const std::string name = codb::CostClassName(static_cast<CostClass>(c));
      layers.Put("cost." + name + ".bytes_per_op", det.class_bytes[c] / ops,
                 "B");
      layers.Put("cost." + name + ".msgs_per_op",
                 det.class_messages[c] / ops, "count");
    }
    layers.Put("obs.unaccounted_pct",
               window_ns > 0 ? 100 * uncovered_ns / window_ns : 0, "%");
    const double traced_p50 = Quantile(traced_op_ms, 0.5);
    layers.Put("obs.trace_overhead_pct",
               op_p50 > 0 ? 100 * (traced_p50 / op_p50 - 1) : 0, "%");
    std::printf("  replayed %zu shipped rows; untraced op p50 %s ms, traced "
                "op p50 %s ms\n",
                replay.rows, Num(op_p50).c_str(), Num(traced_p50).c_str());
  }

  // Figures that must repeat for this seed in every run of this build; a
  // run with failed ops has none to offer.
  JsonObject record;
  record.Add("op_vectors", "\"" + std::to_string(Fingerprint(det)) + "\"");
  for (size_t c = 0; c < codb::kCostClassCount; ++c) {
    const std::string name = codb::CostClassName(static_cast<CostClass>(c));
    record.Add("cost." + name + ".bytes", std::to_string(det.class_bytes[c]));
    record.Add("cost." + name + ".msgs",
               std::to_string(det.class_messages[c]));
  }
  for (const auto& [name, value] : det.counters) {
    record.Add(name, std::to_string(value));
  }
  record.Add("retained_bytes", std::to_string(det.retained_bytes));
  record.Add("rows", std::to_string(det.rows));
  if (failed == 0) std::printf("DETERMINISM %s\n", record.str().c_str());

  JsonObject result;
  result.Add("correct", failed == 0 ? "true" : "false");
  result.Add("attempted", std::to_string(attempted));
  result.Add("failed", std::to_string(failed));
  result.Add("metrics", args.trace ? layers.json.str() : sink.json.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
