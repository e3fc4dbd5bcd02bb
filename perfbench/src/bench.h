// Shared types of the coDB benchmark: what one episode of a workload
// measures, and the entry point that runs it.
//
// An episode is a fresh deployment plus a fixed operation sequence made
// from the seed. Nothing in an episode depends on a clock: the number of
// operations is part of the workload's definition, so the same seed gives
// the same work on every host.

#ifndef CODB_PERFBENCH_BENCH_H_
#define CODB_PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_budget.h"
#include "obs/cost_ledger.h"
#include "query/rule.h"

namespace perfbench {

struct EpisodeConfig {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  // Scratch directory inside the checkout (durable storage, replay WAL).
  std::string work_dir;
  // Keep the rows shipped by the workload for the layer replay.
  bool capture_rows = false;
};

// Totals over the timed operations of one episode that must repeat
// exactly: across episodes, across runs with the same seed, and between
// traced and untraced episodes.
struct Deterministic {
  std::vector<int64_t> op_virtual_us;
  std::vector<uint64_t> op_bytes;
  std::vector<uint64_t> op_messages;
  std::array<uint64_t, codb::kCostClassCount> class_bytes{};
  std::array<uint64_t, codb::kCostClassCount> class_messages{};
  std::map<std::string, uint64_t> counters;  // summed over all nodes
  // Heap held after the ops; repeats within 1% (64 KiB at least).
  int64_t retained_bytes = 0;
  uint64_t rows = 0;                         // rows made visible

  // Description of the first field that differs from `other`, or "".
  std::string FirstDifference(const Deterministic& other) const;
};

struct Episode {
  double setup_s = 0;
  std::vector<double> op_ms;
  std::vector<double> read_us;
  std::vector<double> insert_local_us;
  std::vector<double> settle_create_ms;
  std::vector<double> settle_heartbeat_ms;
  std::vector<double> settle_collect_ms;
  Deterministic det;
  // Histograms of the event-loop profiler over the timed operations.
  std::vector<uint64_t> service_us_buckets;
  std::vector<uint64_t> sojourn_us_buckets;
  uint64_t foreign_query_states = 0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::vector<codb::HeadTuple> shipped_rows;  // when capture_rows
  // Traced episodes only.
  LayerBudget budget;
  double op_window_ns = 0;
  double uncovered_ns = 0;
};

// Runs one episode. Operational failures (an error, an op that does not
// complete, a wrong answer) are counted in Episode::failed, with a message
// in Episode::failures.
Episode RunEpisode(const EpisodeConfig& config);

// Heap bytes currently held by live allocations (all malloc arenas).
int64_t HeapInUse();
// Process peak resident set (VmHWM), in KiB.
int64_t PeakRssKb();

}  // namespace perfbench

#endif  // CODB_PERFBENCH_BENCH_H_
