// Per-layer time budget from trace spans.
//
// A span's self (exclusive) time is computed from temporal nesting on its
// (node, thread) pair, never from TraceSpan::parent: the tracer's parent is
// the causal hop, which crosses nodes, and subtracting a child that ran on
// another node (or after its parent ended) gives negative exclusive times.
//
// Within one (node, thread) group the timeline is cut at every span
// boundary, and each elementary segment is charged to the innermost span
// covering it: the one that started last (ties: the one that ends first).
// So self times are never negative, and per group they sum to the length
// of the union of the group's spans.

#ifndef CODB_PERFBENCH_LAYER_BUDGET_H_
#define CODB_PERFBENCH_LAYER_BUDGET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanInterval {
  uint32_t node = 0;
  uint32_t thread = 0;
  uint64_t parent = 0;  // causal parent; ignored by the analysis
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct LayerBudget {
  std::map<std::string, uint64_t> self_ns;   // exclusive, by span name
  std::map<std::string, uint64_t> total_ns;  // inclusive, by span name
  // Sum over (node, thread) groups of the union length of their spans;
  // equals the sum of self_ns.
  uint64_t covered_ns = 0;

  void Add(const LayerBudget& other);
};

LayerBudget ComputeLayerBudget(const std::vector<SpanInterval>& spans);

// Length of [window_start, window_end) that no span of any group covers.
uint64_t UncoveredNs(const std::vector<SpanInterval>& spans,
                     uint64_t window_start, uint64_t window_end);

// Runs the analysis on synthetic span sets (cross-hop parents, same-thread
// nesting, partial overlap, overlapping spans on different nodes) and
// checks that no self time is negative, that self times sum to the covered
// time, and the expected values. Returns an empty string on success, else
// a description of the first violation.
std::string SelfCheckLayerBudget();

}  // namespace perfbench

#endif  // CODB_PERFBENCH_LAYER_BUDGET_H_
