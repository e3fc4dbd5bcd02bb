#include "layer_budget.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

namespace perfbench {
namespace {

using GroupKey = std::pair<uint32_t, uint32_t>;  // (node, thread)

std::map<GroupKey, std::vector<const SpanInterval*>> GroupSpans(
    const std::vector<SpanInterval>& spans) {
  std::map<GroupKey, std::vector<const SpanInterval*>> groups;
  for (const SpanInterval& span : spans) {
    groups[{span.node, span.thread}].push_back(&span);
  }
  return groups;
}

// Charges every elementary segment of one group's timeline to its
// innermost covering span.
void ChargeGroup(const std::vector<const SpanInterval*>& group,
                 LayerBudget* budget) {
  struct Event {
    uint64_t time;
    bool open;
    size_t index;
  };
  std::vector<Event> events;
  events.reserve(group.size() * 2);
  for (size_t i = 0; i < group.size(); ++i) {
    const SpanInterval& span = *group[i];
    budget->total_ns[span.name] += span.end_ns - span.start_ns;
    if (span.end_ns <= span.start_ns) continue;  // instants cover nothing
    events.push_back({span.start_ns, true, i});
    events.push_back({span.end_ns, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.time < b.time;
  });
  // Active spans ordered so that the innermost is the last element: later
  // start first, then earlier end, then index for a strict order.
  using ActiveKey = std::tuple<uint64_t, int64_t, size_t>;
  std::set<ActiveKey> active;
  auto key_of = [&](size_t i) {
    return ActiveKey{group[i]->start_ns,
                     -static_cast<int64_t>(group[i]->end_ns), i};
  };
  uint64_t previous = 0;
  for (size_t e = 0; e < events.size();) {
    const uint64_t now = events[e].time;
    if (!active.empty() && now > previous) {
      const size_t inner = std::get<2>(*active.rbegin());
      budget->self_ns[group[inner]->name] += now - previous;
      budget->covered_ns += now - previous;
    }
    for (; e < events.size() && events[e].time == now; ++e) {
      if (events[e].open) {
        active.insert(key_of(events[e].index));
      } else {
        active.erase(key_of(events[e].index));
      }
    }
    previous = now;
  }
}

}  // namespace

void LayerBudget::Add(const LayerBudget& other) {
  for (const auto& [name, ns] : other.self_ns) self_ns[name] += ns;
  for (const auto& [name, ns] : other.total_ns) total_ns[name] += ns;
  covered_ns += other.covered_ns;
}

LayerBudget ComputeLayerBudget(const std::vector<SpanInterval>& spans) {
  LayerBudget budget;
  for (const auto& [key, group] : GroupSpans(spans)) {
    ChargeGroup(group, &budget);
  }
  return budget;
}

uint64_t UncoveredNs(const std::vector<SpanInterval>& spans,
                     uint64_t window_start, uint64_t window_end) {
  if (window_end <= window_start) return 0;
  std::vector<std::pair<uint64_t, uint64_t>> clipped;
  clipped.reserve(spans.size());
  for (const SpanInterval& span : spans) {
    uint64_t start = std::max(span.start_ns, window_start);
    uint64_t end = std::min(span.end_ns, window_end);
    if (end > start) clipped.emplace_back(start, end);
  }
  std::sort(clipped.begin(), clipped.end());
  uint64_t covered = 0;
  uint64_t reach = window_start;
  for (const auto& [start, end] : clipped) {
    if (end <= reach) continue;
    covered += end - std::max(start, reach);
    reach = end;
  }
  return (window_end - window_start) - covered;
}

std::string SelfCheckLayerBudget() {
  struct Case {
    std::string label;
    std::vector<SpanInterval> spans;
    std::map<std::string, uint64_t> expected_self;
    uint64_t expected_covered;
  };
  std::vector<Case> cases = {
      // A delivery on node 2 caused by a send inside node 1's span runs
      // after the sender's span ended; its causal parent is the sender.
      // Subtracting it from the parent would give 10 - 90 = -80.
      {"cross-hop parent",
       {{1, 0, 0, "send", 0, 10}, {2, 0, 1, "deliver", 10, 100}},
       {{"send", 10}, {"deliver", 90}},
       100},
      // Same-thread nesting three deep.
      {"same-thread nesting",
       {{1, 0, 0, "outer", 0, 100},
        {1, 0, 0, "middle", 10, 40},
        {1, 0, 0, "inner", 20, 30}},
       {{"outer", 70}, {"middle", 20}, {"inner", 10}},
       100},
      // Two spans on different nodes overlap in wall time (two runtime
      // threads): each keeps its own whole duration.
      {"overlap across nodes",
       {{1, 1, 0, "a", 0, 50}, {2, 2, 0, "b", 25, 75}},
       {{"a", 50}, {"b", 50}},
       100},
      // Partial overlap on one thread cannot nest; the later span owns
      // the shared part and the union is charged exactly once.
      {"partial overlap on one thread",
       {{1, 0, 0, "a", 0, 50}, {1, 0, 0, "b", 25, 75}},
       {{"a", 25}, {"b", 50}},
       75},
      // A span on another node nested in time inside a span on the same
      // thread (a synchronous pipe-closed callback), plus an instant.
      {"cross-node on one thread",
       {{1, 0, 0, "handler", 0, 60},
        {2, 0, 1, "callback", 20, 30},
        {1, 0, 0, "instant", 40, 40}},
       {{"handler", 60}, {"callback", 10}, {"instant", 0}},
       70},
  };
  for (const Case& c : cases) {
    LayerBudget budget = ComputeLayerBudget(c.spans);
    uint64_t sum = 0;
    for (const auto& [name, ns] : budget.self_ns) {
      // Unsigned, but a wrapped-around negative would be enormous.
      if (ns > budget.covered_ns) {
        return c.label + ": negative exclusive time for " + name;
      }
      sum += ns;
    }
    if (sum != budget.covered_ns) {
      return c.label + ": self times do not sum to the covered time";
    }
    if (budget.covered_ns != c.expected_covered) {
      return c.label + ": covered time " +
             std::to_string(budget.covered_ns) + " != " +
             std::to_string(c.expected_covered);
    }
    for (const auto& [name, want] : c.expected_self) {
      uint64_t got = budget.self_ns.count(name) ? budget.self_ns.at(name) : 0;
      if (got != want) {
        return c.label + ": self time of " + name + " is " +
               std::to_string(got) + ", expected " + std::to_string(want);
      }
    }
  }
  // Uncovered time of a window with a gap between two spans.
  std::vector<SpanInterval> gap = {{1, 0, 0, "a", 10, 20},
                                   {2, 0, 0, "b", 15, 30},
                                   {1, 0, 0, "c", 50, 60}};
  if (UncoveredNs(gap, 0, 100) != 100 - 20 - 10) {
    return "uncovered time of a window with gaps is wrong";
  }
  return "";
}

}  // namespace perfbench
