// Distributed query answering at query time (paper, sections 1 and 3).
//
// A node is queried in its own schema. Data relevant to the query may live
// anywhere in the network, so the node fetches it through its coordination
// rules by a diffusing computation: it asks the exporter of every outgoing
// link whose head writes a relation the query reads; that exporter answers
// from its local data immediately, forwards fetch requests through its own
// relevant outgoing links, and streams incremental results back as deeper
// data arrives. Requests carry a node-id label and are never propagated to
// a node already in the label (simple paths, the paper's cycle guard).
//
// Fetched data lives in a per-query *overlay* (a copy-on-start of the local
// store), so query-time answering leaves the node databases untouched —
// that is precisely the contrast with the global update, which materializes
// the data and makes later queries local (experiment E2).

#ifndef CODB_CORE_QUERY_MANAGER_H_
#define CODB_CORE_QUERY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/flow_session.h"
#include "core/link_graph.h"
#include "core/protocol.h"
#include "core/statistics.h"
#include "net/network_interface.h"
#include "query/evaluator.h"
#include "wrapper/wrapper.h"

namespace codb {

class QueryManager {
 public:
  // Called at the origin when new result tuples arrive (streaming UI) and
  // once more on completion.
  struct QueryProgress {
    size_t new_tuples = 0;
    bool done = false;
  };
  using ProgressFn = std::function<void(const QueryProgress&)>;

  // `query_seq` is the node-owned counter of issued queries; it lives
  // outside the manager so ids stay unique across reconfigurations.
  // `eval` configures this manager's rule/answer evaluations (thread pool
  // + fan-out for the partitioned-join path; defaults stay sequential).
  QueryManager(NetworkBase* network, PeerId self, std::string node_name,
               Wrapper* wrapper, const NetworkConfig* config,
               const LinkGraph* link_graph, StatisticsModule* stats,
               NullMinter* minter, uint64_t* query_seq,
               ReliabilityOptions reliability = ReliabilityOptions(),
               EvalOptions eval = EvalOptions());

  // Compiles this node's incoming links (rules it may be asked to serve).
  Status Init();

  // Issues `query` (over this node's schema) from this node. The node
  // becomes the root of the diffusing computation.
  Result<FlowId> StartQuery(const ConjunctiveQuery& query,
                            ProgressFn on_progress = nullptr);

  // Routed by the node: kQueryRequest/kQueryResult/kQueryDone, plus
  // kUpdateAck with query scope.
  void HandleMessage(const Message& message);

  void HandlePipeClosed(PeerId other);

  // Liveness predicate from the node's membership layer (see
  // UpdateManager::SetPresumedAlive). Null = historical behaviour.
  void SetPresumedAlive(std::function<bool(PeerId)> predicate) {
    session_.SetPresumedAlive(std::move(predicate));
  }

  // True once the diffusing computation of an owned query terminated.
  bool IsDone(const FlowId& query) const;

  // Current (streaming) or final answers of an owned query: the user query
  // evaluated over local store + fetched overlay.
  Result<std::vector<Tuple>> Answers(const FlowId& query) const;

  // The null-free subset of Answers(): the *certain* answers under the
  // marked-null semantics (for conjunctive queries, evaluating the naive
  // tables and dropping rows with nulls is sound and complete).
  Result<std::vector<Tuple>> CertainAnswers(const FlowId& query) const;

  // Per-query states held for queries *other* nodes own. The no-leak
  // teardown check: once every owned query finished and its done-flood
  // propagated, this is zero network-wide.
  size_t ForeignQueryStates() const;

  // Unacked sequenced messages still held for retransmission (see
  // UpdateManager::PendingReliable).
  uint64_t PendingReliable() const { return session_.PendingReliable(); }

 private:
  struct QueryState {
    // Set only at the origin.
    bool owned = false;
    bool done = false;
    ConjunctiveQuery user_query;
    ProgressFn on_progress;

    // user_query compiled once on first Answers() call; reused afterwards
    // so streaming progress callbacks and repeated reads share one plan
    // cache. Mutable: filling it is invisible to callers of const Answers.
    mutable std::optional<CompiledQuery> compiled_user_query;

    // Overlay: local store copy + fetched data; created lazily.
    std::unique_ptr<Database> overlay;

    // Incoming links this node serves for the query: rule id -> requester
    // and the set of labels under which it was requested.
    struct Serving {
      PeerId requester;
      std::set<std::vector<uint32_t>> labels;
      std::unordered_set<Tuple, TupleHash> sent_frontiers;
    };
    std::map<std::string, Serving> serving;

    // (rule id, label) sub-requests already issued.
    std::set<std::pair<std::string, std::vector<uint32_t>>> requested;
  };

  QueryState& StateOf(const FlowId& query);
  Database& OverlayOf(QueryState& state);

  void OnRequest(const Message& message);
  void OnResult(const Message& message);
  void OnDone(const Message& message);

  // Issues sub-requests for every outgoing link relevant to `rule_id`
  // (or, with empty rule_id, to the user query's body relations), under
  // `label` extended with self.
  void Fetch(const FlowId& query, QueryState& state,
             const std::vector<std::string>& relations,
             const std::vector<uint32_t>& label);

  // Evaluates rule `rule_id` over the overlay (optionally delta-restricted)
  // and streams fresh results to the requester.
  void Serve(const FlowId& query, QueryState& state,
             const std::string& rule_id,
             const std::map<std::string, std::vector<Tuple>>* delta);

  // Runs once at the origin, when the query terminates or its deadline
  // aborts it: final progress callback, then the done-flood.
  void FinishOwned(const FlowId& query);

  // The session's protocol dispatch: one in-order, first-time delivery.
  void Deliver(const Message& message);

  NetworkBase* network_;
  PeerId self_;
  std::string node_name_;
  Wrapper* wrapper_;
  const NetworkConfig* config_;
  const LinkGraph* link_graph_;
  StatisticsModule* stats_;
  NullMinter* minter_;
  EvalOptions eval_;

  // Cached instruments from stats_->metrics() (see update_manager.h).
  Counter* m_started_;
  Counter* m_requests_in_;
  Counter* m_results_in_;
  Counter* m_results_out_;
  Counter* m_done_in_;
  Counter* m_rule_evals_;

  // Delivery, dedup, termination and deadlines; its monitor serializes
  // this manager's handlers, timers and answer reads (DESIGN.md §10).
  // Cross-flow concurrency comes from the update manager running on its
  // own strand and from the evaluator's worker pool, not from reentering
  // here.
  FlowSession session_;
  std::map<std::string, CoordinationRule> compiled_incoming_;
  std::map<FlowId, QueryState> queries_;
  std::set<FlowId> done_flood_seen_;
  uint64_t* query_seq_;  // owned by the node
};

}  // namespace codb

#endif  // CODB_CORE_QUERY_MANAGER_H_
