// The diffusing-computation layer shared by the update and query managers.
//
// The paper moves data for updates and queries with one mechanism, "an
// extension of the 'diffusing computation' approach". A FlowSession is that
// mechanism for one manager: at-least-once delivery (ReliableSender),
// in-order exactly-once processing (DupFilter), Dijkstra–Scholten
// termination (TerminationDetector), root flows with their deadline, and
// peer loss. The managers keep only the paper's protocols; the session
// hands them each protocol message once, in order, through `deliver`.
//
// Threading (DESIGN.md §10): the session's monitor is the manager's. The
// session takes it on every entry from outside (Receive, PeerLost,
// retransmit give-ups, flow deadlines); the manager takes it for its own
// entry points and calls the other methods under it. Recursive because
// the simulator delivers nested callbacks (pipe-closed, give-ups) from
// within a handler.

#ifndef CODB_CORE_FLOW_SESSION_H_
#define CODB_CORE_FLOW_SESSION_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/protocol.h"
#include "core/reliability.h"
#include "core/statistics.h"
#include "core/termination.h"
#include "net/network_interface.h"
#include "wrapper/wrapper.h"

namespace codb {

class FlowSession {
 public:
  // Processes one protocol message of `flow`, delivered in order and for
  // the first time. D-S acks and delivery receipts never reach it.
  using DeliverFn =
      std::function<void(const Message& message, const FlowId& flow)>;
  // Finishes a flow rooted here, exactly once: when its computation
  // terminates, or when the flow deadline aborts it first.
  using FinishFn = std::function<void(const FlowId& flow)>;

  // `scope` names the metrics (`update.*` or `query.*`). All pointers must
  // outlive the session; `node_name` is this node's name in `config`.
  FlowSession(NetworkBase* network, PeerId self, std::string node_name,
              Wrapper* wrapper, const NetworkConfig* config,
              StatisticsModule* stats, FlowId::Scope scope,
              ReliabilityOptions reliability, DeliverFn deliver);
  FlowSession(const FlowSession&) = delete;
  FlowSession& operator=(const FlowSession&) = delete;

  std::recursive_mutex& monitor() const { return mu_; }

  // Every message the node routes to the manager: receipts, dedups and
  // parks sequenced arrivals, consumes delivery receipts and D-S acks,
  // delivers the rest, runs the idle check, then drains the arrivals this
  // one made next-in-order.
  void Receive(const Message& message);

  // Declares this node the root of `flow` and arms the flow deadline.
  void StartRoot(const FlowId& flow, FinishFn finish);

  // Termination idle check; roots run it once their flow is under way.
  void MaybeQuiesce() { termination_.MaybeQuiesce(); }

  // Books an arriving basic message before it is processed: engages this
  // node, or acks at once if it is already engaged.
  void OnBasicMessage(const FlowId& flow, PeerId src) {
    termination_.OnBasicMessage(flow, src);
  }

  // Sends a basic protocol message and books its termination deficit.
  Status SendBasic(const FlowId& flow, PeerId dst, MessageType type,
                   std::vector<uint8_t> payload);

  // Sends a non-basic (no deficit) but still sequenced message to every
  // live acquaintance except `via`.
  void Flood(const FlowId& flow, MessageType type,
             const std::vector<uint8_t>& payload, PeerId via);

  // `peer` is gone (pipe closed or evicted): drops retransmissions towards
  // it and cancels its deficit, runs `reexamine`, then the idle check.
  void PeerLost(PeerId peer, const std::function<void()>& reexamine);

  // Membership liveness: peers for which it returns false (evicted) are
  // unreachable. Null = every connected live peer is presumed alive.
  void SetPresumedAlive(std::function<bool(PeerId)> predicate) {
    presumed_alive_ = std::move(predicate);
  }

  Result<PeerId> ResolvePeer(const std::string& node_name) const;  // cached
  // Alive, pipe-connected and not evicted.
  bool Reachable(PeerId peer) const;
  // Reachable rule acquaintances (flood targets).
  std::vector<PeerId> Acquaintances() const;
  // True when this node's store violates its own key constraints.
  bool LocallyInconsistent() const;

  // Unacked sequenced messages still held for retransmission.
  uint64_t PendingReliable() const { return reliable_.pending_count(); }

 private:
  // Receipts a sequenced message; false when it must not be processed now
  // (already seen, or parked behind a gap).
  bool Admit(const Message& message, const FlowId& flow);
  // Flow-deadline expiry: finishes a still-open root flow as aborted.
  void AbortIfOpen(const FlowId& flow);

  mutable std::recursive_mutex mu_;

  NetworkBase* network_;
  PeerId self_;
  std::string node_name_;
  Wrapper* wrapper_;
  const NetworkConfig* config_;
  StatisticsModule* stats_;
  DeliverFn deliver_;
  std::function<bool(PeerId)> presumed_alive_;  // null = no membership
  // D-S acks are traced (the `term.ack` instant, the `update.ack` span and
  // `update.acks_in`) on the update side only.
  const bool trace_acks_;

  Counter* m_acks_in_;  // null unless trace_acks_
  Counter* m_dups_suppressed_;
  Counter* m_root_terminations_;
  Counter* m_aborted_;

  TerminationDetector termination_;
  ReliableSender reliable_;
  DupFilter dup_filter_;
  std::map<FlowId, FinishFn> open_roots_;  // rooted here, not yet finished
  mutable std::map<std::string, PeerId> peer_cache_;
};

}  // namespace codb

#endif  // CODB_CORE_FLOW_SESSION_H_
