#include "core/flow_session.h"

#include "core/consistency.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace codb {

namespace {

// The managers' metric names: `update.<name>` or `query.<name>`.
std::string ScopedName(FlowId::Scope scope, const char* name) {
  return std::string(scope == FlowId::Scope::kUpdate ? "update." : "query.") +
         name;
}

}  // namespace

FlowSession::FlowSession(NetworkBase* network, PeerId self,
                         std::string node_name, Wrapper* wrapper,
                         const NetworkConfig* config, StatisticsModule* stats,
                         FlowId::Scope scope, ReliabilityOptions reliability,
                         DeliverFn deliver)
    : network_(network),
      self_(self),
      node_name_(std::move(node_name)),
      wrapper_(wrapper),
      config_(config),
      stats_(stats),
      deliver_(std::move(deliver)),
      trace_acks_(scope == FlowId::Scope::kUpdate),
      m_acks_in_(trace_acks_ ? stats->metrics().GetCounter("update.acks_in")
                             : nullptr),
      m_dups_suppressed_(stats->metrics().GetCounter(
          ScopedName(scope, "dups_suppressed"))),
      m_root_terminations_(stats->metrics().GetCounter(
          ScopedName(scope, "root_terminations"))),
      m_aborted_(stats->metrics().GetCounter(ScopedName(scope, "aborted"))),
      termination_(self,
                   [this](PeerId to, const FlowId& flow) {
                     if (trace_acks_) {
                       Tracer::Global().Instant(self_.value, "term.ack",
                                                flow.ToString());
                     }
                     // The D-S ack is sequenced and retransmitted: losing
                     // it would permanently wedge the receiver's deficit.
                     // It is not a basic message (no deficit of its own).
                     // Send failures are handled by the peer-lost path.
                     AckPayload ack{flow};
                     reliable_.Send(MakeMessage(self_, to,
                                                MessageType::kUpdateAck,
                                                ack.Serialize()),
                                    flow, /*basic=*/false);
                   }),
      reliable_(
          network, reliability,
          [this](const FlowId& flow, PeerId dst, bool basic) {
            // Retry budget exhausted: the D-S ack for that basic message
            // will never come, so cancel its deficit unit or the flow
            // would hang at the root forever. Runs from a retransmit
            // timer, outside Receive() — take the monitor (the sender
            // releases its own mutex before invoking give-up callbacks,
            // so ordering holds).
            std::lock_guard<std::recursive_mutex> lock(mu_);
            if (basic) termination_.CancelOne(flow, dst);
            termination_.MaybeQuiesce();
          },
          stats->metrics().GetCounter(ScopedName(scope, "retransmits")),
          stats->metrics().GetCounter(ScopedName(scope, "send_give_ups")),
          stats->metrics().GetCounter("net.retx.bytes")) {}

void FlowSession::Receive(const Message& message) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (message.type == MessageType::kDeliveryAck) {
    Result<DeliveryAckPayload> receipt =
        DeliveryAckPayload::Deserialize(message.payload);
    if (receipt.ok()) {
      reliable_.OnDeliveryAck(receipt.value().flow, message.src,
                              receipt.value().acked_seq);
    }
    return;
  }
  // Every flow payload starts with its FlowId; one that does not parse
  // cannot be receipted, ordered or attributed to a flow.
  Result<FlowId> flow = PeekFlowId(message.payload);
  if (!flow.ok()) {
    CODB_LOG(kWarning) << node_name_ << ": bad "
                       << MessageTypeName(message.type) << ": "
                       << flow.status().ToString();
    return;
  }
  if (!Admit(message, flow.value())) return;
  if (message.type == MessageType::kUpdateAck) {
    // A D-S ack's payload is its FlowId alone.
    ScopedSpan span;
    if (trace_acks_) {
      m_acks_in_->Add();
      span = ScopedSpan(Tracer::Global().BeginSpanHere(
          "update.ack", flow.value().ToString()));
    }
    termination_.OnAck(flow.value(), message.src);
  } else {
    deliver_(message, flow.value());
  }
  termination_.MaybeQuiesce();
  if (message.seq == 0) return;
  // This delivery may have filled the gap in front of parked arrivals.
  while (std::optional<Message> ready =
             dup_filter_.NextReady(flow.value(), message.src)) {
    // Admit() now classifies it as the in-order delivery it has become.
    Receive(*ready);
  }
}

bool FlowSession::Admit(const Message& message, const FlowId& flow) {
  if (message.seq == 0) return true;  // unsequenced sender
  // Receipt first, whatever the verdict: the sender may be retransmitting
  // precisely because the previous receipt was lost, and a parked message
  // is safely buffered here.
  DeliveryAckPayload receipt{flow, message.seq};
  network_->Send(MakeMessage(self_, message.src, MessageType::kDeliveryAck,
                             receipt.Serialize()));
  switch (dup_filter_.Check(flow, message.src, message.seq)) {
    case DupFilter::Verdict::kDeliver:
      return true;
    case DupFilter::Verdict::kDuplicate:
      // Already processed. Crucially this also protects the termination
      // detector: a duplicated engaging message must not trigger a second
      // D-S ack while the first engagement is still pending.
      m_dups_suppressed_->Add();
      return false;
    case DupFilter::Verdict::kHold:
      // A gap precedes it: the retransmission of a dropped message is on
      // its way. Processing out of order would let e.g. a LinkClosed
      // overtake the data sent before it, so park until the gap fills.
      dup_filter_.Hold(flow, message.src, message);
      return false;
  }
  return false;
}

void FlowSession::StartRoot(const FlowId& flow, FinishFn finish) {
  open_roots_.emplace(flow, std::move(finish));
  termination_.StartRoot(flow, [this](const FlowId& done) {
    auto it = open_roots_.find(done);
    if (it == open_roots_.end()) return;
    FinishFn finish = std::move(it->second);
    open_roots_.erase(it);
    m_root_terminations_->Add();
    finish(done);
  });
  const ReliabilityOptions& options = reliable_.options();
  if (!options.enabled || options.flow_deadline_us <= 0) return;
  // Guarded by the sender's liveness token: if a reconfiguration rebuilds
  // the manager before the deadline, the timer must not touch the dead
  // instance.
  std::weak_ptr<void> alive = reliable_.liveness();
  network_->ScheduleAfter(options.flow_deadline_us, [this, alive, flow] {
    if (alive.expired()) return;
    AbortIfOpen(flow);
  });
}

void FlowSession::AbortIfOpen(const FlowId& flow) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = open_roots_.find(flow);
  if (it == open_roots_.end()) return;
  FinishFn finish = std::move(it->second);
  open_roots_.erase(it);
  CODB_LOG(kWarning) << node_name_ << ": deadline expired for "
                     << flow.ToString()
                     << "; finishing with partial results";
  m_aborted_->Add();
  stats_->ReportFor(flow).aborted = true;
  // Marks the root terminated without firing its callback, so the finish
  // stays exactly-once even if the deficit drains later.
  termination_.Abort(flow);
  finish(flow);
}

Status FlowSession::SendBasic(const FlowId& flow, PeerId dst,
                              MessageType type,
                              std::vector<uint8_t> payload) {
  Status sent = reliable_.Send(
      MakeMessage(self_, dst, type, std::move(payload)), flow,
      /*basic=*/true);
  if (sent.ok()) {
    termination_.OnSent(flow, dst);
  } else {
    CODB_LOG(kDebug) << node_name_ << ": send " << MessageTypeName(type)
                     << " to " << dst.ToString()
                     << " failed: " << sent.ToString();
  }
  return sent;
}

void FlowSession::Flood(const FlowId& flow, MessageType type,
                        const std::vector<uint8_t>& payload, PeerId via) {
  for (PeerId neighbor : Acquaintances()) {
    if (neighbor == via) continue;
    reliable_.Send(MakeMessage(self_, neighbor, type, payload), flow,
                   /*basic=*/false);
  }
}

void FlowSession::PeerLost(PeerId peer,
                           const std::function<void()>& reexamine) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  reliable_.OnPeerLost(peer);
  termination_.OnPeerLost(peer);
  if (reexamine != nullptr) reexamine();
  termination_.MaybeQuiesce();
}

Result<PeerId> FlowSession::ResolvePeer(const std::string& node_name) const {
  auto it = peer_cache_.find(node_name);
  if (it != peer_cache_.end()) return it->second;
  CODB_ASSIGN_OR_RETURN(PeerId id, network_->FindByName(node_name));
  peer_cache_.emplace(node_name, id);
  return id;
}

bool FlowSession::Reachable(PeerId peer) const {
  // Membership eviction counts as unreachable even while the pipe object
  // lingers (silent death never snaps the pipe).
  return network_->IsAlive(peer) && network_->HasPipe(self_, peer) &&
         (presumed_alive_ == nullptr || presumed_alive_(peer));
}

std::vector<PeerId> FlowSession::Acquaintances() const {
  std::vector<PeerId> out;
  for (const std::string& name : config_->AcquaintancesOf(node_name_)) {
    Result<PeerId> peer = ResolvePeer(name);
    if (peer.ok() && Reachable(peer.value())) out.push_back(peer.value());
  }
  return out;
}

bool FlowSession::LocallyInconsistent() const {
  const NodeDecl* decl = config_->FindNode(node_name_);
  if (decl == nullptr || decl->keys.empty()) return false;
  ShardedRWLock::ReadAllGuard read_guard(wrapper_->store_lock());
  return !FindKeyViolations(wrapper_->storage(), decl->keys).empty();
}

}  // namespace codb
