// Membership layer tests: RTT estimation, the failure-detector state
// machine, heartbeat cadence under the virtual clock, false-suspicion
// recovery, stale-incarnation rejection, and the eviction fan-out into a
// node's reliability layer.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "membership/failure_detector.h"
#include "membership/heartbeat.h"
#include "membership/membership.h"
#include "membership/rtt.h"
#include "net/network.h"
#include "query/parser.h"
#include "workload/testbed.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

// -- RttEstimator -------------------------------------------------------------

TEST(RttEstimatorTest, FirstSampleSeedsEstimate) {
  RttEstimator rtt;
  EXPECT_FALSE(rtt.HasSample());
  EXPECT_EQ(rtt.srtt_us(), 0);

  rtt.AddSample(2000);
  EXPECT_TRUE(rtt.HasSample());
  // RFC 6298 seeding: srtt = sample, rttvar = sample / 2.
  EXPECT_EQ(rtt.srtt_us(), 2000);
  EXPECT_EQ(rtt.rttvar_us(), 1000);
  EXPECT_EQ(rtt.RetransmitTimeout(0), 2000 + 4 * 1000);
}

TEST(RttEstimatorTest, ConvergesOnConstantSamples) {
  RttEstimator rtt;
  for (int i = 0; i < 200; ++i) rtt.AddSample(1000);
  EXPECT_NEAR(static_cast<double>(rtt.srtt_us()), 1000.0, 1.0);
  // Constant samples drive the deviation to (almost) zero.
  EXPECT_LT(rtt.rttvar_us(), 5);
  EXPECT_EQ(rtt.samples(), 200u);
}

TEST(RttEstimatorTest, TracksShiftedLoad) {
  RttEstimator rtt;
  for (int i = 0; i < 50; ++i) rtt.AddSample(1000);
  for (int i = 0; i < 200; ++i) rtt.AddSample(5000);
  // After a sustained shift the EWMA follows the new level.
  EXPECT_GT(rtt.srtt_us(), 4500);
  EXPECT_EQ(rtt.last_sample_us(), 5000);
}

TEST(RttEstimatorTest, ClampsNonPositiveSamplesAndHonorsFloor) {
  RttEstimator rtt;
  rtt.AddSample(0);   // virtual-clock ack within the same microsecond
  rtt.AddSample(-5);  // defensive: never trust a negative delta
  EXPECT_GE(rtt.srtt_us(), 1);
  EXPECT_EQ(rtt.RetransmitTimeout(250'000), 250'000);
}

// -- FailureDetector ----------------------------------------------------------

FailureDetector::Timeouts TestTimeouts() {
  FailureDetector::Timeouts t;
  t.suspect_us = 300;
  t.evict_us = 200;
  t.grace_us = 400;
  return t;
}

TEST(FailureDetectorTest, SuspectsThenEvictsOnSilence) {
  FailureDetector detector(TestTimeouts());
  PeerId peer(7);
  detector.Track(peer, 0);
  detector.HeardFrom(peer, 1, 0);

  // Within the grace window: quiet ticks, still alive.
  EXPECT_TRUE(detector.Tick(200).empty());
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kAlive);

  std::vector<FailureDetector::Event> events = detector.Tick(450);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kSuspected);
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kSuspect);

  // More silence inside the confirmation window: no double-suspicion.
  EXPECT_TRUE(detector.Tick(500).empty());

  events = detector.Tick(700);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kEvicted);
  EXPECT_EQ(events[0].peer, peer);
  // Detection latency reported from the last first-hand sign of life.
  EXPECT_EQ(events[0].silent_for_us, 700);
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kDead);
  EXPECT_EQ(detector.suspicions(), 1u);
  EXPECT_EQ(detector.evictions(), 1u);
  EXPECT_EQ(detector.false_suspicions(), 0u);
}

TEST(FailureDetectorTest, RecoversFromFalseSuspicion) {
  FailureDetector detector(TestTimeouts());
  PeerId peer(3);
  detector.Track(peer, 0);
  detector.HeardFrom(peer, 1, 0);

  ASSERT_EQ(detector.Tick(450).size(), 1u);  // suspected
  std::vector<FailureDetector::Event> events = detector.HeardFrom(peer, 1, 500);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kRecovered);
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kAlive);
  EXPECT_EQ(detector.false_suspicions(), 1u);
  EXPECT_EQ(detector.evictions(), 0u);

  // The recovered peer is not evicted on the old schedule.
  EXPECT_TRUE(detector.Tick(700).empty());
}

TEST(FailureDetectorTest, GracePeriodSuppressesEarlySuspicion) {
  FailureDetector detector(TestTimeouts());
  PeerId peer(9);
  detector.Track(peer, 0);  // never heard from at all

  // Silence alone inside the grace window is not suspicious: the peer's
  // first beacon may still be in flight.
  EXPECT_TRUE(detector.Tick(399).empty());
  std::vector<FailureDetector::Event> events = detector.Tick(401);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kSuspected);
}

TEST(FailureDetectorTest, StaleIncarnationRejected) {
  FailureDetector detector(TestTimeouts());
  PeerId peer(4);
  detector.Track(peer, 0);
  detector.HeardFrom(peer, 5, 100);
  EXPECT_EQ(detector.IncarnationOf(peer), 5u);

  // A message from an older incarnation (pre-restart straggler) must not
  // refresh liveness.
  detector.HeardFrom(peer, 4, 400);
  EXPECT_EQ(detector.stale_rejected(), 1u);
  EXPECT_EQ(detector.IncarnationOf(peer), 5u);
  std::vector<FailureDetector::Event> events = detector.Tick(450);
  ASSERT_EQ(events.size(), 1u);  // suspected: the stale message did not count
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kSuspected);
}

TEST(FailureDetectorTest, DeadIsTerminalPerIncarnationButRestartResurrects) {
  FailureDetector detector(TestTimeouts());
  PeerId peer(6);
  detector.Track(peer, 0);
  detector.HeardFrom(peer, 2, 0);
  detector.Tick(450);
  detector.Tick(700);
  ASSERT_EQ(detector.HealthOf(peer), PeerHealth::kDead);

  // Same incarnation: stays dead, counted stale.
  detector.HeardFrom(peer, 2, 800);
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kDead);

  // Strictly higher incarnation: the peer restarted — back to alive.
  detector.HeardFrom(peer, 3, 900);
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kAlive);
  EXPECT_EQ(detector.IncarnationOf(peer), 3u);
}

TEST(FailureDetectorTest, ClaimsEscalateButNeverRefreshLiveness) {
  FailureDetector detector(TestTimeouts());
  PeerId peer(8);
  detector.Track(peer, 0);
  detector.HeardFrom(peer, 1, 0);

  // A single accuser cannot kill an alive peer: a dead-claim only opens
  // the suspicion window.
  std::vector<FailureDetector::Event> events =
      detector.OnClaim(peer, 1, PeerHealth::kDead, 100);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kSuspected);

  // A dead-claim about an already-suspect peer confirms the eviction.
  events = detector.OnClaim(peer, 1, PeerHealth::kDead, 200);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FailureDetector::Event::kEvicted);

  // An alive-claim never refreshes last_heard (liveness is first-hand):
  // nothing changes for a dead peer, and for an alive one the silence
  // clock keeps running — covered by the suspicion above firing despite
  // any number of claims.
  EXPECT_TRUE(detector.OnClaim(peer, 1, PeerHealth::kAlive, 250).empty());
  EXPECT_EQ(detector.HealthOf(peer), PeerHealth::kDead);
}

// -- HeartbeatSession under the virtual clock --------------------------------

// Minimal peer: routes heartbeat traffic into its session, like Node does.
struct MemberHarness : NetworkPeer {
  std::shared_ptr<HeartbeatSession> session;
  void HandleMessage(const Message& message) override {
    if (message.type == MessageType::kHeartbeat) {
      session->HandleBeacon(message);
    } else if (message.type == MessageType::kHeartbeatAck) {
      session->HandleAck(message);
    }
  }
  void HandlePipeClosed(PeerId other) override { session->Forget(other); }
};

struct RecordingListener : MembershipListener {
  std::vector<std::pair<char, uint32_t>> events;
  void OnPeerSuspected(PeerId peer, int64_t) override {
    events.emplace_back('S', peer.value);
  }
  void OnPeerRecovered(PeerId peer, int64_t) override {
    events.emplace_back('R', peer.value);
  }
  void OnPeerEvicted(PeerId peer, int64_t) override {
    events.emplace_back('E', peer.value);
  }
};

MembershipOptions FastMembership() {
  MembershipOptions options;
  options.period_us = 100'000;  // 0.1s beacon period
  return options;
}

TEST(HeartbeatSessionTest, BeaconsOnCadenceWithoutHoldingRunOpen) {
  Network net;
  MemberHarness a, b;
  PeerId pa = net.Join("a", &a);
  PeerId pb = net.Join("b", &b);
  ASSERT_TRUE(net.OpenPipe(pa, pb, LinkProfile::Lan()).ok());

  MembershipOptions options = FastMembership();
  a.session = HeartbeatSession::Create(&net, pa, options, nullptr);
  b.session = HeartbeatSession::Create(&net, pb, options, nullptr);
  a.session->Start();
  b.session->Start();

  // The beacon loop is maintenance-only: Run() sees no foreground events
  // and returns immediately, at time zero.
  EXPECT_EQ(net.Run(), 0u);
  EXPECT_EQ(net.now_us(), 0);

  net.RunFor(10 * options.period_us + options.period_us / 2);

  HeartbeatSession::Counters ca = a.session->counters();
  HeartbeatSession::Counters cb = b.session->counters();
  // Ticks are phase-staggered, so each session got 10 or 11 ticks in.
  EXPECT_GE(ca.beacons_out, 9u);
  EXPECT_LE(ca.beacons_out, 12u);
  EXPECT_GE(cb.beacons_in, 9u);
  EXPECT_GE(ca.acks_in, 9u);
  EXPECT_EQ(ca.suspicions, 0u);
  EXPECT_EQ(ca.evictions, 0u);
  EXPECT_EQ(a.session->HealthOf(pb), PeerHealth::kAlive);
  EXPECT_EQ(b.session->HealthOf(pa), PeerHealth::kAlive);
  // The ack echo closed the RTT loop (LAN latency is non-zero).
  EXPECT_GT(a.session->SrttOf(pb), 0);

  // Once both sessions stop, time can keep advancing without any beacons.
  a.session->Stop();
  b.session->Stop();
  uint64_t before = a.session->counters().beacons_out;
  net.RunFor(5 * options.period_us);
  EXPECT_EQ(a.session->counters().beacons_out, before);
}

TEST(HeartbeatSessionTest, SilentPeerIsSuspectedThenEvicted) {
  Network net;
  MemberHarness a, b;
  PeerId pa = net.Join("a", &a);
  PeerId pb = net.Join("b", &b);
  ASSERT_TRUE(net.OpenPipe(pa, pb, LinkProfile::Lan()).ok());

  MembershipOptions options = FastMembership();
  a.session = HeartbeatSession::Create(&net, pa, options, nullptr);
  b.session = HeartbeatSession::Create(&net, pb, options, nullptr);
  RecordingListener listener;
  a.session->AddListener(&listener);
  a.session->Start();
  b.session->Start();

  // Establish mutual tracking, then kill b silently: the pipe partitions
  // (no pipe-closed event) and b stops beaconing.
  net.RunFor(5 * options.period_us);
  ASSERT_EQ(a.session->HealthOf(pb), PeerHealth::kAlive);
  b.session->Stop();
  ASSERT_TRUE(net.SetFaultProfile(pa, pb, FaultProfile::Partition()).ok());

  // Worst-case detection: suspect (max(1.5P, 100ms floor) + RTT margin)
  // plus evict (1P), each rounded up to the next beacon tick — under 6
  // periods for P = 100ms.
  net.RunFor(6 * options.period_us);
  EXPECT_EQ(a.session->HealthOf(pb), PeerHealth::kDead);
  EXPECT_FALSE(a.session->IsPresumedAlive(pb));
  ASSERT_EQ(listener.events.size(), 2u);
  EXPECT_EQ(listener.events[0], std::make_pair('S', pb.value));
  EXPECT_EQ(listener.events[1], std::make_pair('E', pb.value));
  HeartbeatSession::Counters counters = a.session->counters();
  EXPECT_EQ(counters.suspicions, 1u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.false_suspicions, 0u);
}

TEST(HeartbeatSessionTest, PartitionHealedInTimeIsAFalseSuspicion) {
  Network net;
  MemberHarness a, b;
  PeerId pa = net.Join("a", &a);
  PeerId pb = net.Join("b", &b);
  ASSERT_TRUE(net.OpenPipe(pa, pb, LinkProfile::Lan()).ok());

  MembershipOptions options = FastMembership();
  options.evict_after_periods = 6.0;  // wide confirmation window
  a.session = HeartbeatSession::Create(&net, pa, options, nullptr);
  b.session = HeartbeatSession::Create(&net, pb, options, nullptr);
  RecordingListener listener;
  a.session->AddListener(&listener);
  a.session->Start();
  b.session->Start();

  net.RunFor(5 * options.period_us);
  ASSERT_EQ(a.session->HealthOf(pb), PeerHealth::kAlive);

  // Partition for 4 periods: long enough that suspicion definitely fired
  // (suspect timeout + one tick of rounding ≈ 2.5P), far inside the 6P
  // confirmation window — then heal.
  ASSERT_TRUE(net.SetFaultProfile(pa, pb, FaultProfile::Partition()).ok());
  net.RunFor(4 * options.period_us);
  EXPECT_EQ(a.session->HealthOf(pb), PeerHealth::kSuspect);
  ASSERT_TRUE(net.SetFaultProfile(pa, pb, FaultProfile()).ok());
  net.RunFor(3 * options.period_us);

  EXPECT_EQ(a.session->HealthOf(pb), PeerHealth::kAlive);
  HeartbeatSession::Counters counters = a.session->counters();
  EXPECT_EQ(counters.false_suspicions, 1u);
  EXPECT_EQ(counters.evictions, 0u);
  ASSERT_GE(listener.events.size(), 2u);
  EXPECT_EQ(listener.events[0], std::make_pair('S', pb.value));
  EXPECT_EQ(listener.events[1], std::make_pair('R', pb.value));
}

TEST(HeartbeatSessionTest, StaleBeaconDoesNotResurrectOrRefresh) {
  Network net;
  MemberHarness a, b;
  PeerId pa = net.Join("a", &a);
  PeerId pb = net.Join("b", &b);
  ASSERT_TRUE(net.OpenPipe(pa, pb, LinkProfile::Lan()).ok());

  MembershipOptions options = FastMembership();
  MembershipOptions old_b = options;
  old_b.incarnation = 3;
  a.session = HeartbeatSession::Create(&net, pa, options, nullptr);
  b.session = HeartbeatSession::Create(&net, pb, old_b, nullptr);
  a.session->Start();
  b.session->Start();
  net.RunFor(3 * options.period_us);
  ASSERT_EQ(a.session->HealthOf(pb), PeerHealth::kAlive);

  // Forge a beacon from b with an older incarnation (a straggler from
  // before its last restart): rejected, not counted as a sign of life.
  uint64_t before = a.session->counters().stale_rejected;
  HeartbeatPayload stale;
  stale.incarnation = 2;
  stale.seq = 1;
  stale.send_time_us = net.now_us();
  Message forged;
  forged.src = pb;
  forged.dst = pa;
  forged.type = MessageType::kHeartbeat;
  forged.payload = stale.Serialize();
  a.session->HandleBeacon(forged);
  EXPECT_EQ(a.session->counters().stale_rejected, before + 1);
}

TEST(HeartbeatSessionTest, RefutesGossipedDeathByBumpingIncarnation) {
  Network net;
  MemberHarness a, b;
  PeerId pa = net.Join("a", &a);
  PeerId pb = net.Join("b", &b);
  ASSERT_TRUE(net.OpenPipe(pa, pb, LinkProfile::Lan()).ok());

  MembershipOptions options = FastMembership();
  a.session = HeartbeatSession::Create(&net, pa, options, nullptr);
  b.session = HeartbeatSession::Create(&net, pb, options, nullptr);
  a.session->Start();
  b.session->Start();
  net.RunFor(3 * options.period_us);

  // b's beacon gossips "a (incarnation 1) is dead". a is very much
  // alive: it refutes by bumping its own incarnation above the claim.
  ASSERT_EQ(a.session->incarnation(), 1u);
  HeartbeatPayload rumor;
  rumor.incarnation = 1;
  rumor.seq = 99;
  rumor.send_time_us = net.now_us();
  rumor.digest.push_back(
      HeartbeatDigestEntry{pa.value, 1, PeerHealth::kDead});
  Message forged;
  forged.src = pb;
  forged.dst = pa;
  forged.type = MessageType::kHeartbeat;
  forged.payload = rumor.Serialize();
  a.session->HandleBeacon(forged);
  EXPECT_EQ(a.session->incarnation(), 2u);
}

// -- eviction fan-out through a full node -------------------------------------

TEST(MembershipNodeTest, EvictionCancelsRetransmissionsAndUnblocksUpdate) {
  WorkloadOptions workload;
  workload.nodes = 3;
  workload.tuples_per_node = 4;
  GeneratedNetwork generated = MakeChain(workload);

  Testbed::Options options;
  options.membership = true;
  options.membership_options.period_us = 200'000;
  // A huge retransmission backoff: if eviction did NOT cancel pending
  // retransmissions, the flow below could only finish through the full
  // retry budget, far past the RunFor window.
  options.node.reliability.enabled = true;
  options.node.reliability.retransmit_base_us = 30'000'000;
  options.node.reliability.max_retries = 5;

  Result<std::unique_ptr<Testbed>> testbed =
      Testbed::Create(generated, options);
  ASSERT_TRUE(testbed.ok()) << testbed.status().ToString();
  Testbed& bed = *testbed.value();
  NetworkBase& net = bed.network();

  // Let everyone track everyone, then silently kill the chain's tail.
  net.RunFor(5 * options.membership_options.period_us);
  PeerId dead = bed.node("n2")->id();
  ASSERT_TRUE(bed.SilentKillNode("n2").ok());

  // Start an update and a query immediately: n1 has in-flight traffic
  // toward n2, in both managers, that will never be acked.
  Result<FlowId> update = bed.node("n0")->StartGlobalUpdate();
  ASSERT_TRUE(update.ok());
  Result<FlowId> query = bed.node("n0")->StartQuery(
      ParseQuery("q(K, V) :- d(K, V).").value());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // RunFor, never Run(): a bare Run() would drain the foreground queue
  // through the 30s retransmission timers, fast-forwarding virtual time
  // past the give-up window and defeating the point of the test. RunFor
  // delivers the update flood (sub-millisecond) and the beacon ticks in
  // time order, stopping long before the first retransmission.
  net.RunFor(10 * options.membership_options.period_us);

  EXPECT_FALSE(bed.node("n1")->IsPresumedAlive(dead));
  // The moment n2 was evicted, n1 dropped its unacked messages toward it
  // (no waiting out the 30s retransmission timer) and cancelled the
  // matching termination deficits, so the update completed.
  EXPECT_EQ(bed.node("n1")->update_manager()->PendingReliable(), 0u);
  EXPECT_EQ(bed.node("n1")->query_manager()->PendingReliable(), 0u);
  EXPECT_TRUE(bed.AllComplete(update.value()));
  EXPECT_TRUE(bed.node("n0")->QueryDone(query.value()));
  EXPECT_GE(bed.node("n1")->membership()->counters().evictions, 1u);
}

}  // namespace
}  // namespace codb
