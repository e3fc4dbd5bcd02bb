// Robustness tests: nodes must survive malformed payloads, unexpected
// message kinds, stray protocol traffic, and randomized fuzz without
// crashing or corrupting their stores; and the algorithms must stay
// correct under heterogeneous and extreme link profiles.

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "query/homomorphism.h"
#include "util/random.h"
#include "workload/testbed.h"

namespace codb {
namespace {

// Sends a raw message from a fresh peer wired to the target node.
class RawSender : public NetworkPeer {
 public:
  void HandleMessage(const Message&) override {}
};

TEST(RobustnessTest, MalformedPayloadsAreIgnored) {
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 3;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  RawSender sender;
  PeerId raw = bed.network().Join("fuzzer", &sender);
  ASSERT_TRUE(bed.network().OpenPipe(raw, bed.node("n0")->id()).ok());

  // Tag 10 was the retired full-config broadcast: an unknown tag from the
  // wire must be dropped like any other junk.
  const MessageType kinds[] = {
      MessageType::kAdvertisement,  static_cast<MessageType>(10),
      MessageType::kUpdateRequest,  MessageType::kUpdateData,
      MessageType::kLinkClosed,     MessageType::kUpdateAck,
      MessageType::kUpdateComplete, MessageType::kQueryRequest,
      MessageType::kQueryResult,    MessageType::kQueryDone,
      MessageType::kStatsRequest,   MessageType::kStatsReport,
      MessageType::kConfigSlice,    MessageType::kConfigDelta,
      MessageType::kConfigFetch,    MessageType::kConfigAck,
  };
  Rng rng(99);
  for (MessageType type : kinds) {
    for (size_t size : {0u, 1u, 7u, 64u}) {
      Message junk;
      junk.src = raw;
      junk.dst = bed.node("n0")->id();
      junk.type = type;
      for (size_t i = 0; i < size; ++i) {
        junk.payload.push_back(static_cast<uint8_t>(rng.Next()));
      }
      ASSERT_TRUE(bed.network().Send(junk).ok());
    }
  }
  bed.network().Run();

  // The node survived and still works end to end.
  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));
  EXPECT_EQ(bed.node("n0")->database().Find("d")->size(), 6u);
}

TEST(RobustnessTest, StrayProtocolMessagesForUnknownFlows) {
  WorkloadOptions options;
  options.nodes = 2;
  options.tuples_per_node = 2;
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  PeerId n0 = bed.node("n0")->id();
  PeerId n1 = bed.node("n1")->id();

  // A LinkClosed for an update nobody started: the node joins defensively
  // and the stray flow still terminates.
  LinkClosedPayload stray{{FlowId::Scope::kUpdate, 55, 99}, "r0"};
  ASSERT_TRUE(bed.network()
                  .Send(MakeMessage(n1, n0, MessageType::kLinkClosed,
                                    stray.Serialize()))
                  .ok());
  // An ack nobody asked for.
  AckPayload ack{{FlowId::Scope::kQuery, 1, 2}};
  ASSERT_TRUE(bed.network()
                  .Send(MakeMessage(n1, n0, MessageType::kUpdateAck,
                                    ack.Serialize()))
                  .ok());
  // Update data for an unknown rule.
  UpdateDataPayload data;
  data.update = {FlowId::Scope::kUpdate, 55, 100};
  data.rule_id = "ghost-rule";
  data.path = {n1.value};
  ASSERT_TRUE(bed.network()
                  .Send(MakeMessage(n1, n0, MessageType::kUpdateData,
                                    data.Serialize()))
                  .ok());
  bed.network().Run();

  // Still fully functional.
  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));
}

class LatencyFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatencyFuzzSweep, HeterogeneousLatenciesPreserveCorrectness) {
  // Randomize every pipe's latency/bandwidth, reordering deliveries
  // across pipes; the update must still match the oracle (chains and
  // rings have unique derivations, so exact agreement is required).
  WorkloadOptions options;
  options.nodes = 6;
  options.tuples_per_node = 4;
  options.seed = GetParam();
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Rng rng(GetParam());
  for (const auto& a : bed.nodes()) {
    for (const auto& b : bed.nodes()) {
      if (a->id().value >= b->id().value) continue;
      if (!bed.network().HasPipe(a->id(), b->id())) continue;
      LinkProfile profile;
      profile.latency_us = static_cast<int64_t>(rng.Uniform(50'000)) + 1;
      profile.bandwidth_bpus = 0.1 + rng.UniformDouble() * 100.0;
      ASSERT_TRUE(
          bed.network().OpenPipe(a->id(), b->id(), profile).ok());
    }
  }

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));

  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, generated.seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = bed.Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "node " << node << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyFuzzSweep,
                         ::testing::Values(3u, 17u, 23u, 101u, 999u));

TEST(RobustnessTest, ZeroDataNetworkCompletesCleanly) {
  WorkloadOptions options;
  options.nodes = 4;
  options.tuples_per_node = 0;  // nothing to move
  GeneratedNetwork generated = MakeChain(options);
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.AllComplete(update.value()));
  EXPECT_EQ(bed.network().stats().MessagesOfType(MessageType::kUpdateData),
            0u);
}

TEST(RobustnessTest, SingleNodeNetworkUpdatesInstantly) {
  WorkloadOptions options;
  options.nodes = 1;
  options.tuples_per_node = 5;
  GeneratedNetwork generated = MakeChain(options);  // no rules
  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> update = bed.RunGlobalUpdate("n0");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(bed.node("n0")->update_manager()->IsComplete(update.value()));
}

TEST(RobustnessTest, ConcurrentUpdatesFromDifferentInitiators) {
  // Two updates in flight simultaneously: both terminate, final state is
  // the same as running either alone (idempotent data migration).
  WorkloadOptions options;
  options.nodes = 5;
  options.tuples_per_node = 4;
  GeneratedNetwork generated = MakeRing(options);

  Result<std::unique_ptr<Testbed>> testbed = Testbed::Create(generated);
  ASSERT_TRUE(testbed.ok());
  Testbed& bed = *testbed.value();

  Result<FlowId> first = bed.node("n0")->StartGlobalUpdate();
  Result<FlowId> second = bed.node("n2")->StartGlobalUpdate();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  bed.network().Run();

  EXPECT_TRUE(bed.AllComplete(first.value()));
  EXPECT_TRUE(bed.AllComplete(second.value()));

  Result<NetworkInstance> oracle =
      Oracle::PathBounded(generated.config, generated.seeds);
  ASSERT_TRUE(oracle.ok());
  NetworkInstance actual = bed.Snapshot();
  for (const auto& [node, instance] : oracle.value()) {
    EXPECT_EQ(CertainPart(instance), CertainPart(actual.at(node)))
        << "node " << node;
  }
}

}  // namespace
}  // namespace codb
