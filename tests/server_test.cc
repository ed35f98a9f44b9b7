#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "doc/builder.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "server/room.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace mmconf::server {
namespace {

using doc::MakeMedicalRecordDocument;
using doc::MultimediaDocument;

std::unique_ptr<Room> MakeRoom() {
  return std::make_unique<Room>("consult-1",
                                MakeMedicalRecordDocument().value());
}

TEST(RoomTest, JoinAndLeave) {
  auto room = MakeRoom();
  EXPECT_TRUE(room->Join("dr-cohen").ok());
  EXPECT_TRUE(room->Join("dr-levi").ok());
  EXPECT_TRUE(room->Join("dr-cohen").IsAlreadyExists());
  EXPECT_TRUE(room->HasMember("dr-levi"));
  EXPECT_EQ(room->members().size(), 2u);
  EXPECT_TRUE(room->Leave("dr-levi").ok());
  EXPECT_FALSE(room->HasMember("dr-levi"));
  EXPECT_TRUE(room->Leave("dr-levi").status().IsNotFound());
}

TEST(RoomTest, InitialConfigurationIsDefault) {
  auto room = MakeRoom();
  EXPECT_EQ(room->configuration(),
            room->document().DefaultPresentation().value());
}

TEST(RoomTest, ChoiceReconfiguresAndReportsDelta) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  ReconfigResult result =
      room->SubmitChoice("dr-cohen", "CT", "hidden").value();
  // CT changed, and with it the XRay (surfaces) and the voice (summary).
  EXPECT_NE(std::find(result.changed_components.begin(),
                      result.changed_components.end(), "CT"),
            result.changed_components.end());
  EXPECT_NE(std::find(result.changed_components.begin(),
                      result.changed_components.end(), "XRay"),
            result.changed_components.end());
  EXPECT_GT(result.delta_cost_bytes, 0u);
  EXPECT_EQ(room->document()
                .PresentationFor(room->configuration(), "XRay")
                .value()
                .name,
            "flat");
}

TEST(RoomTest, ChoicesFromNonMemberRejected) {
  auto room = MakeRoom();
  EXPECT_TRUE(
      room->SubmitChoice("ghost", "CT", "hidden").status().IsNotFound());
}

TEST(RoomTest, InvalidChoiceLeavesStateUntouched) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  cpnet::Assignment before = room->configuration();
  EXPECT_TRUE(room->SubmitChoice("dr-cohen", "CT", "sepia")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(room->SubmitChoice("dr-cohen", "Ghost", "flat")
                  .status()
                  .IsNotFound());
  EXPECT_EQ(room->configuration(), before);
}

TEST(RoomTest, ReleasingChoiceRestoresDefault) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  room->SubmitChoice("dr-cohen", "CT", "hidden").value();
  ReconfigResult released =
      room->SubmitChoice("dr-cohen", "CT", "").value();
  EXPECT_EQ(released.configuration,
            room->document().DefaultPresentation().value());
}

TEST(RoomTest, LeaveDropsTheLeaversConstraints) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  ASSERT_TRUE(room->Join("dr-levi").ok());
  room->SubmitChoice("dr-levi", "CT", "hidden").value();
  ReconfigResult after_leave = room->Leave("dr-levi").value();
  EXPECT_EQ(after_leave.configuration,
            room->document().DefaultPresentation().value());
}

TEST(RoomTest, LatestSubmissionWinsAcrossViewers) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("alice").ok());
  ASSERT_TRUE(room->Join("zoe").ok());
  // zoe (later alphabetically) chooses first; alice overrides after.
  room->SubmitChoice("zoe", "CT", "thumbnail").value();
  ReconfigResult result =
      room->SubmitChoice("alice", "CT", "segmented").value();
  EXPECT_EQ(room->document()
                .PresentationFor(result.configuration, "CT")
                .value()
                .name,
            "segmented");
  // And the other direction: zoe re-overrides alice.
  result = room->SubmitChoice("zoe", "CT", "flat").value();
  EXPECT_EQ(room->document()
                .PresentationFor(result.configuration, "CT")
                .value()
                .name,
            "flat");
}

TEST(RoomTest, FreezeBlocksOtherPartners) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  ASSERT_TRUE(room->Join("dr-levi").ok());
  ASSERT_TRUE(room->Freeze("dr-cohen", "CT").ok());
  EXPECT_TRUE(room->IsFrozen("CT"));

  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "dr-levi";
  op.component = "CT";
  EXPECT_TRUE(
      room->ApplyOperation(op, true).status().IsFailedPrecondition());
  // The holder can operate.
  op.viewer = "dr-cohen";
  EXPECT_TRUE(room->ApplyOperation(op, true).ok());
  // Release and retry.
  EXPECT_TRUE(room->ReleaseFreeze("dr-levi", "CT").IsFailedPrecondition());
  EXPECT_TRUE(room->ReleaseFreeze("dr-cohen", "CT").ok());
  op.viewer = "dr-levi";
  EXPECT_TRUE(room->ApplyOperation(op, true).ok());
}

TEST(RoomTest, LeaveReleasesFreezes) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  ASSERT_TRUE(room->Freeze("dr-cohen", "CT").ok());
  room->Leave("dr-cohen").value();
  EXPECT_FALSE(room->IsFrozen("CT"));
}

TEST(RoomTest, GlobalOperationExtendsDocumentNet) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  size_t vars_before = room->document().num_variables();
  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "dr-cohen";
  op.component = "CT";
  room->ApplyOperation(op, /*globally_important=*/true).value();
  EXPECT_EQ(room->document().num_variables(), vars_before + 1);
  EXPECT_EQ(room->configuration().size(), vars_before + 1);
}

TEST(RoomTest, PrivateOperationGrowsOnlyOverlay) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  size_t vars_before = room->document().num_variables();
  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "dr-cohen";
  op.component = "CT";
  room->ApplyOperation(op, /*globally_important=*/false).value();
  EXPECT_EQ(room->document().num_variables(), vars_before);
  cpnet::ViewerOverlay* overlay = room->OverlayFor("dr-cohen").value();
  EXPECT_EQ(overlay->size(), 1u);
  // Other viewers have empty overlays.
  ASSERT_TRUE(room->Join("dr-levi").ok());
  EXPECT_EQ(room->OverlayFor("dr-levi").value()->size(), 0u);
}

TEST(RoomTest, ViewerAddsComponentOnline) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  size_t components_before = room->document().num_components();
  auto mri = std::make_unique<doc::PrimitiveMultimediaComponent>(
      "MRI", doc::ContentRef{"Image", 9, 262144},
      doc::ImagePresentations());
  ReconfigResult result =
      room->AddComponent("dr-cohen", "Imaging", std::move(mri)).value();
  EXPECT_EQ(room->document().num_components(), components_before + 1);
  // Structural change forces a full redisplay.
  EXPECT_GE(result.changed_components.size(), components_before);
  EXPECT_TRUE(room->document()
                  .PresentationFor(room->configuration(), "MRI")
                  .ok());
  // Non-members cannot mutate the document.
  auto pet = std::make_unique<doc::PrimitiveMultimediaComponent>(
      "PET", doc::ContentRef{"Image", 10, 1}, doc::ImagePresentations());
  EXPECT_TRUE(room->AddComponent("ghost", "Imaging", std::move(pet))
                  .status()
                  .IsNotFound());
}

TEST(RoomTest, ViewerRemovesComponentOnline) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  ASSERT_TRUE(room->Join("dr-levi").ok());
  // dr-levi pinned a choice on the CT; removal drops it.
  room->SubmitChoice("dr-levi", "CT", "segmented").value();
  ReconfigResult result =
      room->RemoveComponent("dr-cohen", "CT").value();
  EXPECT_TRUE(room->document().Find("CT").status().IsNotFound());
  // The configuration is a valid optimum of the shrunken document.
  EXPECT_EQ(result.configuration.size(),
            room->document().num_variables());
  // The X-ray surfaced (restricted to the CT-hidden context).
  EXPECT_EQ(room->document()
                .PresentationFor(room->configuration(), "XRay")
                .value()
                .name,
            "flat");
}

TEST(RoomTest, RemoveComponentRespectsFreeze) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  ASSERT_TRUE(room->Join("dr-levi").ok());
  ASSERT_TRUE(room->Freeze("dr-levi", "CT").ok());
  EXPECT_TRUE(room->RemoveComponent("dr-cohen", "CT")
                  .status()
                  .IsFailedPrecondition());
  // The holder may remove it; the freeze dies with the component.
  EXPECT_TRUE(room->RemoveComponent("dr-levi", "CT").ok());
  EXPECT_FALSE(room->IsFrozen("CT"));
}

TEST(RoomTest, OperationsOnCompositesRejected) {
  auto room = MakeRoom();
  ASSERT_TRUE(room->Join("dr-cohen").ok());
  UserAction op;
  op.type = ActionType::kZoom;
  op.viewer = "dr-cohen";
  op.component = "Imaging";
  EXPECT_TRUE(room->ApplyOperation(op, true).status().IsInvalidArgument());
}

TEST(RoomTest, ActionLogRecordsEverything) {
  auto room = MakeRoom();
  room->Join("dr-cohen").ok();
  room->SubmitChoice("dr-cohen", "CT", "hidden").value();
  room->Freeze("dr-cohen", "CT").ok();
  room->ReleaseFreeze("dr-cohen", "CT").ok();
  room->Leave("dr-cohen").value();
  ASSERT_EQ(room->action_log().size(), 5u);
  EXPECT_EQ(room->action_log()[0].type, ActionType::kJoin);
  EXPECT_EQ(room->action_log()[1].type, ActionType::kChoice);
  EXPECT_EQ(room->action_log()[2].type, ActionType::kFreeze);
  EXPECT_EQ(room->action_log()[3].type, ActionType::kReleaseFreeze);
  EXPECT_EQ(room->action_log()[4].type, ActionType::kLeave);
}

// --- InteractionServer over storage + network ---

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    server_node_ = network_->AddNode("interaction-server");
    db_node_ = network_->AddNode("oracle");
    client1_ = network_->AddNode("client-1");
    client2_ = network_->AddNode("client-2");
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, db_node_, {50e6, 1000}).ok());
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, client1_, {1e6, 20000}).ok());
    ASSERT_TRUE(network_
                    ->SetDuplexLink(server_node_, client2_,
                                    {128e3, 50000})  // slow client
                    .ok());
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    // A short retry budget, so a partitioned member is evicted within a
    // second of virtual time.
    net::RetryPolicy policy;
    policy.initial_timeout_micros = 100000;
    policy.backoff_factor = 2.0;
    policy.max_timeout_micros = 400000;
    policy.max_attempts = 3;
    transport_ =
        std::make_unique<net::ReliableTransport>(network_.get(), policy);
    server_ = std::make_unique<InteractionServer>(&db_, transport_.get(),
                                                  server_node_, db_node_);
    loop_ = std::make_unique<sim::Loop>(transport_.get());
    loop_->Register(server_.get());
  }

  Clock clock_;
  storage::DatabaseServer db_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  std::unique_ptr<InteractionServer> server_;
  std::unique_ptr<sim::Loop> loop_;
  net::NodeId server_node_ = 0, db_node_ = 0, client1_ = 0, client2_ = 0;
};

TEST_F(ServerTest, StoreAndOpenRoomRoundTrip) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref =
      server_->StoreDocument(document, "patient-17").value();
  Room* room = server_->OpenRoom("consult", ref).value();
  EXPECT_EQ(room->document().num_components(), 10u);
  EXPECT_TRUE(server_->OpenRoom("consult", ref).status().IsAlreadyExists());
  EXPECT_EQ(server_->num_rooms(), 1u);
  EXPECT_TRUE(server_->CloseRoom("consult").ok());
  EXPECT_TRUE(server_->CloseRoom("consult").IsNotFound());
}

TEST_F(ServerTest, JoinDeliversInitialContent) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref =
      server_->StoreDocument(document, "patient-17").value();
  server_->OpenRoom("consult", ref).value();
  MicrosT fast = server_->Join("consult", {"dr-cohen", client1_}).value();
  MicrosT slow = server_->Join("consult", {"dr-levi", client2_}).value();
  EXPECT_GT(fast, 0);
  EXPECT_GT(slow, fast);  // slow downlink -> later delivery
  EXPECT_GT(server_->bytes_propagated(), 0u);
}

TEST_F(ServerTest, ChoicePropagatesToOtherMembersOnly) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server_->StoreDocument(document, "p").value();
  server_->OpenRoom("consult", ref).value();
  server_->Join("consult", {"dr-cohen", client1_}).value();
  server_->Join("consult", {"dr-levi", client2_}).value();
  loop_->Drain();
  size_t to_1_before = network_->BytesSent(server_node_, client1_);
  size_t to_2_before = network_->BytesSent(server_node_, client2_);

  ReconfigResult result =
      server_->SubmitChoice("consult", "dr-cohen", "CT", "hidden").value();
  EXPECT_FALSE(result.changed_components.empty());
  // The originator already applied the change locally; only dr-levi
  // receives the delta.
  EXPECT_EQ(network_->BytesSent(server_node_, client1_), to_1_before);
  EXPECT_GT(network_->BytesSent(server_node_, client2_), to_2_before);
}

TEST_F(ServerTest, OperationPropagates) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server_->StoreDocument(document, "p").value();
  server_->OpenRoom("consult", ref).value();
  server_->Join("consult", {"dr-cohen", client1_}).value();
  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "dr-cohen";
  op.component = "CT";
  EXPECT_TRUE(server_->ApplyOperation("consult", op, true).ok());
  EXPECT_TRUE(server_->ApplyOperation("ghost-room", op, true)
                  .status()
                  .IsNotFound());
}

TEST_F(ServerTest, SlowClientsReceiveTranscodedPayloads) {
  // client1_ is a 1 MB/s (high) link, client2_ 128 KB/s (still high);
  // rewire client2_ to 8 KB/s (low) to exercise §4.4 transcoding.
  ASSERT_TRUE(
      network_->SetDuplexLink(server_node_, client2_, {8e3, 50000}).ok());
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server_->StoreDocument(document, "p").value();
  server_->OpenRoom("consult", ref).value();
  server_->Join("consult", {"fast-doc", client1_}).value();
  server_->Join("consult", {"slow-doc", client2_}).value();
  loop_->Drain();
  size_t fast_initial = network_->BytesSent(server_node_, client1_);
  size_t slow_initial = network_->BytesSent(server_node_, client2_);
  // The slow client's rendition of the same shared view is much smaller.
  EXPECT_LT(slow_initial, fast_initial / 4);
  EXPECT_GT(slow_initial, 0u);

  // Deltas transcode too: a third (fast) member makes a change; both
  // others get it, sized per link.
  net::NodeId third = network_->AddNode("third");
  ASSERT_TRUE(
      network_->SetDuplexLink(server_node_, third, {10e6, 1000}).ok());
  server_->Join("consult", {"third-doc", third}).value();
  loop_->Drain();
  size_t fast_before = network_->BytesSent(server_node_, client1_);
  size_t slow_before = network_->BytesSent(server_node_, client2_);
  server_->SubmitChoice("consult", "third-doc", "CT", "hidden").value();
  size_t fast_delta =
      network_->BytesSent(server_node_, client1_) - fast_before;
  size_t slow_delta =
      network_->BytesSent(server_node_, client2_) - slow_before;
  EXPECT_GT(fast_delta, 0u);
  EXPECT_GT(slow_delta, 0u);
  EXPECT_LT(slow_delta, fast_delta);
}

TEST_F(ServerTest, PartitionMidSessionRetriesThenEvictsAfterCap) {
  net::NodeId third = network_->AddNode("client-3");
  ASSERT_TRUE(
      network_->SetDuplexLink(server_node_, third, {1e6, 20000}).ok());
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server_->StoreDocument(document, "p").value();
  server_->OpenRoom("consult", ref).value();
  server_->Join("consult", {"dr-cohen", client1_}).value();
  server_->Join("consult", {"dr-levi", client2_}).value();
  server_->Join("consult", {"dr-gold", third}).value();
  loop_->Drain();
  ASSERT_TRUE(server_->RoomConverged("consult"));

  // dr-levi pins a choice, then their site drops off the network.
  server_->SubmitChoice("consult", "dr-levi", "CT", "hidden").value();
  loop_->Drain();
  network_->Partition(server_node_, client2_);

  // A change mid-partition succeeds immediately, and the unreachable
  // member is NOT evicted yet.
  ASSERT_TRUE(
      server_->SubmitChoice("consult", "dr-cohen", "CT", "thumbnail").ok());
  Room* room = server_->GetRoom("consult").value();
  EXPECT_TRUE(room->HasMember("dr-levi"));

  // Pumping the transport burns dr-levi's retry budget, then evicts.
  loop_->Drain();
  EXPECT_FALSE(room->HasMember("dr-levi"));
  EXPECT_TRUE(room->HasMember("dr-cohen"));
  EXPECT_TRUE(room->HasMember("dr-gold"));

  // The failed channel consumed its whole budget.
  net::ChannelStats to_levi = transport_->StatsFor(server_node_, client2_);
  EXPECT_EQ(to_levi.failed, 1u);
  EXPECT_EQ(to_levi.attempts, to_levi.acked + 3u);
  RoomReliabilityStats stats = server_->RoomStats("consult").value();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_GE(stats.retries, 2u);

  // Survivors converged: every message to them was acked, and the room
  // settled on dr-cohen's (latest) choice once dr-levi's pin died.
  EXPECT_TRUE(server_->RoomConverged("consult"));
  EXPECT_EQ(transport_->in_flight(), 0u);
  EXPECT_EQ(transport_->StatsFor(server_node_, client1_).failed, 0u);
  EXPECT_EQ(transport_->StatsFor(server_node_, third).failed, 0u);
  EXPECT_EQ(room->document()
                .PresentationFor(room->configuration(), "CT")
                .value()
                .name,
            "thumbnail");
}

TEST_F(ServerTest, JoinOverDownLinkReturnsLinkDownEtaThenEvicts) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server_->StoreDocument(document, "p").value();
  server_->OpenRoom("consult", ref).value();
  server_->Join("consult", {"dr-cohen", client1_}).value();
  loop_->Drain();

  // dr-levi joins while their site is off the network: the member is in
  // the room, but their initial content has no delivery estimate yet.
  network_->Partition(server_node_, client2_);
  EXPECT_EQ(server_->Join("consult", {"dr-levi", client2_}).value(),
            net::kEtaLinkDown);
  Room* room = server_->GetRoom("consult").value();
  EXPECT_TRUE(room->HasMember("dr-levi"));

  // The content burns its retry budget against the dead link; then the
  // member is evicted and the other member stays.
  loop_->Drain();
  EXPECT_FALSE(room->HasMember("dr-levi"));
  EXPECT_TRUE(room->HasMember("dr-cohen"));
  EXPECT_EQ(server_->RoomStats("consult").value().evictions, 1u);
  EXPECT_TRUE(server_->RoomConverged("consult"));
}

/// Counters collected from one seeded lossy-room run, compared across
/// runs to pin down determinism.
struct LossyRunOutcome {
  size_t members = 0;
  size_t failed = 0;
  size_t retries = 0;
  size_t duplicates_suppressed = 0;
  size_t dropped_on_wire = 0;
  size_t duplicated_on_wire = 0;
  std::vector<size_t> client_deliveries;
  std::string final_ct;
  MicrosT finished_at = 0;

  bool operator==(const LossyRunOutcome&) const = default;
};

LossyRunOutcome RunLossyRoom(uint64_t seed) {
  Clock clock;
  net::Network network(&clock, seed);
  net::NodeId server_node = network.AddNode("server");
  net::NodeId db_node = network.AddNode("db");
  network.SetDuplexLink(server_node, db_node, {50e6, 1000}).ok();
  std::vector<net::NodeId> clients;
  net::FaultSpec fault;
  fault.drop_probability = 0.2;
  fault.duplicate_probability = 0.2;
  fault.jitter_micros = 2000;
  for (int i = 0; i < 3; ++i) {
    net::NodeId node = network.AddNode("client-" + std::to_string(i));
    network.SetDuplexLink(server_node, node, {1e6, 20000}).ok();
    network.SetDuplexFault(server_node, node, fault).ok();
    clients.push_back(node);
  }
  net::RetryPolicy policy;
  policy.initial_timeout_micros = 150000;
  policy.max_attempts = 8;  // generous: nothing should fail at 20% loss
  net::ReliableTransport transport(&network, policy);
  storage::DatabaseServer db;
  db.RegisterStandardTypes().ok();
  InteractionServer server(&db, &transport, server_node, db_node);
  sim::Loop loop(&transport);
  loop.Register(&server);

  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server.StoreDocument(document, "p").value();
  server.OpenRoom("consult", ref).value();
  std::vector<net::Delivery> all;
  auto pump = [&] {
    std::vector<net::Delivery> batch = loop.Drain();
    all.insert(all.end(), batch.begin(), batch.end());
  };
  for (int i = 0; i < 3; ++i) {
    server.Join("consult", {"dr-" + std::to_string(i), clients[i]}).value();
  }
  pump();
  server.SubmitChoice("consult", "dr-0", "CT", "hidden").value();
  pump();
  server.SubmitChoice("consult", "dr-1", "CT", "thumbnail").value();
  pump();
  server.SubmitChoice("consult", "dr-2", "CT", "segmented").value();
  pump();

  LossyRunOutcome outcome;
  Room* room = server.GetRoom("consult").value();
  outcome.members = room->members().size();
  net::ChannelStats totals = transport.TotalStats();
  outcome.failed = totals.failed;
  outcome.retries = totals.retries;
  outcome.duplicates_suppressed = totals.duplicates_suppressed;
  net::FaultStats wire = network.TotalFaultStats();
  outcome.dropped_on_wire = wire.dropped;
  outcome.duplicated_on_wire = wire.duplicated;
  for (net::NodeId client : clients) {
    size_t count = 0;
    for (const net::Delivery& delivery : all) {
      if (delivery.to == client) ++count;
    }
    outcome.client_deliveries.push_back(count);
  }
  outcome.final_ct = room->document()
                         .PresentationFor(room->configuration(), "CT")
                         .value()
                         .name;
  outcome.finished_at = clock.NowMicros();
  return outcome;
}

TEST(ServerReliabilityTest, LossyLinksConvergeDeterministically) {
  LossyRunOutcome outcome = RunLossyRoom(/*seed=*/20020731);
  // Nobody was evicted: every message survived 20% drop + duplication
  // via retries, and each member saw the full change history exactly
  // once (initial content + the two rounds they did not originate).
  EXPECT_EQ(outcome.members, 3u);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_GT(outcome.retries, 0u);
  ASSERT_EQ(outcome.client_deliveries.size(), 3u);
  for (size_t deliveries : outcome.client_deliveries) {
    EXPECT_EQ(deliveries, 3u);
  }
  EXPECT_EQ(outcome.final_ct, "segmented");

  // The same seed reproduces every counter bit-for-bit.
  EXPECT_EQ(RunLossyRoom(20020731), outcome);
  // A different seed gives a different loss pattern (sanity check that
  // the fault model is actually live).
  LossyRunOutcome other = RunLossyRoom(7);
  EXPECT_EQ(other.members, 3u);
  EXPECT_NE(other.finished_at, outcome.finished_at);
}

TEST_F(ServerTest, LeaveReoptimizesForRemainingMembers) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server_->StoreDocument(document, "p").value();
  server_->OpenRoom("consult", ref).value();
  server_->Join("consult", {"dr-cohen", client1_}).value();
  server_->Join("consult", {"dr-levi", client2_}).value();
  server_->SubmitChoice("consult", "dr-levi", "CT", "hidden").value();
  ASSERT_TRUE(server_->Leave("consult", "dr-levi").ok());
  Room* room = server_->GetRoom("consult").value();
  EXPECT_EQ(room->configuration(),
            room->document().DefaultPresentation().value());
}

}  // namespace
}  // namespace mmconf::server
