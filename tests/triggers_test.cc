// Broadcasting and dynamic event triggers — the paper's Section 6 future
// work, implemented on the interaction server.

#include <gtest/gtest.h>

#include "doc/builder.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace mmconf::server {
namespace {

class TriggersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    server_node_ = network_->AddNode("server");
    db_node_ = network_->AddNode("db");
    client1_ = network_->AddNode("c1");
    client2_ = network_->AddNode("c2");
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, db_node_, {50e6, 500}).ok());
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, client1_, {1e6, 1000}).ok());
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, client2_, {1e6, 1000}).ok());
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    transport_ = std::make_unique<net::ReliableTransport>(network_.get());
    server_ = std::make_unique<InteractionServer>(&db_, transport_.get(),
                                                  server_node_, db_node_);
    loop_ = std::make_unique<sim::Loop>(transport_.get());
    loop_->Register(server_.get());
    server_
        ->OpenRoomWithDocument("room",
                               doc::MakeMedicalRecordDocument().value())
        .value();
    server_->Join("room", {"alice", client1_}).value();
    server_->Join("room", {"bob", client2_}).value();
    loop_->Drain();
  }

  Clock clock_;
  storage::DatabaseServer db_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  std::unique_ptr<InteractionServer> server_;
  std::unique_ptr<sim::Loop> loop_;
  net::NodeId server_node_ = 0, db_node_ = 0, client1_ = 0, client2_ = 0;
};

TEST_F(TriggersTest, BroadcastReachesEveryMember) {
  size_t to_1 = network_->BytesSent(server_node_, client1_);
  size_t to_2 = network_->BytesSent(server_node_, client2_);
  MicrosT delivered =
      server_->Broadcast("room", "announcement", 5000).value();
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(network_->BytesSent(server_node_, client1_), to_1 + 5000);
  EXPECT_EQ(network_->BytesSent(server_node_, client2_), to_2 + 5000);
  EXPECT_TRUE(server_->Broadcast("ghost", "x", 1).status().IsNotFound());
}

TEST_F(TriggersTest, TriggerFiresOnMatchingActionOnly) {
  int choice_fires = 0;
  int freeze_fires = 0;
  server_->RegisterTrigger(
      ActionType::kChoice,
      [&](InteractionServer&, Room&, const UserAction& action) {
        ++choice_fires;
        EXPECT_EQ(action.component, "CT");
      });
  server_->RegisterTrigger(
      ActionType::kFreeze,
      [&](InteractionServer&, Room&, const UserAction&) {
        ++freeze_fires;
      });
  server_->SubmitChoice("room", "alice", "CT", "hidden").value();
  EXPECT_EQ(choice_fires, 1);
  EXPECT_EQ(freeze_fires, 0);
}

TEST_F(TriggersTest, TriggerCanBroadcast) {
  // The "new finding" pattern: whenever someone segments an image, the
  // server broadcasts a notification to the whole room.
  server_->RegisterTrigger(
      ActionType::kSegmentOp,
      [](InteractionServer& server, Room& room, const UserAction&) {
        server.Broadcast(room.id(), "segmentation-alert", 256).value();
      });
  size_t before = server_->bytes_propagated();
  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "alice";
  op.component = "CT";
  server_->ApplyOperation("room", op, true).value();
  // 2 members x 256 broadcast bytes on top of any delta propagation.
  EXPECT_GE(server_->bytes_propagated(), before + 512);
}

TEST_F(TriggersTest, RemoveTriggerStopsFiring) {
  int fires = 0;
  int id = server_->RegisterTrigger(
      ActionType::kChoice,
      [&](InteractionServer&, Room&, const UserAction&) { ++fires; });
  server_->SubmitChoice("room", "alice", "CT", "hidden").value();
  EXPECT_EQ(fires, 1);
  ASSERT_TRUE(server_->RemoveTrigger(id).ok());
  EXPECT_TRUE(server_->RemoveTrigger(id).IsNotFound());
  server_->SubmitChoice("room", "alice", "CT", "flat").value();
  EXPECT_EQ(fires, 1);
}

TEST_F(TriggersTest, SelfRemovingTriggerIsSafe) {
  int fires = 0;
  int id = 0;
  id = server_->RegisterTrigger(
      ActionType::kChoice,
      [&](InteractionServer& server, Room&, const UserAction&) {
        ++fires;
        server.RemoveTrigger(id).ok();  // one-shot trigger
      });
  server_->SubmitChoice("room", "alice", "CT", "hidden").value();
  server_->SubmitChoice("room", "alice", "CT", "flat").value();
  EXPECT_EQ(fires, 1);
}

TEST_F(TriggersTest, MultipleTriggersFireInRegistrationOrder) {
  std::vector<int> order;
  server_->RegisterTrigger(
      ActionType::kChoice,
      [&](InteractionServer&, Room&, const UserAction&) {
        order.push_back(1);
      });
  server_->RegisterTrigger(
      ActionType::kChoice,
      [&](InteractionServer&, Room&, const UserAction&) {
        order.push_back(2);
      });
  server_->SubmitChoice("room", "alice", "CT", "hidden").value();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

}  // namespace
}  // namespace mmconf::server
