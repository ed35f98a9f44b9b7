#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "net/network.h"
#include "net/reliable.h"
#include "sim/loop.h"

namespace mmconf::sim {
namespace {

/// A participant that consumes deliveries and claims failures whose tag
/// starts with one of its prefixes, records everything it is shown, and
/// — when given a send plan — sends one message per pump at a fixed
/// pacing, like a stream scheduler.
class Stub : public Participant {
 public:
  explicit Stub(std::vector<std::string> prefixes)
      : prefixes_(std::move(prefixes)) {}

  /// From the first pump at or after `first_at`, sends `count` messages
  /// tagged "<prefix><i>" from `from` to `to`, `interval` apart.
  void PlanSends(net::ReliableTransport* transport, net::NodeId from,
                 net::NodeId to, int count, MicrosT first_at,
                 MicrosT interval) {
    transport_ = transport;
    from_ = from;
    to_ = to;
    remaining_ = count;
    next_send_at_ = first_at;
    interval_ = interval;
  }

  MicrosT NextActionAt(MicrosT now) const override {
    if (wake_at_ >= 0) return wake_at_;
    if (remaining_ > 0) return std::max(now, next_send_at_);
    return -1;
  }

  bool Offer(const net::Delivery& delivery) override {
    offered.push_back(delivery.tag);
    if (!Mine(delivery.tag)) return false;
    consumed.push_back(delivery.tag);
    return true;
  }

  Result<size_t> Pump(MicrosT now) override {
    pumped_at.push_back(now);
    if (wake_at_ >= 0 && now >= wake_at_) wake_at_ = -1;
    if (remaining_ == 0 || now < next_send_at_) return size_t{0};
    std::string tag = prefixes_.front() + std::to_string(sent_++);
    MMCONF_RETURN_IF_ERROR(transport_->Send(from_, to_, 100, tag).status());
    --remaining_;
    next_send_at_ = now + interval_;
    return size_t{1};
  }

  bool OnFailure(const net::FailedMessage& failure) override {
    failures_offered.push_back(failure.tag);
    return Mine(failure.tag);
  }

  /// A one-off timer: NextActionAt reports `at` until a pump reaches it.
  void WakeAt(MicrosT at) { wake_at_ = at; }

  std::vector<std::string> offered;
  std::vector<std::string> consumed;
  std::vector<std::string> failures_offered;
  std::vector<MicrosT> pumped_at;

 private:
  bool Mine(const std::string& tag) const {
    for (const std::string& prefix : prefixes_) {
      if (tag.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  std::vector<std::string> prefixes_;
  MicrosT wake_at_ = -1;
  net::ReliableTransport* transport_ = nullptr;
  net::NodeId from_ = 0, to_ = 0;
  int remaining_ = 0;
  int sent_ = 0;
  MicrosT next_send_at_ = 0;
  MicrosT interval_ = 0;
};

class LoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    a_ = network_->AddNode("a");
    b_ = network_->AddNode("b");
    c_ = network_->AddNode("c");
    ASSERT_TRUE(network_->SetDuplexLink(a_, b_, {1e6, 5000}).ok());
    ASSERT_TRUE(network_->SetDuplexLink(a_, c_, {1e6, 5000}).ok());
    net::RetryPolicy policy;
    policy.initial_timeout_micros = 50000;
    policy.max_attempts = 3;
    transport_ =
        std::make_unique<net::ReliableTransport>(network_.get(), policy);
    loop_ = std::make_unique<Loop>(transport_.get());
  }

  void Send(net::NodeId to, const std::string& tag) {
    ASSERT_TRUE(transport_->Send(a_, to, 100, tag).ok());
  }

  Clock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  std::unique_ptr<Loop> loop_;
  net::NodeId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(LoopTest, DeliveryGoesToFirstConsumerAndLeftoversKeepArrivalOrder) {
  Stub first({"x:"});
  Stub second({"x:", "y:"});
  loop_->Register(&first);
  loop_->Register(&second);
  // One link, so arrival order is send order.
  for (const char* tag : {"x:1", "z:1", "y:1", "z:2", "x:2"}) Send(b_, tag);

  std::vector<net::Delivery> rest = loop_->Settle().value();

  EXPECT_EQ(first.consumed, (std::vector<std::string>{"x:1", "x:2"}));
  // The second participant also wants x: tags, but never sees them.
  EXPECT_EQ(second.offered, (std::vector<std::string>{"z:1", "y:1", "z:2"}));
  EXPECT_EQ(second.consumed, (std::vector<std::string>{"y:1"}));
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].tag, "z:1");
  EXPECT_EQ(rest[1].tag, "z:2");
}

TEST_F(LoopTest, FailureGoesToFirstClaimant) {
  Stub first({"x:"});
  Stub second({"x:", "y:"});
  Stub third({""});  // claims anything that reaches it
  loop_->Register(&first);
  loop_->Register(&second);
  loop_->Register(&third);
  network_->Partition(a_, b_);
  Send(b_, "x:1");
  Send(b_, "y:1");
  Send(b_, "z:1");

  ASSERT_TRUE(loop_->Settle().value().empty());

  EXPECT_EQ(first.failures_offered,
            (std::vector<std::string>{"x:1", "y:1", "z:1"}));
  EXPECT_EQ(second.failures_offered, (std::vector<std::string>{"y:1", "z:1"}));
  EXPECT_EQ(third.failures_offered, (std::vector<std::string>{"z:1"}));
}

TEST_F(LoopTest, UnregisteredParticipantIsNoLongerDriven) {
  Stub gone({"x:"});
  Stub kept({"y:"});
  loop_->Register(&gone);
  loop_->Register(&kept);
  loop_->Unregister(&gone);
  Send(b_, "x:1");
  Send(b_, "y:1");

  std::vector<net::Delivery> rest = loop_->Settle().value();

  EXPECT_TRUE(gone.offered.empty());
  EXPECT_TRUE(gone.pumped_at.empty());
  EXPECT_EQ(kept.offered, (std::vector<std::string>{"x:1", "y:1"}));
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].tag, "x:1");
}

TEST_F(LoopTest, DrainOffersButNeverPumps) {
  Stub stub({"x:"});
  stub.PlanSends(transport_.get(), a_, b_, 3, 0, 10000);
  stub.WakeAt(1000);
  loop_->Register(&stub);
  Send(b_, "x:1");
  Send(b_, "z:1");

  std::vector<net::Delivery> rest = loop_->Drain();

  EXPECT_TRUE(stub.pumped_at.empty());
  EXPECT_EQ(stub.consumed, (std::vector<std::string>{"x:1"}));
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].tag, "z:1");
  EXPECT_EQ(transport_->in_flight(), 0u);
}

TEST_F(LoopTest, SettleAdvancesBeforeItPumps) {
  // The first pump happens at the first wake, never at the instant
  // Settle was called: a stream opened just before Settle sends its
  // first chunk one wake late. The chaos golden digests
  // (chaosbench/expected_digests.json) pin this order; a caller that
  // needs the first send now calls Pump() first.
  Stub stub({"x:"});
  stub.WakeAt(20000);
  loop_->Register(&stub);

  ASSERT_TRUE(loop_->Settle().ok());

  ASSERT_FALSE(stub.pumped_at.empty());
  EXPECT_EQ(stub.pumped_at.front(), 20000);
  EXPECT_EQ(clock_.NowMicros(), 20000);
}

TEST_F(LoopTest, PumpReachesEveryParticipantAtTheCurrentInstant) {
  Stub first({"x:"});
  Stub second({"y:"});
  loop_->Register(&first);
  loop_->Register(&second);
  clock_.AdvanceTo(7000);

  ASSERT_TRUE(loop_->Pump().ok());

  EXPECT_EQ(first.pumped_at, (std::vector<MicrosT>{7000}));
  EXPECT_EQ(second.pumped_at, (std::vector<MicrosT>{7000}));
}

TEST_F(LoopTest, ParticipantsSharingATransportNeverSeeEachOthersTraffic) {
  // Two paced senders on one transport, each consuming its own replies
  // at its own node. With a pump loop per participant, whichever pumped
  // the transport would swallow the other's deliveries; one Loop routes
  // each delivery to its owner.
  Stub to_b({"b:"});
  Stub to_c({"c:"});
  to_b.PlanSends(transport_.get(), a_, b_, 4, 0, 30000);
  to_c.PlanSends(transport_.get(), a_, c_, 3, 10000, 45000);
  loop_->Register(&to_b);
  loop_->Register(&to_c);

  ASSERT_TRUE(loop_->Pump().ok());
  std::vector<net::Delivery> rest = loop_->Settle().value();

  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(to_b.consumed,
            (std::vector<std::string>{"b:0", "b:1", "b:2", "b:3"}));
  EXPECT_EQ(to_c.consumed, (std::vector<std::string>{"c:0", "c:1", "c:2"}));
  for (const std::string& tag : to_c.offered) {
    EXPECT_EQ(tag.rfind("b:", 0), std::string::npos)
        << "b's delivery offered to c: " << tag;
  }
}

}  // namespace
}  // namespace mmconf::sim
