#include "sim/loop.h"

#include <utility>

namespace mmconf::sim {

Loop::Loop(net::ReliableTransport* transport)
    : transport_(transport), network_(transport->network()) {
  transport_->SetFailureCallback([this](const net::FailedMessage& failure) {
    for (Participant* participant : participants_) {
      if (participant->OnFailure(failure)) return;
    }
  });
}

Loop::~Loop() { transport_->SetFailureCallback(nullptr); }

void Loop::Register(Participant* participant) {
  participants_.push_back(participant);
}

void Loop::Unregister(Participant* participant) {
  std::erase(participants_, participant);
}

bool Loop::Offer(const net::Delivery& delivery) {
  for (Participant* participant : participants_) {
    if (participant->Offer(delivery)) return true;
  }
  return false;
}

Result<size_t> Loop::PumpAt(MicrosT now) {
  size_t sent = 0;
  for (Participant* participant : participants_) {
    MMCONF_ASSIGN_OR_RETURN(size_t pumped, participant->Pump(now));
    sent += pumped;
  }
  return sent;
}

Status Loop::Pump() { return PumpAt(network_->clock()->NowMicros()).status(); }

Result<std::vector<net::Delivery>> Loop::Settle() {
  std::vector<net::Delivery> unconsumed;
  while (true) {
    MicrosT now = network_->clock()->NowMicros();
    MicrosT wake = -1;
    for (const Participant* participant : participants_) {
      MicrosT at = participant->NextActionAt(now);
      if (at >= 0 && (wake < 0 || at < wake)) wake = at;
    }
    std::vector<net::Delivery> batch = wake >= 0
                                           ? transport_->AdvanceTo(wake)
                                           : transport_->AdvanceUntilIdle();
    for (net::Delivery& delivery : batch) {
      if (!Offer(delivery)) unconsumed.push_back(std::move(delivery));
    }
    MMCONF_ASSIGN_OR_RETURN(size_t sent,
                            PumpAt(network_->clock()->NowMicros()));
    if (wake < 0 && batch.empty() && sent == 0 &&
        transport_->in_flight() == 0 && network_->pending() == 0) {
      return unconsumed;
    }
  }
}

std::vector<net::Delivery> Loop::Drain() {
  std::vector<net::Delivery> unconsumed;
  while (transport_->in_flight() > 0 || network_->pending() > 0) {
    std::vector<net::Delivery> batch = transport_->AdvanceUntilIdle();
    for (net::Delivery& delivery : batch) {
      if (!Offer(delivery)) unconsumed.push_back(std::move(delivery));
    }
    if (batch.empty()) break;  // failure callbacks sent nothing new
  }
  return unconsumed;
}

}  // namespace mmconf::sim
