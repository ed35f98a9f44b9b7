#ifndef MMCONF_SIM_LOOP_H_
#define MMCONF_SIM_LOOP_H_

#include <cstddef>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "net/network.h"
#include "net/reliable.h"

namespace mmconf::sim {

/// One reactive component on a shared ReliableTransport: an interaction
/// server's stream schedulers, a broadcast session's relay tree, a
/// replicated shard set. It never pumps the transport itself; the Loop
/// it is registered with does, and hands it what arrives.
class Participant {
 public:
  virtual ~Participant() = default;

  /// Earliest virtual time at or after `now` this participant needs to
  /// be pumped at (a stream deadline, a pacing slot), or -1 when it only
  /// reacts to deliveries.
  virtual MicrosT NextActionAt(MicrosT now) const = 0;

  /// Offered one application-level delivery; true when it was this
  /// participant's traffic (consumed), false to keep routing it.
  virtual bool Offer(const net::Delivery& delivery) = 0;

  /// Folds acks and sends whatever is due at `now`; returns how many
  /// messages (chunks, batches) it handed to the transport. An error
  /// fails the drive that pumped it.
  virtual Result<size_t> Pump(MicrosT now) = 0;

  /// A message whose retry budget ran out; true when it was this
  /// participant's to handle.
  virtual bool OnFailure(const net::FailedMessage& failure) = 0;
};

/// The one drive loop of a simulation (after the paper's interaction
/// server, which propagates every change "immediately" to the other
/// clients: here, at the next virtual instant the loop reaches). It owns
/// the pump of one shared ReliableTransport and its only failure
/// callback, and drives every registered Participant in registration
/// order:
///
///  - a delivery goes to the first participant whose Offer consumes it;
///    the rest come back to the caller in arrival order;
///  - a failure goes to the first participant whose OnFailure claims it;
///  - Pump reaches every participant, at one `now`.
///
/// Like everything here the loop owns no threads and no clock of its
/// own: virtual time is the transport's network clock, which the loop
/// moves only inside Settle and Drain.
class Loop {
 public:
  /// `transport` must outlive the loop. Installs the transport's failure
  /// callback (and clears it again on destruction).
  explicit Loop(net::ReliableTransport* transport);
  ~Loop();

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Appends `participant` to the routing order. It must outlive its
  /// registration.
  void Register(Participant* participant);
  /// Drops `participant`; a no-op when it is not registered.
  void Unregister(Participant* participant);

  /// Drives everything to quiescence. Each step:
  ///  1. advances to the earliest NextActionAt of any participant, or
  ///     until the transport is idle when nobody has one;
  ///  2. offers each delivery, in arrival order;
  ///  3. pumps every participant at the step's `now`;
  ///  4. stops once a step had no wake, no delivery and no send, and
  ///     nothing is left in flight or on the wire.
  /// Nothing is pumped before the first advance: a caller that has just
  /// queued work for a participant (opened a stream) calls Pump() first.
  /// Returns the unconsumed deliveries in arrival order.
  Result<std::vector<net::Delivery>> Settle();

  /// Resolves everything in flight (ack or retry-budget failure) and
  /// offers what arrives, but never pumps: no participant sends new
  /// traffic of its own accord, so live streams stop at a chunk
  /// boundary. Returns the unconsumed deliveries in arrival order.
  std::vector<net::Delivery> Drain();

  /// Pumps every participant at the current instant.
  Status Pump();

 private:
  bool Offer(const net::Delivery& delivery);
  Result<size_t> PumpAt(MicrosT now);

  net::ReliableTransport* transport_;
  net::Network* network_;
  std::vector<Participant*> participants_;
};

}  // namespace mmconf::sim

#endif  // MMCONF_SIM_LOOP_H_
