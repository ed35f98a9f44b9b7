#ifndef MMCONF_FEDERATION_TIER_H_
#define MMCONF_FEDERATION_TIER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "doc/document.h"
#include "federation/placement.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/object_store.h"

namespace mmconf::federation {

/// Shape of the federation: how many interaction nodes to stand up and
/// how they are wired to each other and to the shared database.
struct FederationOptions {
  size_t num_nodes = 2;
  /// node <-> node and node <-> db links (duplex).
  net::LinkSpec backbone{};
  /// Retry schedule of the one transport shared by every node.
  net::RetryPolicy retry{};
  /// Node i issues stream ids from i * stream_id_stride + 1, so a
  /// stream keeps its id when its room migrates between nodes.
  uint64_t stream_id_stride = 1ull << 32;
};

/// Per-node load snapshot (also published as fed.node.<i>.* gauges).
struct NodeLoad {
  size_t rooms = 0;
  size_t members = 0;
  size_t messages = 0;   ///< reliable messages shipped by this node
  size_t retries = 0;
  size_t evictions = 0;
  size_t bytes_propagated = 0;
};

/// What a completed migration did.
struct MigrationReport {
  std::string room_id;
  size_t from_node = 0;
  size_t to_node = 0;
  size_t state_bytes = 0;        ///< snapshot bytes shipped source -> target
  size_t replayed_actions = 0;   ///< log length replayed on the target
  size_t delta_actions = 0;      ///< of those, applied after StartMigration
  size_t streams_carried = 0;    ///< live streams moved with the room
  MicrosT started_at = 0;
  MicrosT completed_at = 0;
  bool verified = false;  ///< Serialize()-equal held before cutover
};

/// The interaction tier split across N nodes of one simulated network
/// (the paper's Fig. 1 interaction server, federated): a front door
/// admits each client to the node its room lives on (deterministic
/// hash placement plus a pin table), cross-node requests are forwarded
/// over the shared reliable transport, and live rooms migrate between
/// nodes by replaying their action log against the pristine document —
/// with byte-identical convergence (Room::Serialize equality) verified
/// before the cutover. All nodes share one ObjectStore (typically the
/// durable ShardedDatabaseServer facade) and one ReliableTransport.
///
/// Like every subsystem here the tier owns no threads. It owns the
/// shared transport and the one sim::Loop that pumps it, with every
/// node's server registered by index; whatever else rides the transport
/// (a BroadcastDirector's sessions, a ReplicatedShardSet) registers on
/// the same loop after them. loop()->Settle() drives the whole stack to
/// quiescence and returns the deliveries no participant consumed
/// (presentation deltas, broadcasts, forwarded requests) in arrival
/// order; see sim::Loop for the order contract.
class FederatedInteractionTier {
 public:
  /// Creates `options.num_nodes` interaction nodes on `network` (named
  /// "fed-node-<i>"), wires every node to `db_node` and to every other
  /// node with the backbone link, and stands up the shared transport.
  /// Node 0 is the front door. `db` and `network` must outlive the tier.
  FederatedInteractionTier(storage::ObjectStore* db, net::Network* network,
                           net::NodeId db_node,
                           const FederationOptions& options);

  FederatedInteractionTier(const FederatedInteractionTier&) = delete;
  FederatedInteractionTier& operator=(const FederatedInteractionTier&) =
      delete;

  size_t num_nodes() const { return nodes_.size(); }
  server::InteractionServer* node(size_t i) { return nodes_[i].server.get(); }
  net::NodeId node_net(size_t i) const { return nodes_[i].net_id; }
  net::ReliableTransport* transport() { return transport_.get(); }
  /// The drive loop of everything on the shared transport.
  sim::Loop* loop() { return &loop_; }
  const RoomPlacement& placement() const { return placement_; }

  /// Links `client` to every interaction node (duplex), so the front
  /// door can admit it wherever its room lands.
  Status ConnectClient(net::NodeId client, const net::LinkSpec& spec);

  /// Opens a room on the node the placement picks, fetching the document
  /// from the shared store. The tier keeps the pristine encoded document
  /// — it is what a migration replays the action log against.
  Result<server::Room*> OpenRoom(const std::string& room_id,
                                 const storage::ObjectRef& document_ref);
  Result<server::Room*> OpenRoomWithDocument(const std::string& room_id,
                                             doc::MultimediaDocument document);
  Status CloseRoom(const std::string& room_id);
  /// The node currently serving the room; NotFound when it is not open.
  Result<size_t> NodeOf(const std::string& room_id) const;
  Result<server::Room*> GetRoom(const std::string& room_id);
  size_t num_rooms() const { return room_docs_.size(); }

  /// Front-door admission: bills the admit hop front-door -> owner over
  /// the transport when the room lives elsewhere, then joins the client
  /// on the owning node.
  Result<MicrosT> Join(const std::string& room_id,
                       const server::ClientEndpoint& client);
  Status Leave(const std::string& room_id, const std::string& viewer);

  /// Direct-path operations on the owning node (the client was admitted
  /// there, so no forwarding hop).
  Result<server::ReconfigResult> SubmitChoice(const std::string& room_id,
                                              const std::string& viewer,
                                              const std::string& component,
                                              const std::string& presentation);
  Result<server::ReconfigResult> ApplyOperation(
      const std::string& room_id, const server::UserAction& action,
      bool globally_important);
  Result<MicrosT> Broadcast(const std::string& room_id,
                            const std::string& tag, size_t bytes);

  /// Mis-directed variants: the request arrived at `via_node` (a stale
  /// client, a dumb load balancer) and is forwarded to the owning node
  /// over the reliable transport before being applied there. Produces
  /// exactly the owning node's result plus the forwarding hop's bytes.
  Result<server::ReconfigResult> SubmitChoiceVia(
      size_t via_node, const std::string& room_id, const std::string& viewer,
      const std::string& component, const std::string& presentation);
  Result<MicrosT> BroadcastVia(size_t via_node, const std::string& room_id,
                               const std::string& tag, size_t bytes);

  /// --- Live-room migration ---

  /// Stage 1: snapshots the room's log position and ships the serialized
  /// state source -> target over the reliable transport. The room keeps
  /// serving on the source; actions applied between Start and Finish are
  /// replayed as the delta. FailedPrecondition for a non-replayable room
  /// (structural AddComponent/RemoveComponent edits) or one already
  /// migrating.
  Status StartMigration(const std::string& room_id, size_t target_node);

  /// Stage 2: drains the transport (sim::Loop::Drain, so live streams
  /// stop at a chunk boundary); aborts (room intact on the source)
  /// if the state transfer failed — e.g. the target was partitioned
  /// mid-migration. Otherwise replays the full log on the target,
  /// verifies byte-identical convergence (Room::Serialize equality)
  /// against the live source room, and only then cuts over: endpoints
  /// move, live streams are carried (deadlines rebased past the outage),
  /// the placement pins the room to the target, the source copy closes,
  /// and members get a "fed:rebind" broadcast from their new node.
  Result<MigrationReport> FinishMigration(const std::string& room_id);

  /// Start + Finish in one call.
  Result<MigrationReport> MigrateRoom(const std::string& room_id,
                                      size_t target_node);

  Status AbortMigration(const std::string& room_id);
  bool Migrating(const std::string& room_id) const {
    return migrations_.count(room_id) > 0;
  }

  /// Invoked at the end of every successful FinishMigration, after the
  /// "fed:rebind" broadcast is queued: (room_id, from_node, to_node).
  /// This is how a hosted broadcast session learns its room moved and
  /// re-roots its fan-out tree at the new home. Replaces any previous
  /// callback; pass nullptr to clear.
  using RoomMovedCallback = std::function<void(
      const std::string& room_id, size_t from_node, size_t to_node)>;
  void SetRoomMovedCallback(RoomMovedCallback callback) {
    on_room_moved_ = std::move(callback);
  }

  /// Per-node load snapshot; also refreshes the fed.node.<i>.* gauges
  /// and folds each settled room's latest time-to-consistency into the
  /// per-node tail-latency histograms.
  std::vector<NodeLoad> Loads();

  /// Publishes tier activity into the obs layer: per-node load gauges
  /// (fed.node.<i>.rooms/members/messages/retries/evictions/bytes),
  /// per-node tail-latency histograms (fed.node.<i>.t2c_micros),
  /// forwarding and migration counters/histograms (fed.routed,
  /// fed.route_micros, fed.migrations, fed.migrations_failed,
  /// fed.migration_micros), and migration spans on a "federation" trace
  /// lane. Forwarded to every node's server. Either pointer may be null.
  void SetObserver(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  struct Node {
    net::NodeId net_id = 0;
    std::unique_ptr<server::InteractionServer> server;
    obs::Gauge* g_rooms = nullptr;
    obs::Gauge* g_members = nullptr;
    obs::Gauge* g_messages = nullptr;
    obs::Gauge* g_retries = nullptr;
    obs::Gauge* g_evictions = nullptr;
    obs::Gauge* g_bytes = nullptr;
    obs::Histogram* h_t2c = nullptr;
  };

  struct ActiveMigration {
    size_t from = 0;
    size_t to = 0;
    size_t log_snapshot = 0;     ///< source log length at Start
    net::MsgId state_msg = 0;    ///< the state-transfer message
    size_t state_bytes = 0;
    MicrosT started_at = 0;
  };

  /// Bills one forwarded hop `from_node` -> `to_node` over the
  /// transport and records it in the routing metrics.
  Status Forward(size_t from_node, size_t to_node, size_t bytes,
                 std::string tag);

  /// Registers an opened room: pristine document bytes + obs refresh.
  void TrackRoom(const std::string& room_id, Bytes pristine);

  storage::ObjectStore* db_;
  net::Network* network_;
  net::NodeId db_node_;
  FederationOptions options_;
  std::unique_ptr<net::ReliableTransport> transport_;
  sim::Loop loop_;
  std::vector<Node> nodes_;
  RoomPlacement placement_;
  /// Open rooms -> the pristine encoded document they were opened on
  /// (the replay base for migration).
  std::map<std::string, Bytes> room_docs_;
  std::map<std::string, ActiveMigration> migrations_;
  RoomMovedCallback on_room_moved_;
  /// Last time-to-consistency round folded per room, so tail-latency
  /// histograms observe each converged round once.
  std::map<std::string, MicrosT> t2c_folded_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  int fed_tid_ = 0;  ///< "federation" trace lane under the front door
  obs::Counter* m_routed_ = nullptr;
  obs::Counter* m_migrations_ = nullptr;
  obs::Counter* m_migrations_failed_ = nullptr;
  obs::Histogram* m_route_micros_ = nullptr;
  obs::Histogram* m_migration_micros_ = nullptr;
};

}  // namespace mmconf::federation

#endif  // MMCONF_FEDERATION_TIER_H_
