#ifndef MMCONF_SERVER_INTERACTION_SERVER_H_
#define MMCONF_SERVER_INTERACTION_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "doc/document.h"
#include "doc/tuning.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prefetch/cache.h"
#include "server/room.h"
#include "sim/loop.h"
#include "storage/object_store.h"
#include "stream/scheduler.h"

namespace mmconf::server {

/// Network location of a room member.
struct ClientEndpoint {
  std::string viewer;
  net::NodeId node = 0;
};

/// Per-room reliability counters of the messages the server ships over
/// its ReliableTransport.
struct RoomReliabilityStats {
  size_t messages = 0;   ///< reliable messages shipped for this room
  size_t retries = 0;    ///< extra wire attempts its messages consumed
  size_t evictions = 0;  ///< members dropped after the retry budget ran out
  /// When the last propagation round started / fully acked. Their
  /// difference is the room's time-to-consistency for that round.
  MicrosT last_propagate_at = 0;
  MicrosT last_converged_at = 0;
};

/// The interaction-server tier of the paper's Fig. 1: "responsible for
/// the cooperative work in the system. It also calls the presentation
/// module when needed. The interaction server keeps track of all objects
/// in and out of shared rooms. If a client makes a change on a
/// multi-media object, that change is immediately propagated to other
/// clients in the room. The interaction server also calls the database
/// server to fetch and store objects."
///
/// Documents live in the database as BLOBs (type "Document"); rooms hold
/// decoded working copies; presentation changes are propagated over the
/// simulated network with only the changed components' bytes.
///
/// Every send goes through a ReliableTransport, and the server is a
/// sim::Participant: a sim::Loop pumps its stream schedulers, hands it
/// their chunk traffic and routes it the delivery failures of its
/// propagation messages. The server never pumps the transport itself, so
/// any number of servers (and other participants) can share one.
class InteractionServer : public sim::Participant {
 public:
  /// `db` and `transport` must outlive the server. `db` is any
  /// ObjectStore implementation — a single DatabaseServer or the
  /// durable ShardedDatabaseServer facade (storage/sharded_db.h).
  /// Every send (client propagation, broadcasts, streams and the
  /// server<->db hops) goes through `transport`, on its network. A
  /// message is retried with backoff; only when its retry budget runs
  /// out does the server evict the unreachable member and re-optimize
  /// for the survivors, which takes a sim::Loop on the transport with
  /// this server registered (the loop owns the failure callback).
  /// `server_node` / `db_node` are this server's and the database's
  /// network locations (the server->db link models the JDBC hop).
  InteractionServer(storage::ObjectStore* db,
                    net::ReliableTransport* transport,
                    net::NodeId server_node, net::NodeId db_node);

  InteractionServer(const InteractionServer&) = delete;
  InteractionServer& operator=(const InteractionServer&) = delete;

  net::NodeId server_node() const { return server_node_; }

  /// Reliability counters for a room. Querying settles completed
  /// messages: retries and convergence time reflect every ack the
  /// transport has processed so far.
  Result<RoomReliabilityStats> RoomStats(const std::string& room_id);

  /// True when every reliable message shipped for the room has been
  /// acked or failed.
  bool RoomConverged(const std::string& room_id);

  /// Registers the "Document" media type (idempotent).
  Status RegisterDocumentType();

  /// Persists a document as a BLOB object; returns its reference.
  Result<storage::ObjectRef> StoreDocument(
      const doc::MultimediaDocument& document, const std::string& name);

  /// Opens a room on a stored document (the Fig. 4a use case "Retrieving
  /// a document"): fetches the BLOB over the server<->db link, decodes
  /// it, and creates the room. AlreadyExists if the room id is taken.
  Result<Room*> OpenRoom(const std::string& room_id,
                         const storage::ObjectRef& document_ref);

  /// Opens a room on an in-memory document (no database hop).
  Result<Room*> OpenRoomWithDocument(const std::string& room_id,
                                     doc::MultimediaDocument document);

  Result<Room*> GetRoom(const std::string& room_id);
  Status CloseRoom(const std::string& room_id);

  /// Adopts a room built elsewhere (migration target side): registers it
  /// together with its member endpoints without shipping anyone initial
  /// content — the members already hold the presentation they watched on
  /// the source node. AlreadyExists if the room id is taken here.
  Result<Room*> AdoptRoom(const std::string& room_id,
                          std::unique_ptr<Room> room,
                          std::map<std::string, net::NodeId> members);

  /// The room's member -> network node map (migration reads it on the
  /// source to re-register everyone on the target).
  Result<std::map<std::string, net::NodeId>> RoomEndpoints(
      const std::string& room_id) const;

  /// Persists the room's consultation minutes (rendered action log) as a
  /// Text object in the database — the intro scenario's "results of the
  /// discussions ... stored ... for future search and reference". The
  /// returned object indexes like any other note (search::TextIndex).
  Result<storage::ObjectRef> ArchiveRoomLog(const std::string& room_id);
  size_t num_rooms() const { return rooms_.size(); }

  /// Adds a member and ships them the full current presentation; returns
  /// the simulated delivery timestamp of their initial content, or
  /// net::kEtaLinkDown when the member's link was down at send time and
  /// the transport is still retrying the content.
  Result<MicrosT> Join(const std::string& room_id,
                       const ClientEndpoint& client);

  /// Removes a member and propagates any resulting reconfiguration.
  Status Leave(const std::string& room_id, const std::string& viewer);

  /// Applies a viewer's presentation choice; propagates the delta to
  /// every *other* member ("each one of them sees the actions of the
  /// other"). Returns the reconfiguration (with delta size).
  Result<ReconfigResult> SubmitChoice(const std::string& room_id,
                                      const std::string& viewer,
                                      const std::string& component,
                                      const std::string& presentation);

  /// Applies an image/audio operation in a room, persists content changes
  /// to the database when `persist` names a blob column, and propagates
  /// the delta.
  Result<ReconfigResult> ApplyOperation(const std::string& room_id,
                                        const UserAction& action,
                                        bool globally_important);

  /// --- Broadcasting and dynamic event triggers (the paper's Section 6
  /// future work: "integrating broadcasting and dynamic event triggers
  /// into the system") ---

  /// Pushes an out-of-band message of `bytes` to every member of a room
  /// (announcements, pointers to new findings). Returns the latest
  /// delivery timestamp, or 0 for an empty room.
  Result<MicrosT> Broadcast(const std::string& room_id,
                            const std::string& tag, size_t bytes);

  /// Callback fired after an action of the registered type is applied in
  /// any room. Triggers observe the room (post-action state) and may use
  /// the server, e.g. to Broadcast — but must not re-enter the action
  /// that fired them.
  using Trigger =
      std::function<void(InteractionServer&, Room&, const UserAction&)>;

  /// Registers a trigger for an action type; multiple triggers per type
  /// fire in registration order. Returns an id for RemoveTrigger.
  int RegisterTrigger(ActionType type, Trigger trigger);
  Status RemoveTrigger(int trigger_id);
  size_t num_triggers() const { return triggers_.size(); }

  /// --- Media streaming (src/stream/): adaptive layered delivery with
  /// deadline scheduling, sharing the transport with Propagate traffic ---

  /// Opens a stream of encoded layered objects (compress::LayeredCodec
  /// bitstreams) toward a room member; its rate estimate feeds off the
  /// transport's ack timings. When the member has an attached prefetch
  /// cache, the stream's playout-buffer budget is clamped to the cache's
  /// free headroom — streaming and prefetch share the client's one
  /// buffer (§4.4). Returns the server-wide stream id.
  Result<stream::StreamId> OpenStream(const std::string& room_id,
                                      const std::string& viewer,
                                      const std::vector<Bytes>& objects,
                                      stream::StreamOptions options);

  /// Delivery/quality counters of one stream.
  Result<stream::StreamStats> StreamSessionStats(stream::StreamId id) const;
  /// All streams of a room, for export next to RoomStats.
  Result<std::vector<stream::StreamStats>> RoomStreamStats(
      const std::string& room_id) const;
  Status CloseStream(stream::StreamId id);
  bool StreamsIdle() const;
  size_t num_streams() const;

  /// Reserves the stream-id space: ids issued from now on are >= `first`.
  /// A federation tier gives each node a disjoint range so streams keep
  /// their ids when they migrate between nodes.
  void SeedStreamIds(stream::StreamId first);

  /// Migration source side: snapshots and closes every live stream of
  /// the room (see stream::StreamCarryover). FailedPrecondition while
  /// any of them still has chunks in flight — settle the transport
  /// first. Finished/aborted streams are closed and not carried.
  Result<std::vector<stream::StreamCarryover>> ExportRoomStreams(
      const std::string& room_id);

  /// Migration target side: adopts one exported stream into the room's
  /// scheduler, shifting its remaining deadlines by `deadline_shift`.
  Status AdoptStream(const std::string& room_id,
                     const stream::StreamCarryover& carry,
                     MicrosT deadline_shift);

  /// --- sim::Participant ---
  /// Earliest deadline or pacing slot of any room's stream scheduler.
  MicrosT NextActionAt(MicrosT now) const override;
  /// True when the delivery was consumed as a chunk of one of this
  /// server's streams.
  bool Offer(const net::Delivery& delivery) override;
  /// Folds stream acks and sends every chunk due at `now`.
  Result<size_t> Pump(MicrosT now) override;
  /// Claims the failure of a propagation message this server sent:
  /// evicts the member behind the dead link from the message's room and
  /// propagates the re-optimization to the survivors.
  bool OnFailure(const net::FailedMessage& failure) override;

  /// Registers a member's client-side buffer so the server can observe
  /// prefetch hits/misses/evictions per room and budget streaming
  /// against it. The cache must outlive the membership.
  Status AttachClientCache(const std::string& room_id,
                           const std::string& viewer,
                           prefetch::ClientCache* cache);
  /// Aggregated prefetch-cache counters across a room's members — the
  /// buffer-contention signal next to RoomReliabilityStats.
  Result<prefetch::CacheStats> RoomCacheStats(
      const std::string& room_id) const;

  /// Total bytes this server pushed to clients so far.
  size_t bytes_propagated() const { return bytes_propagated_; }

  /// Publishes server activity into the obs layer: `server.*` counters
  /// and histograms (join latency, per-member delta bytes, reconfig
  /// sizes, propagate time-to-consistency), per-room registry gauges
  /// (`server.room.<id>.*`, refreshed whenever the room's messages are
  /// settled), and trace lanes (tid "room:<id>" under the server pid)
  /// carrying propagate->converged spans and eviction instants. Names
  /// the server/db processes after their network nodes and forwards the
  /// observer to every room's stream scheduler, current and future.
  /// Either pointer may be null; both must outlive the server.
  void SetObserver(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  /// Sends `result`'s delta to every member except `origin` (empty
  /// origin = everyone, used for initial join payloads elsewhere).
  Status Propagate(Room* room, const ReconfigResult& result,
                   const std::string& origin);

  /// One server-originated send through the transport, tracked under
  /// `room_id` unless empty. Returns the estimated delivery timestamp,
  /// or net::kEtaLinkDown when the first attempt could not be scheduled.
  Result<MicrosT> Ship(net::NodeId from, net::NodeId to, size_t bytes,
                       std::string tag, const std::string& room_id);

  /// Folds finished transport messages into the room's stats.
  void SettleRoomMessages(const std::string& room_id);

  void FireTriggers(Room* room, const UserAction& action);

  /// Classifies a member's downlink for transcoding (kLow when the link
  /// is unknown/partitioned).
  doc::BandwidthLevel LevelFor(net::NodeId client) const;

  struct RegisteredTrigger {
    int id;
    ActionType type;
    Trigger trigger;
  };

  /// Per-room observability state: the room's trace lane and its
  /// registry-backed gauge views of RoomReliabilityStats (published by
  /// SettleRoomMessages, so reads are as fresh as the stats they
  /// mirror). `round_open` tracks an unconverged propagation round whose
  /// span is emitted once the last ack settles.
  struct RoomObs {
    int tid = 0;
    obs::Gauge* g_messages = nullptr;
    obs::Gauge* g_retries = nullptr;
    obs::Gauge* g_evictions = nullptr;
    obs::Gauge* g_t2c = nullptr;
    bool round_open = false;
  };
  /// Lazily interns the room's trace lane / gauges; safe no-handles
  /// state when no observer is attached.
  RoomObs& ObsFor(const std::string& room_id);

  storage::ObjectStore* db_;
  net::ReliableTransport* transport_;
  net::Network* network_;
  net::NodeId server_node_;
  net::NodeId db_node_;
  std::map<std::string, std::unique_ptr<Room>> rooms_;
  std::map<std::string, std::map<std::string, net::NodeId>> endpoints_;
  /// Transport bookkeeping: which room each reliable message belongs to,
  /// and the not-yet-settled message ids per room.
  std::map<net::MsgId, std::string> msg_room_;
  std::map<std::string, std::vector<net::MsgId>> outstanding_;
  std::map<std::string, RoomReliabilityStats> room_stats_;
  /// Streaming: one EDF scheduler per room, ids issued server-wide.
  std::map<std::string, std::unique_ptr<stream::StreamScheduler>>
      stream_schedulers_;
  std::map<stream::StreamId, std::string> stream_room_;
  stream::StreamId next_stream_id_ = 1;
  /// room -> viewer -> attached client buffer (not owned).
  std::map<std::string, std::map<std::string, prefetch::ClientCache*>>
      client_caches_;
  std::vector<RegisteredTrigger> triggers_;
  int next_trigger_id_ = 1;
  size_t bytes_propagated_ = 0;
  /// Observability (null = not instrumented). The registry pointer is
  /// kept (unlike the pure-handle subsystems) because rooms and their
  /// gauges appear dynamically.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::map<std::string, RoomObs> room_obs_;
  obs::Counter* m_joins_ = nullptr;
  obs::Counter* m_leaves_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_broadcasts_ = nullptr;
  obs::Counter* m_propagate_rounds_ = nullptr;
  obs::Counter* m_streams_opened_ = nullptr;
  obs::Histogram* m_join_latency_ = nullptr;
  obs::Histogram* m_delta_bytes_ = nullptr;
  obs::Histogram* m_t2c_ = nullptr;
  obs::Histogram* m_reconfig_changed_ = nullptr;
};

}  // namespace mmconf::server

#endif  // MMCONF_SERVER_INTERACTION_SERVER_H_
