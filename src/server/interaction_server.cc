#include "server/interaction_server.h"

#include <algorithm>

#include "doc/tuning.h"

namespace mmconf::server {

using doc::MultimediaDocument;
using storage::FieldType;
using storage::MediaTypeEntry;
using storage::ObjectRef;

InteractionServer::InteractionServer(storage::ObjectStore* db,
                                     net::ReliableTransport* transport,
                                     net::NodeId server_node,
                                     net::NodeId db_node)
    : db_(db),
      transport_(transport),
      network_(transport->network()),
      server_node_(server_node),
      db_node_(db_node) {}

void InteractionServer::SetObserver(obs::MetricsRegistry* metrics,
                                    obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  if (metrics_ != nullptr) {
    m_joins_ = metrics_->GetCounter("server.joins");
    m_leaves_ = metrics_->GetCounter("server.leaves");
    m_evictions_ = metrics_->GetCounter("server.evictions");
    m_broadcasts_ = metrics_->GetCounter("server.broadcasts");
    m_propagate_rounds_ = metrics_->GetCounter("server.propagate.rounds");
    m_streams_opened_ = metrics_->GetCounter("server.streams.opened");
    m_join_latency_ = metrics_->GetHistogram(
        "server.join.latency_micros",
        {10000, 50000, 100000, 250000, 500000, 1000000, 5000000});
    m_delta_bytes_ = metrics_->GetHistogram(
        "server.propagate.delta_bytes",
        {1024, 4096, 16384, 65536, 262144, 1048576});
    m_t2c_ = metrics_->GetHistogram(
        "server.propagate.t2c_micros",
        {10000, 50000, 100000, 250000, 500000, 1000000, 5000000});
    m_reconfig_changed_ = metrics_->GetHistogram(
        "server.reconfig.changed_vars", {1, 2, 4, 8, 16, 32});
  } else {
    m_joins_ = nullptr;
    m_leaves_ = nullptr;
    m_evictions_ = nullptr;
    m_broadcasts_ = nullptr;
    m_propagate_rounds_ = nullptr;
    m_streams_opened_ = nullptr;
    m_join_latency_ = nullptr;
    m_delta_bytes_ = nullptr;
    m_t2c_ = nullptr;
    m_reconfig_changed_ = nullptr;
  }
  // Stale lanes/gauges would point into a previous observer's objects.
  room_obs_.clear();
  if (tracer_ != nullptr) {
    tracer_->SetProcessName(server_node_, network_->NodeName(server_node_));
    tracer_->SetProcessName(db_node_, network_->NodeName(db_node_));
  }
  for (auto& [room, scheduler] : stream_schedulers_) {
    scheduler->SetObserver(metrics_, tracer_);
  }
}

InteractionServer::RoomObs& InteractionServer::ObsFor(
    const std::string& room_id) {
  auto it = room_obs_.find(room_id);
  if (it != room_obs_.end()) return it->second;
  RoomObs obs;
  if (tracer_ != nullptr) {
    obs.tid = tracer_->Tid(server_node_, "room:" + room_id);
  }
  if (metrics_ != nullptr) {
    const std::string prefix = "server.room." + room_id + ".";
    obs.g_messages = metrics_->GetGauge(prefix + "messages");
    obs.g_retries = metrics_->GetGauge(prefix + "retries");
    obs.g_evictions = metrics_->GetGauge(prefix + "evictions");
    obs.g_t2c = metrics_->GetGauge(prefix + "t2c_micros");
  }
  return room_obs_.emplace(room_id, obs).first->second;
}

Result<MicrosT> InteractionServer::Ship(net::NodeId from, net::NodeId to,
                                        size_t bytes, std::string tag,
                                        const std::string& room_id) {
  MMCONF_ASSIGN_OR_RETURN(net::SendHandle handle,
                          transport_->Send(from, to, bytes, std::move(tag)));
  if (!room_id.empty()) {
    msg_room_[handle.id] = room_id;
    outstanding_[room_id].push_back(handle.id);
    ++room_stats_[room_id].messages;
  }
  return handle.first_attempt_eta;
}

bool InteractionServer::OnFailure(const net::FailedMessage& failure) {
  auto tracked = msg_room_.find(failure.id);
  if (tracked == msg_room_.end() || failure.from != server_node_) return false;
  const std::string room_id = tracked->second;
  auto room_it = rooms_.find(room_id);
  if (room_it == rooms_.end()) return true;
  Room* room = room_it->second.get();
  std::map<std::string, net::NodeId>& members = endpoints_[room_id];
  std::string viewer;
  for (const auto& [name, node] : members) {
    if (node == failure.to) {
      viewer = name;
      break;
    }
  }
  if (viewer.empty()) return true;  // already evicted by an earlier failure
  members.erase(viewer);
  ++room_stats_[room_id].evictions;
  if (m_evictions_ != nullptr) m_evictions_->Add();
  if (tracer_ != nullptr) {
    tracer_->Instant(server_node_, ObsFor(room_id).tid, "evict-member",
                     "server", "node", failure.to);
  }
  // The evicted member's pinned choices are released; the survivors get
  // the resulting reconfiguration (reliably, so it retries too).
  Result<ReconfigResult> result = room->Leave(viewer);
  if (result.ok()) Propagate(room, *result, viewer).ok();
  return true;
}

void InteractionServer::SettleRoomMessages(const std::string& room_id) {
  auto it = outstanding_.find(room_id);
  if (it == outstanding_.end()) return;
  RoomReliabilityStats& stats = room_stats_[room_id];
  std::vector<net::MsgId> still_open;
  for (net::MsgId id : it->second) {
    Result<net::SendState> state = transport_->StateOf(id);
    if (!state.ok()) {
      // The transport already forgot this message (retention window):
      // treat it as settled rather than leaking its room mapping.
      msg_room_.erase(id);
      continue;
    }
    if (*state == net::SendState::kInFlight) {
      still_open.push_back(id);
      continue;
    }
    int attempts = transport_->AttemptsOf(id).value_or(1);
    if (attempts > 1) stats.retries += static_cast<size_t>(attempts - 1);
    if (*state == net::SendState::kAcked) {
      MicrosT acked = transport_->AckedAt(id).value_or(0);
      stats.last_converged_at = std::max(stats.last_converged_at, acked);
    }
    msg_room_.erase(id);
    // Folded into stats — the transport no longer needs the record.
    transport_->Forget(id);
  }
  it->second = std::move(still_open);
  if (metrics_ == nullptr && tracer_ == nullptr) return;
  RoomObs& obs = ObsFor(room_id);
  if (obs.g_messages != nullptr) {
    obs.g_messages->Set(static_cast<int64_t>(stats.messages));
    obs.g_retries->Set(static_cast<int64_t>(stats.retries));
    obs.g_evictions->Set(static_cast<int64_t>(stats.evictions));
  }
  // The round's span and time-to-consistency are known only once its
  // last message settles.
  if (obs.round_open && it->second.empty() &&
      stats.last_converged_at >= stats.last_propagate_at) {
    obs.round_open = false;
    MicrosT t2c = stats.last_converged_at - stats.last_propagate_at;
    if (m_t2c_ != nullptr) m_t2c_->Observe(t2c);
    if (obs.g_t2c != nullptr) obs.g_t2c->Set(t2c);
    if (tracer_ != nullptr) {
      tracer_->Span(server_node_, obs.tid, "propagate", "server",
                    stats.last_propagate_at, stats.last_converged_at,
                    "t2c_micros", t2c);
    }
  }
}

Result<RoomReliabilityStats> InteractionServer::RoomStats(
    const std::string& room_id) {
  if (rooms_.count(room_id) == 0 && room_stats_.count(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  SettleRoomMessages(room_id);
  return room_stats_[room_id];
}

bool InteractionServer::RoomConverged(const std::string& room_id) {
  SettleRoomMessages(room_id);
  auto it = outstanding_.find(room_id);
  return it == outstanding_.end() || it->second.empty();
}

Status InteractionServer::RegisterDocumentType() {
  if (db_->HasType("Document")) return Status::OK();
  MediaTypeEntry entry{"Document", "application/x-mm-document", "read-write",
                       "DOCUMENT_OBJECTS_TABLE",
                       "multimedia documents: component tree + CP-net"};
  return db_->RegisterType(entry, {{"FLD_NAME", FieldType::kString},
                                   {"FLD_DATA", FieldType::kBlob}});
}

Result<ObjectRef> InteractionServer::StoreDocument(
    const MultimediaDocument& document, const std::string& name) {
  MMCONF_RETURN_IF_ERROR(RegisterDocumentType());
  Bytes encoded = document.Encode();
  // The store travels over the server -> db link.
  MMCONF_RETURN_IF_ERROR(
      Ship(server_node_, db_node_, encoded.size(), "store-doc", "")
          .status());
  return db_->Store("Document", {{"FLD_NAME", name}},
                    {{"FLD_DATA", std::move(encoded)}});
}

Result<Room*> InteractionServer::OpenRoom(const std::string& room_id,
                                          const ObjectRef& document_ref) {
  if (rooms_.count(room_id) > 0) {
    return Status::AlreadyExists("room \"" + room_id + "\" already open");
  }
  MMCONF_ASSIGN_OR_RETURN(Bytes encoded,
                          db_->FetchBlob(document_ref, "FLD_DATA"));
  // The fetch travels over the db -> server link.
  MMCONF_RETURN_IF_ERROR(
      Ship(db_node_, server_node_, encoded.size(), "fetch-doc", "")
          .status());
  MMCONF_ASSIGN_OR_RETURN(MultimediaDocument document,
                          MultimediaDocument::Decode(encoded));
  return OpenRoomWithDocument(room_id, std::move(document));
}

Result<Room*> InteractionServer::OpenRoomWithDocument(
    const std::string& room_id, MultimediaDocument document) {
  if (rooms_.count(room_id) > 0) {
    return Status::AlreadyExists("room \"" + room_id + "\" already open");
  }
  auto room = std::make_unique<Room>(room_id, std::move(document));
  Room* raw = room.get();
  rooms_.emplace(room_id, std::move(room));
  endpoints_[room_id] = {};
  return raw;
}

Result<Room*> InteractionServer::AdoptRoom(
    const std::string& room_id, std::unique_ptr<Room> room,
    std::map<std::string, net::NodeId> members) {
  if (room == nullptr) {
    return Status::InvalidArgument("room must not be null");
  }
  if (rooms_.count(room_id) > 0) {
    return Status::AlreadyExists("room \"" + room_id + "\" already open");
  }
  Room* raw = room.get();
  rooms_.emplace(room_id, std::move(room));
  endpoints_[room_id] = std::move(members);
  return raw;
}

Result<std::map<std::string, net::NodeId>> InteractionServer::RoomEndpoints(
    const std::string& room_id) const {
  auto it = endpoints_.find(room_id);
  if (it == endpoints_.end()) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  return it->second;
}

Result<Room*> InteractionServer::GetRoom(const std::string& room_id) {
  auto it = rooms_.find(room_id);
  if (it == rooms_.end()) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  return it->second.get();
}

Status InteractionServer::CloseRoom(const std::string& room_id) {
  if (rooms_.erase(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  endpoints_.erase(room_id);
  auto open = outstanding_.find(room_id);
  if (open != outstanding_.end()) {
    for (net::MsgId id : open->second) msg_room_.erase(id);
    outstanding_.erase(open);
  }
  room_stats_.erase(room_id);
  stream_schedulers_.erase(room_id);
  client_caches_.erase(room_id);
  for (auto it = stream_room_.begin(); it != stream_room_.end();) {
    it = it->second == room_id ? stream_room_.erase(it) : std::next(it);
  }
  return Status::OK();
}

doc::BandwidthLevel InteractionServer::LevelFor(net::NodeId client) const {
  Result<net::LinkSpec> link = network_->GetLink(server_node_, client);
  if (!link.ok()) return doc::BandwidthLevel::kLow;
  return doc::ClassifyBandwidth(link->bandwidth_bytes_per_sec);
}

Result<ObjectRef> InteractionServer::ArchiveRoomLog(
    const std::string& room_id) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  std::string minutes = room->RenderActionLog();
  MMCONF_RETURN_IF_ERROR(
      Ship(server_node_, db_node_, minutes.size(), "archive-log", room_id)
          .status());
  return db_->Store("Text",
                    {{"FLD_TITLE", "minutes:" + room_id}},
                    {{"FLD_DATA", Bytes(minutes.begin(), minutes.end())}});
}

Result<MicrosT> InteractionServer::Join(const std::string& room_id,
                                        const ClientEndpoint& client) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  MMCONF_RETURN_IF_ERROR(room->Join(client.viewer));
  endpoints_[room_id][client.viewer] = client.node;
  // Ship the current presentation, transcoded for the member's downlink
  // (§4.4: "various transcoding formats of the multimedia objects
  // according to the communication bandwidth").
  MMCONF_ASSIGN_OR_RETURN(
      size_t cost,
      doc::TranscodedDeliveryCost(room->document(), room->configuration(),
                                  LevelFor(client.node)));
  MicrosT requested_at = network_->clock()->NowMicros();
  MMCONF_ASSIGN_OR_RETURN(
      MicrosT delivered,
      Ship(server_node_, client.node, cost, "initial-content", room_id));
  bytes_propagated_ += cost;
  if (m_joins_ != nullptr) {
    m_joins_->Add();
    if (delivered >= requested_at) {
      m_join_latency_->Observe(delivered - requested_at);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->Span(server_node_, ObsFor(room_id).tid, "join", "server",
                  requested_at, std::max(delivered, requested_at), "bytes",
                  static_cast<int64_t>(cost));
  }
  return delivered;
}

Status InteractionServer::Leave(const std::string& room_id,
                                const std::string& viewer) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  MMCONF_ASSIGN_OR_RETURN(ReconfigResult result, room->Leave(viewer));
  endpoints_[room_id].erase(viewer);
  if (m_leaves_ != nullptr) m_leaves_->Add();
  return Propagate(room, result, viewer);
}

Status InteractionServer::Propagate(Room* room, const ReconfigResult& result,
                                    const std::string& origin) {
  if (result.changed_components.empty()) return Status::OK();
  room_stats_[room->id()].last_propagate_at = network_->clock()->NowMicros();
  if (metrics_ != nullptr || tracer_ != nullptr) {
    ObsFor(room->id()).round_open = true;
  }
  if (m_propagate_rounds_ != nullptr) {
    m_propagate_rounds_->Add();
    m_reconfig_changed_->Observe(
        static_cast<int64_t>(result.changed_vars.size()));
  }
  // The room's presentation view already resolved result.configuration,
  // so the changed items need no name lookups, ancestor walks, or
  // per-member re-resolution: collect the visible changed primitives
  // once, then price the delta once per bandwidth level (members on the
  // same class of link ship the same bytes).
  const doc::PresentationView& view = room->view();
  std::vector<std::pair<const doc::PrimitiveMultimediaComponent*,
                        const doc::MMPresentation*>>
      changed_items;
  changed_items.reserve(result.changed_vars.size());
  for (cpnet::VarId var : result.changed_vars) {
    if (var < 0 || static_cast<size_t>(var) >= view.num_components()) {
      continue;  // operation / tuning variables carry no content
    }
    const doc::PrimitiveMultimediaComponent* primitive = view.primitive(var);
    if (primitive == nullptr || !view.visible(var)) continue;
    const doc::MMPresentation* presentation = view.presentation(var);
    if (presentation->kind == doc::PresentationKind::kHidden) continue;
    changed_items.push_back({primitive, presentation});
  }
  size_t level_delta[3] = {0, 0, 0};
  bool level_priced[3] = {false, false, false};
  auto delta_for = [&](doc::BandwidthLevel level) {
    const size_t idx = static_cast<size_t>(level);
    if (!level_priced[idx]) {
      size_t total = 0;
      for (const auto& [primitive, presentation] : changed_items) {
        total +=
            doc::TranscodedPresentationCost(*primitive, *presentation, level);
      }
      level_delta[idx] = total;
      level_priced[idx] = true;
    }
    return level_delta[idx];
  };
  for (const auto& [viewer, node] : endpoints_[room->id()]) {
    if (viewer == origin) continue;
    // Per-client delta: the changed components, transcoded for this
    // member's downlink.
    size_t delta_bytes = delta_for(LevelFor(node));
    if (m_delta_bytes_ != nullptr) {
      m_delta_bytes_->Observe(static_cast<int64_t>(delta_bytes));
    }
    // The transport retries with backoff; a member is evicted (OnFailure)
    // only once its budget is exhausted.
    MMCONF_RETURN_IF_ERROR(Ship(server_node_, node, delta_bytes,
                                "presentation-delta", room->id())
                               .status());
    bytes_propagated_ += delta_bytes;
  }
  return Status::OK();
}

Result<ReconfigResult> InteractionServer::SubmitChoice(
    const std::string& room_id, const std::string& viewer,
    const std::string& component, const std::string& presentation) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  MMCONF_ASSIGN_OR_RETURN(ReconfigResult result,
                          room->SubmitChoice(viewer, component,
                                             presentation));
  MMCONF_RETURN_IF_ERROR(Propagate(room, result, viewer));
  UserAction action;
  action.type = presentation.empty() ? ActionType::kReleaseChoice
                                     : ActionType::kChoice;
  action.viewer = viewer;
  action.component = component;
  action.presentation = presentation;
  FireTriggers(room, action);
  return result;
}

Result<ReconfigResult> InteractionServer::ApplyOperation(
    const std::string& room_id, const UserAction& action,
    bool globally_important) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  MMCONF_ASSIGN_OR_RETURN(ReconfigResult result,
                          room->ApplyOperation(action, globally_important));
  MMCONF_RETURN_IF_ERROR(Propagate(room, result, action.viewer));
  FireTriggers(room, action);
  return result;
}

Result<MicrosT> InteractionServer::Broadcast(const std::string& room_id,
                                             const std::string& tag,
                                             size_t bytes) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  (void)room;
  if (m_broadcasts_ != nullptr) m_broadcasts_->Add();
  if (tracer_ != nullptr) {
    tracer_->Instant(server_node_, ObsFor(room_id).tid, "broadcast",
                     "server", "bytes", static_cast<int64_t>(bytes));
  }
  MicrosT latest = 0;
  for (const auto& [viewer, node] : endpoints_[room_id]) {
    MMCONF_ASSIGN_OR_RETURN(
        MicrosT delivered, Ship(server_node_, node, bytes, tag, room_id));
    latest = std::max(latest, delivered);
    bytes_propagated_ += bytes;
  }
  return latest;
}

Result<stream::StreamId> InteractionServer::OpenStream(
    const std::string& room_id, const std::string& viewer,
    const std::vector<Bytes>& objects, stream::StreamOptions options) {
  MMCONF_ASSIGN_OR_RETURN(Room * room, GetRoom(room_id));
  (void)room;
  auto members = endpoints_.find(room_id);
  if (members == endpoints_.end() ||
      members->second.count(viewer) == 0) {
    return Status::NotFound("no member \"" + viewer + "\" in room \"" +
                            room_id + "\"");
  }
  net::NodeId client = members->second.at(viewer);
  // Streaming shares the member's one client buffer with prefetch: the
  // playout budget is whatever the cache leaves free.
  auto room_caches = client_caches_.find(room_id);
  if (room_caches != client_caches_.end()) {
    auto cache = room_caches->second.find(viewer);
    if (cache != room_caches->second.end() && cache->second != nullptr) {
      size_t headroom = cache->second->capacity_bytes() -
                        std::min(cache->second->capacity_bytes(),
                                 cache->second->used_bytes());
      options.playout_buffer_bytes =
          std::min(options.playout_buffer_bytes, headroom);
    }
  }
  auto& scheduler = stream_schedulers_[room_id];
  if (scheduler == nullptr) {
    scheduler =
        std::make_unique<stream::StreamScheduler>(transport_, server_node_);
    scheduler->SetObserver(metrics_, tracer_);
  }
  stream::StreamId id = next_stream_id_++;
  MMCONF_RETURN_IF_ERROR(
      scheduler->Open(id, client, objects, options).status());
  stream_room_[id] = room_id;
  if (m_streams_opened_ != nullptr) m_streams_opened_->Add();
  return id;
}

Result<stream::StreamStats> InteractionServer::StreamSessionStats(
    stream::StreamId id) const {
  auto tracked = stream_room_.find(id);
  if (tracked == stream_room_.end()) {
    return Status::NotFound("no stream " + std::to_string(id));
  }
  auto scheduler = stream_schedulers_.find(tracked->second);
  if (scheduler == stream_schedulers_.end()) {
    return Status::NotFound("no stream " + std::to_string(id));
  }
  return scheduler->second->StatsFor(id);
}

Result<std::vector<stream::StreamStats>> InteractionServer::RoomStreamStats(
    const std::string& room_id) const {
  if (rooms_.count(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  auto scheduler = stream_schedulers_.find(room_id);
  if (scheduler == stream_schedulers_.end()) {
    return std::vector<stream::StreamStats>();
  }
  return scheduler->second->AllStats();
}

Status InteractionServer::CloseStream(stream::StreamId id) {
  auto tracked = stream_room_.find(id);
  if (tracked == stream_room_.end()) {
    return Status::NotFound("no stream " + std::to_string(id));
  }
  auto scheduler = stream_schedulers_.find(tracked->second);
  Status closed = scheduler != stream_schedulers_.end()
                      ? scheduler->second->Close(id)
                      : Status::NotFound("no stream " + std::to_string(id));
  stream_room_.erase(tracked);
  return closed;
}

bool InteractionServer::StreamsIdle() const {
  for (const auto& [room, scheduler] : stream_schedulers_) {
    if (!scheduler->Idle()) return false;
  }
  return true;
}

size_t InteractionServer::num_streams() const {
  size_t total = 0;
  for (const auto& [room, scheduler] : stream_schedulers_) {
    total += scheduler->num_streams();
  }
  return total;
}

void InteractionServer::SeedStreamIds(stream::StreamId first) {
  next_stream_id_ = std::max(next_stream_id_, first);
}

Result<std::vector<stream::StreamCarryover>>
InteractionServer::ExportRoomStreams(const std::string& room_id) {
  if (rooms_.count(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  auto scheduler_it = stream_schedulers_.find(room_id);
  if (scheduler_it == stream_schedulers_.end()) {
    return std::vector<stream::StreamCarryover>();
  }
  stream::StreamScheduler* scheduler = scheduler_it->second.get();
  scheduler->ObserveAcks();
  std::vector<stream::StreamId> ids;
  for (const auto& [id, room] : stream_room_) {
    if (room == room_id && scheduler->Owns(id)) ids.push_back(id);
  }
  // All-or-nothing: every stream must be exportable before any is
  // closed, so a FailedPrecondition leaves the room fully intact.
  std::vector<stream::StreamCarryover> exported;
  for (stream::StreamId id : ids) {
    MMCONF_ASSIGN_OR_RETURN(stream::StreamCarryover carry,
                            scheduler->ExportStream(id));
    if (!carry.chunks.empty()) exported.push_back(std::move(carry));
  }
  for (stream::StreamId id : ids) {
    scheduler->Close(id).ok();
    stream_room_.erase(id);
  }
  return exported;
}

Status InteractionServer::AdoptStream(const std::string& room_id,
                                      const stream::StreamCarryover& carry,
                                      MicrosT deadline_shift) {
  if (rooms_.count(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  if (stream_room_.count(carry.id) > 0) {
    return Status::AlreadyExists("stream " + std::to_string(carry.id) +
                                 " already tracked here");
  }
  auto& scheduler = stream_schedulers_[room_id];
  if (scheduler == nullptr) {
    scheduler =
        std::make_unique<stream::StreamScheduler>(transport_, server_node_);
    scheduler->SetObserver(metrics_, tracer_);
  }
  MMCONF_RETURN_IF_ERROR(scheduler->ImportStream(carry, deadline_shift));
  stream_room_[carry.id] = room_id;
  next_stream_id_ = std::max(next_stream_id_, carry.id + 1);
  return Status::OK();
}

MicrosT InteractionServer::NextActionAt(MicrosT now) const {
  MicrosT next = -1;
  for (const auto& [room, scheduler] : stream_schedulers_) {
    MicrosT at = scheduler->NextActionAt(now);
    if (at >= 0 && (next < 0 || at < next)) next = at;
  }
  return next;
}

bool InteractionServer::Offer(const net::Delivery& delivery) {
  for (auto& [room, scheduler] : stream_schedulers_) {
    if (scheduler->OnDelivery(delivery)) return true;
  }
  return false;
}

Result<size_t> InteractionServer::Pump(MicrosT now) {
  for (auto& [room, scheduler] : stream_schedulers_) {
    scheduler->ObserveAcks();
  }
  size_t sent = 0;
  for (auto& [room, scheduler] : stream_schedulers_) {
    sent += scheduler->Pump(now);
  }
  return sent;
}

Status InteractionServer::AttachClientCache(const std::string& room_id,
                                            const std::string& viewer,
                                            prefetch::ClientCache* cache) {
  if (cache == nullptr) {
    return Status::InvalidArgument("cache must not be null");
  }
  auto members = endpoints_.find(room_id);
  if (members == endpoints_.end()) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  if (members->second.count(viewer) == 0) {
    return Status::NotFound("no member \"" + viewer + "\" in room \"" +
                            room_id + "\"");
  }
  client_caches_[room_id][viewer] = cache;
  return Status::OK();
}

Result<prefetch::CacheStats> InteractionServer::RoomCacheStats(
    const std::string& room_id) const {
  if (rooms_.count(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id + "\"");
  }
  prefetch::CacheStats total;
  auto room_caches = client_caches_.find(room_id);
  if (room_caches == client_caches_.end()) return total;
  for (const auto& [viewer, cache] : room_caches->second) {
    if (cache == nullptr) continue;
    total.hits += cache->stats().hits;
    total.misses += cache->stats().misses;
    total.evictions += cache->stats().evictions;
    total.insertions += cache->stats().insertions;
  }
  return total;
}

int InteractionServer::RegisterTrigger(ActionType type, Trigger trigger) {
  int id = next_trigger_id_++;
  triggers_.push_back({id, type, std::move(trigger)});
  return id;
}

Status InteractionServer::RemoveTrigger(int trigger_id) {
  for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
    if (it->id == trigger_id) {
      triggers_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no trigger with id " +
                          std::to_string(trigger_id));
}

void InteractionServer::FireTriggers(Room* room, const UserAction& action) {
  // Snapshot ids so a trigger that removes itself is safe.
  std::vector<int> due;
  for (const RegisteredTrigger& registered : triggers_) {
    if (registered.type == action.type) due.push_back(registered.id);
  }
  for (int id : due) {
    for (const RegisteredTrigger& registered : triggers_) {
      if (registered.id == id) {
        registered.trigger(*this, *room, action);
        break;
      }
    }
  }
}

}  // namespace mmconf::server
