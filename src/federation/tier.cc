#include "federation/tier.h"

#include <algorithm>
#include <utility>

namespace mmconf::federation {

using server::ClientEndpoint;
using server::InteractionServer;
using server::ReconfigResult;
using server::Room;
using server::UserAction;

namespace {
/// Wire size of a forwarded control hop's framing (admission, routed
/// request headers) on top of any payload bytes.
constexpr size_t kForwardHeaderBytes = 96;
}  // namespace

FederatedInteractionTier::FederatedInteractionTier(
    storage::ObjectStore* db, net::Network* network, net::NodeId db_node,
    const FederationOptions& options)
    : db_(db),
      network_(network),
      db_node_(db_node),
      options_(options),
      transport_(
          std::make_unique<net::ReliableTransport>(network, options.retry)),
      loop_(transport_.get()),
      placement_(options.num_nodes) {
  nodes_.reserve(placement_.num_nodes());
  for (size_t i = 0; i < placement_.num_nodes(); ++i) {
    Node node;
    node.net_id = network_->AddNode("fed-node-" + std::to_string(i));
    network_->SetDuplexLink(node.net_id, db_node_, options_.backbone).ok();
    for (const Node& peer : nodes_) {
      network_->SetDuplexLink(node.net_id, peer.net_id, options_.backbone)
          .ok();
    }
    // The transport is shared: each server keeps its stream ids
    // disjoint, and the loop routes to it only its own traffic.
    node.server = std::make_unique<InteractionServer>(
        db_, transport_.get(), node.net_id, db_node_);
    node.server->SeedStreamIds(static_cast<stream::StreamId>(i) *
                                   options_.stream_id_stride +
                               1);
    loop_.Register(node.server.get());
    nodes_.push_back(std::move(node));
  }
}

void FederatedInteractionTier::SetObserver(obs::MetricsRegistry* metrics,
                                           obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  if (metrics_ != nullptr) {
    m_routed_ = metrics_->GetCounter("fed.routed");
    m_migrations_ = metrics_->GetCounter("fed.migrations");
    m_migrations_failed_ = metrics_->GetCounter("fed.migrations_failed");
    m_route_micros_ = metrics_->GetHistogram(
        "fed.route_micros", {1000, 5000, 10000, 50000, 100000, 500000});
    m_migration_micros_ = metrics_->GetHistogram(
        "fed.migration_micros",
        {10000, 50000, 100000, 250000, 500000, 1000000, 5000000});
  } else {
    m_routed_ = nullptr;
    m_migrations_ = nullptr;
    m_migrations_failed_ = nullptr;
    m_route_micros_ = nullptr;
    m_migration_micros_ = nullptr;
  }
  fed_tid_ = 0;
  if (tracer_ != nullptr && !nodes_.empty()) {
    fed_tid_ = tracer_->Tid(nodes_[0].net_id, "federation");
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (metrics_ != nullptr) {
      const std::string prefix = "fed.node." + std::to_string(i) + ".";
      node.g_rooms = metrics_->GetGauge(prefix + "rooms");
      node.g_members = metrics_->GetGauge(prefix + "members");
      node.g_messages = metrics_->GetGauge(prefix + "messages");
      node.g_retries = metrics_->GetGauge(prefix + "retries");
      node.g_evictions = metrics_->GetGauge(prefix + "evictions");
      node.g_bytes = metrics_->GetGauge(prefix + "bytes_propagated");
      node.h_t2c = metrics_->GetHistogram(
          prefix + "t2c_micros",
          {10000, 50000, 100000, 250000, 500000, 1000000, 5000000});
    } else {
      node.g_rooms = nullptr;
      node.g_members = nullptr;
      node.g_messages = nullptr;
      node.g_retries = nullptr;
      node.g_evictions = nullptr;
      node.g_bytes = nullptr;
      node.h_t2c = nullptr;
    }
    node.server->SetObserver(metrics_, tracer_);
  }
}

Status FederatedInteractionTier::ConnectClient(net::NodeId client,
                                               const net::LinkSpec& spec) {
  for (const Node& node : nodes_) {
    MMCONF_RETURN_IF_ERROR(
        network_->SetDuplexLink(client, node.net_id, spec));
  }
  return Status::OK();
}

void FederatedInteractionTier::TrackRoom(const std::string& room_id,
                                         Bytes pristine) {
  room_docs_[room_id] = std::move(pristine);
}

Result<Room*> FederatedInteractionTier::OpenRoom(
    const std::string& room_id, const storage::ObjectRef& document_ref) {
  if (room_docs_.count(room_id) > 0) {
    return Status::AlreadyExists("room \"" + room_id +
                                 "\" already open in the federation");
  }
  size_t owner = placement_.NodeFor(room_id);
  MMCONF_ASSIGN_OR_RETURN(Bytes pristine,
                          db_->FetchBlob(document_ref, "FLD_DATA"));
  MMCONF_ASSIGN_OR_RETURN(Room * room,
                          nodes_[owner].server->OpenRoom(room_id,
                                                         document_ref));
  TrackRoom(room_id, std::move(pristine));
  return room;
}

Result<Room*> FederatedInteractionTier::OpenRoomWithDocument(
    const std::string& room_id, doc::MultimediaDocument document) {
  if (room_docs_.count(room_id) > 0) {
    return Status::AlreadyExists("room \"" + room_id +
                                 "\" already open in the federation");
  }
  size_t owner = placement_.NodeFor(room_id);
  Bytes pristine = document.Encode();
  MMCONF_ASSIGN_OR_RETURN(
      Room * room,
      nodes_[owner].server->OpenRoomWithDocument(room_id,
                                                 std::move(document)));
  TrackRoom(room_id, std::move(pristine));
  return room;
}

Status FederatedInteractionTier::CloseRoom(const std::string& room_id) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  MMCONF_RETURN_IF_ERROR(nodes_[owner].server->CloseRoom(room_id));
  room_docs_.erase(room_id);
  placement_.Unpin(room_id);
  migrations_.erase(room_id);
  t2c_folded_.erase(room_id);
  return Status::OK();
}

Result<size_t> FederatedInteractionTier::NodeOf(
    const std::string& room_id) const {
  if (room_docs_.count(room_id) == 0) {
    return Status::NotFound("no room \"" + room_id +
                            "\" in the federation");
  }
  return placement_.NodeFor(room_id);
}

Result<Room*> FederatedInteractionTier::GetRoom(const std::string& room_id) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  return nodes_[owner].server->GetRoom(room_id);
}

Status FederatedInteractionTier::Forward(size_t from_node, size_t to_node,
                                         size_t bytes, std::string tag) {
  MicrosT now = network_->clock()->NowMicros();
  MMCONF_ASSIGN_OR_RETURN(
      net::SendHandle handle,
      transport_->Send(nodes_[from_node].net_id, nodes_[to_node].net_id,
                       bytes, std::move(tag)));
  if (m_routed_ != nullptr) m_routed_->Add();
  if (m_route_micros_ != nullptr && handle.first_attempt_eta >= now) {
    m_route_micros_->Observe(handle.first_attempt_eta - now);
  }
  return Status::OK();
}

Result<MicrosT> FederatedInteractionTier::Join(const std::string& room_id,
                                               const ClientEndpoint& client) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  // Front-door admission: node 0 looks the room up and forwards the
  // request when it lives elsewhere.
  if (owner != 0) {
    MMCONF_RETURN_IF_ERROR(Forward(0, owner, kForwardHeaderBytes,
                                   "fed:admit:" + room_id));
  }
  return nodes_[owner].server->Join(room_id, client);
}

Status FederatedInteractionTier::Leave(const std::string& room_id,
                                       const std::string& viewer) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  return nodes_[owner].server->Leave(room_id, viewer);
}

Result<ReconfigResult> FederatedInteractionTier::SubmitChoice(
    const std::string& room_id, const std::string& viewer,
    const std::string& component, const std::string& presentation) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  return nodes_[owner].server->SubmitChoice(room_id, viewer, component,
                                            presentation);
}

Result<ReconfigResult> FederatedInteractionTier::ApplyOperation(
    const std::string& room_id, const UserAction& action,
    bool globally_important) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  return nodes_[owner].server->ApplyOperation(room_id, action,
                                              globally_important);
}

Result<MicrosT> FederatedInteractionTier::Broadcast(
    const std::string& room_id, const std::string& tag, size_t bytes) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  return nodes_[owner].server->Broadcast(room_id, tag, bytes);
}

Result<ReconfigResult> FederatedInteractionTier::SubmitChoiceVia(
    size_t via_node, const std::string& room_id, const std::string& viewer,
    const std::string& component, const std::string& presentation) {
  if (via_node >= nodes_.size()) {
    return Status::OutOfRange("no node " + std::to_string(via_node));
  }
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  if (via_node != owner) {
    MMCONF_RETURN_IF_ERROR(Forward(
        via_node, owner,
        kForwardHeaderBytes + component.size() + presentation.size(),
        "fed:route:" + room_id));
  }
  return nodes_[owner].server->SubmitChoice(room_id, viewer, component,
                                            presentation);
}

Result<MicrosT> FederatedInteractionTier::BroadcastVia(
    size_t via_node, const std::string& room_id, const std::string& tag,
    size_t bytes) {
  if (via_node >= nodes_.size()) {
    return Status::OutOfRange("no node " + std::to_string(via_node));
  }
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  if (via_node != owner) {
    MMCONF_RETURN_IF_ERROR(Forward(via_node, owner,
                                   kForwardHeaderBytes + bytes,
                                   "fed:route:" + room_id));
  }
  return nodes_[owner].server->Broadcast(room_id, tag, bytes);
}

Status FederatedInteractionTier::StartMigration(const std::string& room_id,
                                                size_t target_node) {
  MMCONF_ASSIGN_OR_RETURN(size_t owner, NodeOf(room_id));
  if (target_node >= nodes_.size()) {
    return Status::OutOfRange("no node " + std::to_string(target_node));
  }
  if (target_node == owner) {
    return Status::InvalidArgument("room \"" + room_id +
                                   "\" already lives on node " +
                                   std::to_string(target_node));
  }
  if (migrations_.count(room_id) > 0) {
    return Status::FailedPrecondition("room \"" + room_id +
                                      "\" is already migrating");
  }
  MMCONF_ASSIGN_OR_RETURN(Room * room,
                          nodes_[owner].server->GetRoom(room_id));
  if (!room->replayable()) {
    return Status::FailedPrecondition(
        "room \"" + room_id +
        "\" had structural document edits its log cannot replay; it "
        "cannot migrate");
  }
  Bytes state = room->Serialize();
  MMCONF_ASSIGN_OR_RETURN(
      net::SendHandle handle,
      transport_->Send(nodes_[owner].net_id, nodes_[target_node].net_id,
                       state.size(), "fed:state:" + room_id));
  ActiveMigration migration;
  migration.from = owner;
  migration.to = target_node;
  migration.log_snapshot = room->action_log().size();
  migration.state_msg = handle.id;
  migration.state_bytes = state.size();
  migration.started_at = network_->clock()->NowMicros();
  migrations_[room_id] = migration;
  if (tracer_ != nullptr) {
    tracer_->Instant(nodes_[0].net_id, fed_tid_, "migrate-start",
                     "federation", "bytes",
                     static_cast<int64_t>(state.size()));
  }
  return Status::OK();
}

Result<MigrationReport> FederatedInteractionTier::FinishMigration(
    const std::string& room_id) {
  auto it = migrations_.find(room_id);
  if (it == migrations_.end()) {
    return Status::NotFound("room \"" + room_id + "\" is not migrating");
  }
  const ActiveMigration migration = it->second;
  auto fail = [&](Status why) -> Result<MigrationReport> {
    migrations_.erase(room_id);
    if (m_migrations_failed_ != nullptr) m_migrations_failed_->Add();
    if (tracer_ != nullptr) {
      tracer_->Instant(nodes_[0].net_id, fed_tid_, "migrate-failed",
                       "federation");
    }
    return why;
  };
  // Resolve the state transfer (and everything else in flight) without
  // admitting new stream chunks — live streams must quiesce at a chunk
  // boundary so their positions can move with the room.
  loop_.Drain();
  Result<net::SendState> state = transport_->StateOf(migration.state_msg);
  if (!state.ok() || *state != net::SendState::kAcked) {
    return fail(Status::ResourceExhausted(
        "state transfer of room \"" + room_id + "\" to node " +
        std::to_string(migration.to) +
        " failed; the room stays on node " +
        std::to_string(migration.from)));
  }
  transport_->Forget(migration.state_msg);

  InteractionServer* source = nodes_[migration.from].server.get();
  InteractionServer* target = nodes_[migration.to].server.get();
  MMCONF_ASSIGN_OR_RETURN(Room * source_room, source->GetRoom(room_id));
  const size_t log_size = source_room->action_log().size();
  const size_t delta = log_size - migration.log_snapshot;
  // Ship the post-Start action delta the same reliable way — a target
  // that died after the snapshot landed still aborts the migration here.
  if (delta > 0) {
    MMCONF_ASSIGN_OR_RETURN(
        net::SendHandle delta_handle,
        transport_->Send(nodes_[migration.from].net_id,
                         nodes_[migration.to].net_id,
                         delta * kForwardHeaderBytes,
                         "fed:delta:" + room_id));
    loop_.Drain();
    Result<net::SendState> delta_state =
        transport_->StateOf(delta_handle.id);
    if (!delta_state.ok() || *delta_state != net::SendState::kAcked) {
      return fail(Status::ResourceExhausted(
          "action-delta transfer of room \"" + room_id + "\" to node " +
          std::to_string(migration.to) +
          " failed; the room stays on node " +
          std::to_string(migration.from)));
    }
    transport_->Forget(delta_handle.id);
  }

  // Rebuild the room on the target by replaying the full log against the
  // pristine document, then require byte-identical convergence with the
  // still-live source copy before anything is torn down.
  MMCONF_ASSIGN_OR_RETURN(
      doc::MultimediaDocument pristine,
      doc::MultimediaDocument::Decode(room_docs_.at(room_id)));
  MMCONF_ASSIGN_OR_RETURN(
      std::unique_ptr<Room> target_room,
      Room::Replay(room_id, std::move(pristine),
                   source_room->action_log()));
  if (target_room->Serialize() != source_room->Serialize()) {
    return fail(Status::Internal(
        "replayed state of room \"" + room_id +
        "\" diverged from the source; migration aborted before cutover"));
  }

  MMCONF_ASSIGN_OR_RETURN(auto members, source->RoomEndpoints(room_id));
  Result<std::vector<stream::StreamCarryover>> carried =
      source->ExportRoomStreams(room_id);
  if (!carried.ok()) return fail(carried.status());

  // Cutover: from here the target copy is the room.
  MMCONF_RETURN_IF_ERROR(
      target->AdoptRoom(room_id, std::move(target_room), std::move(members))
          .status());
  MicrosT now = network_->clock()->NowMicros();
  for (const stream::StreamCarryover& carry : carried.value()) {
    MicrosT shift = 0;
    if (!carry.chunks.empty()) {
      MicrosT first = carry.chunks.front().deadline;
      if (now + carry.options.interval_micros > first) {
        shift = now + carry.options.interval_micros - first;
      }
    }
    MMCONF_RETURN_IF_ERROR(target->AdoptStream(room_id, carry, shift));
  }
  MMCONF_RETURN_IF_ERROR(placement_.Pin(room_id, migration.to));
  source->CloseRoom(room_id).ok();
  migrations_.erase(room_id);
  // Members learn their new home from it, reliably.
  MMCONF_RETURN_IF_ERROR(
      target->Broadcast(room_id, "fed:rebind", kForwardHeaderBytes)
          .status());

  MigrationReport report;
  report.room_id = room_id;
  report.from_node = migration.from;
  report.to_node = migration.to;
  report.state_bytes = migration.state_bytes;
  report.replayed_actions = log_size;
  report.delta_actions = delta;
  report.streams_carried = carried->size();
  report.started_at = migration.started_at;
  report.completed_at = network_->clock()->NowMicros();
  report.verified = true;
  if (m_migrations_ != nullptr) m_migrations_->Add();
  if (m_migration_micros_ != nullptr) {
    m_migration_micros_->Observe(report.completed_at - report.started_at);
  }
  if (tracer_ != nullptr) {
    tracer_->Span(nodes_[0].net_id, fed_tid_,
                  ("migrate:" + room_id).c_str(), "federation",
                  report.started_at,
                  std::max(report.completed_at, report.started_at + 1),
                  "actions", static_cast<int64_t>(report.replayed_actions));
  }
  if (on_room_moved_) {
    on_room_moved_(room_id, migration.from, migration.to);
  }
  return report;
}

Result<MigrationReport> FederatedInteractionTier::MigrateRoom(
    const std::string& room_id, size_t target_node) {
  MMCONF_RETURN_IF_ERROR(StartMigration(room_id, target_node));
  return FinishMigration(room_id);
}

Status FederatedInteractionTier::AbortMigration(const std::string& room_id) {
  if (migrations_.erase(room_id) == 0) {
    return Status::NotFound("room \"" + room_id + "\" is not migrating");
  }
  return Status::OK();
}

std::vector<NodeLoad> FederatedInteractionTier::Loads() {
  std::vector<NodeLoad> loads(nodes_.size());
  for (const auto& [room_id, pristine] : room_docs_) {
    size_t owner = placement_.NodeFor(room_id);
    InteractionServer* server = nodes_[owner].server.get();
    NodeLoad& load = loads[owner];
    ++load.rooms;
    Result<Room*> room = server->GetRoom(room_id);
    if (room.ok()) load.members += (*room)->members().size();
    Result<server::RoomReliabilityStats> stats = server->RoomStats(room_id);
    if (!stats.ok()) continue;
    load.messages += stats->messages;
    load.retries += stats->retries;
    load.evictions += stats->evictions;
    // Tail latency: fold each room's newest converged round once.
    MicrosT& folded = t2c_folded_[room_id];
    if (stats->last_propagate_at > 0 &&
        stats->last_converged_at >= stats->last_propagate_at &&
        stats->last_converged_at > folded) {
      folded = stats->last_converged_at;
      if (nodes_[owner].h_t2c != nullptr) {
        nodes_[owner].h_t2c->Observe(stats->last_converged_at -
                                     stats->last_propagate_at);
      }
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    loads[i].bytes_propagated = nodes_[i].server->bytes_propagated();
    Node& node = nodes_[i];
    if (node.g_rooms != nullptr) {
      node.g_rooms->Set(static_cast<int64_t>(loads[i].rooms));
      node.g_members->Set(static_cast<int64_t>(loads[i].members));
      node.g_messages->Set(static_cast<int64_t>(loads[i].messages));
      node.g_retries->Set(static_cast<int64_t>(loads[i].retries));
      node.g_evictions->Set(static_cast<int64_t>(loads[i].evictions));
      node.g_bytes->Set(static_cast<int64_t>(loads[i].bytes_propagated));
    }
  }
  return loads;
}

}  // namespace mmconf::federation
