#include "workload/chaos.h"

#include <algorithm>
#include <utility>

#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "doc/tuning.h"
#include "media/synthetic.h"
#include "server/events.h"
#include "server/room.h"
#include "storage/database.h"
#include "workload/timeline.h"

namespace mmconf::workload {
namespace {

/// Name of the tuning variable AddBandwidthTuning appends; contexts pin
/// it as evidence through the normal choice path.
constexpr char kTuningVar[] = "net";

Bytes EncodeStreamObject(Rng& rng) {
  media::Image image = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
  compress::LayeredCodec codec;
  return codec.Encode(image).value();
}

}  // namespace

ChaosDriver::ChaosDriver(const ChaosOptions& options,
                         obs::MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics != nullptr ? metrics : &owned_metrics_) {
  if (options_.federation_nodes == 0) options_.federation_nodes = 1;
  if (options_.storage_shards == 0) options_.storage_shards = 1;
}

ChaosDriver::~ChaosDriver() = default;

Result<doc::MultimediaDocument> ChaosDriver::BuildDocument(
    uint64_t kind, uint64_t segments) {
  Result<doc::MultimediaDocument> built =
      kind == 1 ? MakeTimelineDocument(
                      {segments > 0 ? static_cast<size_t>(segments) : 4})
                : doc::MakeMedicalRecordDocument();
  if (!built.ok()) return built.status();
  doc::MultimediaDocument document = std::move(built).value();
  Result<cpnet::VarId> tuned = doc::AddBandwidthTuning(document, kTuningVar);
  if (!tuned.ok()) return tuned.status();
  return document;
}

Status ChaosDriver::ApplyContext(int slot, const ClientContext& context) {
  net::NodeId node = client_nodes_.at(slot);
  net::LinkSpec spec = ContextLinkSpec(context);
  net::FaultSpec fault;
  fault.drop_probability = options_.drop_probability;
  fault.jitter_micros = options_.jitter_micros;
  auto flaps = client_flaps_.find(slot);
  if (flaps != client_flaps_.end()) fault.flaps = flaps->second;
  for (size_t i = 0; i < tier_->num_nodes(); ++i) {
    net::NodeId server = tier_->node_net(i);
    MMCONF_RETURN_IF_ERROR(network_->SetLink(node, server, spec));
    MMCONF_RETURN_IF_ERROR(network_->SetLink(server, node, spec));
    MMCONF_RETURN_IF_ERROR(network_->SetDuplexFault(node, server, fault));
  }
  client_contexts_[slot] = context;
  return Status::OK();
}

Status ChaosDriver::EnsureClient(int slot, const ClientContext& context) {
  auto found = client_nodes_.find(slot);
  if (found == client_nodes_.end()) {
    net::NodeId node =
        network_->AddNode("client-" + std::to_string(slot));
    MMCONF_RETURN_IF_ERROR(
        tier_->ConnectClient(node, ContextLinkSpec(context)));
    client_nodes_[slot] = node;
    return ApplyContext(slot, context);
  }
  if (!(client_contexts_[slot] == context)) {
    return ApplyContext(slot, context);
  }
  return Status::OK();
}

Status ChaosDriver::PinEvidence(const std::string& room,
                                const std::string& viewer,
                                const ClientContext& context) {
  Result<server::ReconfigResult> pinned = tier_->SubmitChoice(
      room, viewer, kTuningVar,
      doc::BandwidthLevelToString(EffectiveLevel(context)));
  return pinned.ok() ? Status::OK() : pinned.status();
}

void ChaosDriver::SkipEvent(const WorkloadEvent& event, const Status& status,
                            ChaosReport& report) {
  ++report.events_skipped;
  if (report.skip_samples.size() < options_.max_skip_samples) {
    report.skip_samples.push_back(event.ToText() + " -> " +
                                  status.ToString());
  }
}

Status ChaosDriver::RunEvent(const WorkloadEvent& event,
                             ChaosReport& report) {
  switch (event.kind) {
    case EventKind::kOpenRoom: {
      MMCONF_ASSIGN_OR_RETURN(doc::MultimediaDocument document,
                              BuildDocument(event.a, event.b));
      // Through the database on purpose: the document BLOB lands on a
      // WAL-backed shard, so shard crashes have state worth damaging.
      MMCONF_ASSIGN_OR_RETURN(
          storage::ObjectRef ref,
          tier_->node(0)->StoreDocument(document, event.room));
      MMCONF_ASSIGN_OR_RETURN(server::Room * opened,
                              tier_->OpenRoom(event.room, ref));
      (void)opened;
      rooms_[event.room] = {event.a, event.b, false, true};
      ++report.rooms_opened;
      return Status::OK();
    }
    case EventKind::kCloseRoom: {
      // Archive the minutes first (more durable-tier traffic), then tear
      // down broadcast and room.
      Result<size_t> owner = tier_->NodeOf(event.room);
      if (owner.ok()) {
        tier_->node(owner.value())->ArchiveRoomLog(event.room).ok();
      }
      auto info = rooms_.find(event.room);
      if (info != rooms_.end() && info->second.hosted) {
        director_->CloseBroadcast(event.room).ok();
        info->second.hosted = false;
      }
      MMCONF_RETURN_IF_ERROR(tier_->CloseRoom(event.room));
      if (info != rooms_.end()) info->second.open = false;
      ++report.rooms_closed;
      return Status::OK();
    }
    case EventKind::kJoin: {
      MMCONF_RETURN_IF_ERROR(EnsureClient(event.client, event.context));
      Result<MicrosT> joined = tier_->Join(
          event.room, {event.viewer, client_nodes_.at(event.client)});
      if (!joined.ok()) return joined.status();
      return PinEvidence(event.room, event.viewer, event.context);
    }
    case EventKind::kLeave:
      return tier_->Leave(event.room, event.viewer);
    case EventKind::kSetContext: {
      MMCONF_RETURN_IF_ERROR(EnsureClient(event.client, event.context));
      MMCONF_ASSIGN_OR_RETURN(server::Room * room,
                              tier_->GetRoom(event.room));
      if (!room->HasMember(event.viewer)) {
        return Status::NotFound(event.viewer + " not in " + event.room);
      }
      return PinEvidence(event.room, event.viewer, event.context);
    }
    case EventKind::kChoice: {
      Result<server::ReconfigResult> applied =
          tier_->SubmitChoice(event.room, event.viewer, event.component,
                              event.presentation);
      return applied.ok() ? Status::OK() : applied.status();
    }
    case EventKind::kOperation: {
      server::UserAction action;
      action.type = static_cast<server::ActionType>(event.a);
      action.viewer = event.viewer;
      action.component = event.component;
      action.text = "chaos note";
      action.region = {8, 8, 48, 48};
      action.num_segments = 4;
      action.timestamp = clock_.NowMicros();
      Result<server::ReconfigResult> applied =
          tier_->ApplyOperation(event.room, action, event.b != 0);
      return applied.ok() ? Status::OK() : applied.status();
    }
    case EventKind::kBroadcast: {
      std::string tag = "chaos:" + (event.presentation.empty()
                                        ? std::string("note")
                                        : event.presentation);
      Result<MicrosT> sent =
          tier_->Broadcast(event.room, tag, event.a);
      return sent.ok() ? Status::OK() : sent.status();
    }
    case EventKind::kOpenStream: {
      MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(event.room));
      size_t count = std::max<uint64_t>(1, event.a);
      count = std::min(count, media_pool_.size());
      std::vector<Bytes> objects(media_pool_.begin(),
                                 media_pool_.begin() +
                                     static_cast<ptrdiff_t>(count));
      stream::StreamOptions options;
      options.interval_micros = event.b > 0
                                    ? static_cast<MicrosT>(event.b)
                                    : 200'000;
      options.start_deadline_micros =
          clock_.NowMicros() + options.interval_micros;
      Result<stream::StreamId> opened = tier_->node(owner)->OpenStream(
          event.room, event.viewer, objects, options);
      if (!opened.ok()) return opened.status();
      ++report.streams_opened;
      return Status::OK();
    }
    case EventKind::kMigrateRoom: {
      if (tier_->num_nodes() < 2) return Status::OK();
      MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(event.room));
      size_t target =
          (owner + std::max<uint64_t>(1, event.a)) % tier_->num_nodes();
      if (target == owner) target = (owner + 1) % tier_->num_nodes();
      auto info = rooms_.find(event.room);
      bool hosted = info != rooms_.end() && info->second.hosted;
      Result<federation::MigrationReport> moved =
          hosted ? director_->MigrateBroadcast(event.room, target)
                 : tier_->MigrateRoom(event.room, target);
      if (moved.ok()) {
        ++report.migrations;
      } else {
        // An aborted migration (e.g. the target flapped mid-transfer)
        // leaves the room intact on the source — tolerated, counted.
        ++report.migrations_failed;
      }
      return Status::OK();
    }
    case EventKind::kHostBroadcast: {
      Result<fanout::BroadcastSession*> hosted =
          director_->HostBroadcast(event.room, event.a);
      if (!hosted.ok()) return hosted.status();
      auto info = rooms_.find(event.room);
      if (info != rooms_.end()) info->second.hosted = true;
      // Give the mosaic pixels to compose: the first two image
      // components of the room's document kind.
      const char* first = "CT";
      const char* second = "XRay";
      std::string seg0 = TimelineSegmentName(0);
      std::string seg1 = TimelineSegmentName(1);
      if (info != rooms_.end() && info->second.doc_kind == 1) {
        first = seg0.c_str();
        second = info->second.segments > 1 ? seg1.c_str() : nullptr;
      }
      director_
          ->RegisterImage(event.room, first,
                          media::MakePhantomCt({64, 64, 4, 2.0}, media_rng_))
          .ok();
      if (second != nullptr) {
        director_
            ->RegisterImage(
                event.room, second,
                media::MakePhantomCt({64, 64, 4, 2.0}, media_rng_))
            .ok();
      }
      return Status::OK();
    }
    case EventKind::kAdmitViewers:
      return director_->AdmitViewers(event.room, event.a,
                                     EffectiveLevel(event.context));
    case EventKind::kPushFrame: {
      MMCONF_RETURN_IF_ERROR(director_->PushFrame(event.room));
      ++report.broadcast_frames;
      return Status::OK();
    }
    case EventKind::kLinkFlap:
      // Installed up front as FaultSpec windows (see Run): the network
      // evaluates them at Send time, so they bite even though Settle()
      // may advance virtual time in large steps.
      return Status::OK();
    case EventKind::kShardCrash: {
      size_t shard = event.a % db_->num_shards();
      auto kind = static_cast<storage::WalCrashKind>(event.b % 3);
      storage::WalCrashImage image =
          injector_->Crash(*db_->shard_wal(shard), kind);
      // Control: a fresh server holding exactly what recovery should
      // reproduce. With replication on, the shard's WAL only covers the
      // current epoch, so the control replays on top of the checkpoint.
      storage::DatabaseServer fresh;
      if (repl_ != nullptr && !repl_->checkpoint(shard).empty()) {
        MMCONF_RETURN_IF_ERROR(fresh.LoadFrom(repl_->checkpoint(shard)));
      }
      Result<storage::WalReplayStats> replayed =
          storage::ShardedDatabaseServer::ReplayLogInto(image.log, &fresh);
      Result<storage::WalReplayStats> recovered =
          repl_ != nullptr ? repl_->RecoverPrimary(shard, image.log)
                           : db_->RecoverShardFromLog(shard, image.log);
      // Recovery re-pushes registrations the damaged image lost (schema
      // is facade-global bootstrap metadata); the control gets the same
      // bootstrap so byte-exactness is judged on equal terms.
      MMCONF_RETURN_IF_ERROR(db_->HealSchema(&fresh, nullptr));
      ++report.shard_crashes;
      std::string detail;
      if (!replayed.ok()) {
        detail = "control replay: " + replayed.status().ToString();
      } else if (!recovered.ok()) {
        detail = "recovery: " + recovered.status().ToString();
      } else if (recovered.value().records_applied != image.clean_records) {
        detail = "replayed " +
                 std::to_string(recovered.value().records_applied) + " of " +
                 std::to_string(image.clean_records) + " clean records";
      } else if (fresh.Serialize() != db_->shard(shard)->Serialize()) {
        detail = "serialized image differs from control";
      } else if (!db_->shard(shard)->blob_store().VerifyAllPages().ok()) {
        detail = "blob page checksum failed";
      }
      if (!detail.empty()) {
        report.invariants.storage_recovery_exact = false;
        report.invariants.violations.push_back(
            "shard " + std::to_string(shard) + " " +
            storage::WalCrashKindToString(kind) +
            " crash did not recover byte-exactly (" + detail + ")");
      }
      // Recovery may have rolled the shard back to the clean prefix:
      // cached reads from the rolled-back tail would be stale.
      if (cache_ != nullptr) {
        cache_->InvalidateShard(
            shard, [this](const storage::ObjectRef& ref) {
              return db_->ShardOf(ref);
            });
      }
      return Status::OK();
    }
    case EventKind::kNodeLoss: {
      ++report.node_losses;
      // Without replication there is no follower to promote; the event
      // is a no-op by design (the generator gates it the same way).
      if (repl_ == nullptr) return Status::OK();
      size_t shard = event.a % db_->num_shards();
      // Drain the wire first: the zero-loss contract covers writes the
      // primary group-committed AND a follower acknowledged. Settling to
      // quiescence makes those two sets equal, so the invariant below
      // can demand byte-exactness rather than a bounded gap.
      MMCONF_RETURN_IF_ERROR(tier_->loop()->Settle().status());
      // Control: what a never-crashed replica holds — the checkpoint
      // image plus the primary's durable (group-committed) log.
      storage::DatabaseServer control;
      if (!repl_->checkpoint(shard).empty()) {
        MMCONF_RETURN_IF_ERROR(control.LoadFrom(repl_->checkpoint(shard)));
      }
      const storage::WriteAheadLog* wal = db_->shard_wal(shard);
      size_t acked_records = wal->durable_records();
      Result<storage::WalReplayStats> control_replay =
          storage::ShardedDatabaseServer::ReplayLogInto(wal->durable(),
                                                        &control);
      Result<storage::PromotionReport> promoted = repl_->Promote(shard, 0);
      if (promoted.ok()) ++report.promotions;
      // Promotion heals registrations the follower never received; the
      // control replica gets the same bootstrap (see kShardCrash).
      MMCONF_RETURN_IF_ERROR(db_->HealSchema(&control, nullptr));
      std::string detail;
      if (!control_replay.ok()) {
        detail = "control replay: " + control_replay.status().ToString();
      } else if (!promoted.ok()) {
        detail = "promotion: " + promoted.status().ToString();
      } else if (promoted.value().diverged) {
        detail = "follower history diverged";
      } else if (promoted.value().replayed_records != acked_records) {
        detail = "replayed " +
                 std::to_string(promoted.value().replayed_records) + " of " +
                 std::to_string(acked_records) + " acked records";
      } else if (db_->shard(shard)->Serialize() != control.Serialize()) {
        detail = "promoted image differs from never-crashed control";
      }
      if (!detail.empty()) {
        report.invariants.replication_failover_exact = false;
        report.invariants.violations.push_back(
            "shard " + std::to_string(shard) +
            " follower promotion lost acked writes (" + detail + ")");
      }
      // Promotion rolled the shard to the follower's verified prefix;
      // drop exactly that shard's cached entries (coherence hook).
      if (cache_ != nullptr) {
        cache_->InvalidateShard(
            shard, [this](const storage::ObjectRef& ref) {
              return db_->ShardOf(ref);
            });
      }
      // Resync the remaining followers behind the new primary (the
      // promotion began a fresh epoch).
      return tier_->loop()->Settle().status();
    }
  }
  return Status::InvalidArgument("unknown event kind");
}

void ChaosDriver::CheckInvariants(ChaosReport& report) {
  tier_->Loads();  // refresh fed.node.<i>.* gauges and t2c histograms
  InvariantReport& inv = report.invariants;

  for (const auto& [room_id, info] : rooms_) {
    if (!info.open) continue;
    Result<size_t> owner = tier_->NodeOf(room_id);
    Result<server::Room*> live = tier_->GetRoom(room_id);
    if (!owner.ok() || !live.ok()) {
      inv.rooms_converged = false;
      inv.violations.push_back("room " + room_id +
                               " vanished while marked open");
      continue;
    }
    if (!tier_->node(owner.value())->RoomConverged(room_id)) {
      inv.rooms_converged = false;
      inv.violations.push_back("room " + room_id +
                               " has unsettled reliable messages");
    }
    if (live.value()->replayable()) {
      // Replay against the same provenance the room was opened on:
      // build -> Encode -> Decode, matching the database round trip.
      Result<doc::MultimediaDocument> built =
          BuildDocument(info.doc_kind, info.segments);
      Result<doc::MultimediaDocument> pristine =
          built.ok() ? doc::MultimediaDocument::Decode(built.value().Encode())
                     : built.status();
      Result<std::unique_ptr<server::Room>> replayed =
          pristine.ok() ? server::Room::Replay(room_id,
                                               std::move(pristine).value(),
                                               live.value()->action_log())
                        : pristine.status();
      if (!replayed.ok() ||
          replayed.value()->Serialize() != live.value()->Serialize()) {
        inv.serialize_converged = false;
        inv.violations.push_back(
            "room " + room_id +
            " action-log replay does not reproduce the live state");
      }
    }
  }

  obs::MetricsSnapshot snapshot = metrics_->Snapshot();
  auto counter = [&snapshot](const std::string& name) -> uint64_t {
    auto found = snapshot.counters.find(name);
    return found != snapshot.counters.end() ? found->second : 0;
  };
  uint64_t aborts = counter("stream.aborts");
  if (aborts > 0) {
    inv.base_layers_intact = false;
    inv.violations.push_back(std::to_string(aborts) +
                             " stream(s) aborted a base layer");
  }
  auto stall = snapshot.histograms.find("stream.stall_micros");
  if (stall != snapshot.histograms.end()) {
    report.max_stall_micros = stall->second.max;
    if (stall->second.max > options_.stall_budget_micros) {
      inv.stalls_within_budget = false;
      inv.violations.push_back(
          "max playout stall " + std::to_string(stall->second.max) +
          "us exceeds budget " +
          std::to_string(options_.stall_budget_micros) + "us");
    }
  }
  for (size_t i = 0; i < tier_->num_nodes(); ++i) {
    auto t2c = snapshot.histograms.find("fed.node." + std::to_string(i) +
                                        ".t2c_micros");
    if (t2c == snapshot.histograms.end()) continue;
    report.max_t2c_micros = std::max(report.max_t2c_micros, t2c->second.max);
    if (t2c->second.max > options_.t2c_budget_micros) {
      inv.t2c_within_budget = false;
      inv.violations.push_back(
          "node " + std::to_string(i) + " time-to-consistency " +
          std::to_string(t2c->second.max) + "us exceeds budget " +
          std::to_string(options_.t2c_budget_micros) + "us");
    }
  }
  report.wire_bytes = network_->TotalBytesSent();
  report.end_micros = clock_.NowMicros();
}

Result<ChaosReport> ChaosDriver::Run(const WorkloadTrace& trace) {
  if (ran_) {
    return Status::FailedPrecondition("a ChaosDriver runs one trace");
  }
  ran_ = true;

  // Stand the stack up. Every random stream descends from the trace
  // seed, so the run — metrics snapshot included — is reproducible.
  network_ = std::make_unique<net::Network>(&clock_, trace.seed);
  storage::ShardedDatabaseServer::Options db_options;
  db_options.num_shards = options_.storage_shards;
  db_ = std::make_unique<storage::ShardedDatabaseServer>(&clock_,
                                                         db_options);
  db_node_ = network_->AddNode("db");
  MMCONF_RETURN_IF_ERROR(db_->RegisterStandardTypes());
  if (options_.replication_followers > 0) {
    cache_ = std::make_unique<storage::ReadThroughCache>(
        db_.get(), options_.replication_cache_bytes);
  }
  federation::FederationOptions fed_options;
  fed_options.num_nodes = options_.federation_nodes;
  fed_options.backbone = options_.backbone;
  fed_options.retry = options_.retry;
  tier_ = std::make_unique<federation::FederatedInteractionTier>(
      cache_ != nullptr ? static_cast<storage::ObjectStore*>(cache_.get())
                        : db_.get(),
      network_.get(), db_node_, fed_options);
  director_ =
      std::make_unique<fanout::BroadcastDirector>(tier_.get(), network_.get());
  if (options_.replication_followers > 0) {
    storage::ReplicationOptions repl_options;
    repl_options.followers_per_shard = options_.replication_followers;
    repl_options.checkpoint_log_bytes = options_.replication_checkpoint_bytes;
    repl_ = std::make_unique<storage::ReplicatedShardSet>(
        db_.get(), tier_->transport(), &clock_, db_node_, repl_options);
    tier_->loop()->Register(repl_.get());
  }
  injector_ = std::make_unique<storage::WalCrashInjector>(trace.seed);
  media_rng_ = Rng(trace.seed ^ 0x6d656469615f726eull);
  db_->SetObserver(metrics_, nullptr);
  network_->SetObserver(metrics_, nullptr);
  tier_->SetObserver(metrics_, nullptr);
  director_->SetObserver(metrics_, nullptr);
  if (cache_ != nullptr) cache_->SetObserver(metrics_);
  if (repl_ != nullptr) repl_->SetObserver(metrics_, nullptr);
  MMCONF_RETURN_IF_ERROR(tier_->node(0)->RegisterDocumentType());
  media_pool_.clear();
  for (int i = 0; i < 3; ++i) {
    media_pool_.push_back(EncodeStreamObject(media_rng_));
  }

  // Scheduled link flaps must be on the links before traffic starts:
  // Settle() advances virtual time in arbitrary jumps, so mid-run
  // SetFault calls could land after their window. The network checks
  // the windows at Send time, which makes up-front installation exact.
  for (const WorkloadEvent& event : trace.events) {
    if (event.kind != EventKind::kLinkFlap) continue;
    client_flaps_[event.client].push_back(
        {event.at,
         event.at + static_cast<MicrosT>(event.a)});
  }

  ChaosReport report;
  report.events_total = trace.events.size();
  MicrosT batch_at = -1;
  for (const WorkloadEvent& event : trace.events) {
    if (event.at != batch_at) {
      MMCONF_RETURN_IF_ERROR(tier_->loop()->Settle().status());
      clock_.AdvanceTo(event.at);
      batch_at = event.at;
    }
    Status status = RunEvent(event, report);
    if (status.ok()) {
      ++report.events_applied;
    } else {
      SkipEvent(event, status, report);
    }
  }
  MMCONF_RETURN_IF_ERROR(tier_->loop()->Settle().status());
  CheckInvariants(report);
  return report;
}

}  // namespace mmconf::workload
