#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "doc/builder.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/interaction_server.h"
#include "storage/database.h"
#include "storage/sharded_db.h"
#include "storage/wal.h"

namespace mmconf::storage {
namespace {

Bytes RandomBytes(size_t n, Rng& rng) {
  Bytes data(n);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

std::map<std::string, FieldValue> ImageFields(int64_t quality,
                                              const std::string& note) {
  return {{"FLD_QUALITY", FieldValue{quality}},
          {"FLD_TEXTS", FieldValue{note}},
          {"FLD_CM", FieldValue{std::string("cm")}}};
}

TEST(ShardedDbTest, RoutesAcrossShardsAndFetchesBack) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 4;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(5);
  std::map<std::string, Bytes> payloads;
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 32; ++i) {
    Bytes blob = RandomBytes(200 + 40 * i, rng);
    ObjectRef ref =
        db.Store("Image", ImageFields(i, "img-" + std::to_string(i)),
                 {{"FLD_DATA", blob}})
            .value();
    payloads.emplace(ref.type + "/" + std::to_string(ref.id), blob);
    refs.push_back(ref);
  }
  // Ids are facade-assigned and dense.
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].id, i + 1);
  }
  // 32 hashed objects land on more than one of 4 shards.
  size_t populated = 0;
  size_t total = 0;
  for (size_t s = 0; s < db.num_shards(); ++s) {
    size_t count = db.shard(s)->List("Image").value().size();
    total += count;
    if (count > 0) ++populated;
  }
  EXPECT_EQ(total, refs.size());
  EXPECT_GT(populated, 1u);
  // Every ref fetches its own content through the facade.
  for (const ObjectRef& ref : refs) {
    ObjectRecord record = db.FetchRecord(ref).value();
    EXPECT_EQ(record.id, ref.id);
    EXPECT_EQ(db.FetchBlob(ref, "FLD_DATA").value(),
              payloads.at(ref.type + "/" + std::to_string(ref.id)));
    EXPECT_EQ(db.BlobSize(ref, "FLD_DATA").value(),
              payloads.at(ref.type + "/" + std::to_string(ref.id)).size());
  }
}

TEST(ShardedDbTest, ListMergesShardsInAscendingIdOrder) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 3;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  for (int i = 0; i < 20; ++i) {
    db.Store("Text", {{"FLD_TITLE", FieldValue{std::string("t")}}},
             {{"FLD_DATA", Bytes{1, 2, 3}}})
        .value();
  }
  std::vector<ObjectRef> listed = db.List("Text").value();
  ASSERT_EQ(listed.size(), 20u);
  for (size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(listed[i].id, i + 1);
  }
  EXPECT_TRUE(db.List("Nope").status().IsNotFound());
}

TEST(ShardedDbTest, BehavesLikeSingleDatabaseServer) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 4;
  ShardedDatabaseServer sharded(&clock, options);
  DatabaseServer single;
  ASSERT_TRUE(sharded.RegisterStandardTypes().ok());
  ASSERT_TRUE(single.RegisterStandardTypes().ok());
  Rng rng(9);
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 16; ++i) {
    Bytes blob = RandomBytes(100 + 10 * i, rng);
    ObjectRef a =
        sharded.Store("Image", ImageFields(i, "x"), {{"FLD_DATA", blob}})
            .value();
    ObjectRef b =
        single.Store("Image", ImageFields(i, "x"), {{"FLD_DATA", blob}})
            .value();
    ASSERT_EQ(a.id, b.id);
    refs.push_back(a);
  }
  ASSERT_TRUE(sharded
                  .Modify(refs[3], {{"FLD_QUALITY", FieldValue{int64_t{99}}}},
                          {})
                  .ok());
  ASSERT_TRUE(
      single.Modify(refs[3], {{"FLD_QUALITY", FieldValue{int64_t{99}}}}, {})
          .ok());
  ASSERT_TRUE(sharded.Delete(refs[7]).ok());
  ASSERT_TRUE(single.Delete(refs[7]).ok());
  EXPECT_EQ(sharded.List("Image").value(), single.List("Image").value());
  for (const ObjectRef& ref : refs) {
    if (ref.id == refs[7].id) {
      EXPECT_TRUE(sharded.FetchRecord(ref).status().IsNotFound());
      continue;
    }
    // Blob ids are a per-store implementation detail (each shard runs
    // its own BlobStore), so compare scalars and blob payloads instead
    // of raw field maps.
    ObjectRecord a = sharded.FetchRecord(ref).value();
    ObjectRecord b = single.FetchRecord(ref).value();
    ASSERT_EQ(a.fields.size(), b.fields.size());
    for (const auto& [name, value] : a.fields) {
      if (TypeOf(value) == FieldType::kBlob) {
        EXPECT_EQ(sharded.FetchBlob(ref, name).value(),
                  single.FetchBlob(ref, name).value());
      } else {
        EXPECT_EQ(value, b.fields.at(name));
      }
    }
  }
  // Errors surface identically: unknown type, missing object.
  EXPECT_TRUE(sharded.Store("Nope", {}, {}).status().IsNotFound());
  EXPECT_TRUE(sharded.Delete({"Image", 999}).IsNotFound());
  EXPECT_TRUE(sharded
                  .Modify({"Image", 999},
                          {{"FLD_QUALITY", FieldValue{int64_t{1}}}}, {})
                  .IsNotFound());
}

TEST(ShardedDbTest, WalReplayReproducesEachShardByteForByte) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 3;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(13);
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 24; ++i) {
    refs.push_back(db.Store("Image", ImageFields(i, "r" + std::to_string(i)),
                            {{"FLD_DATA", RandomBytes(300, rng)}})
                       .value());
    clock.AdvanceMicros(1700);
  }
  ASSERT_TRUE(
      db.Modify(refs[5], {}, {{"FLD_DATA", RandomBytes(900, rng)}}).ok());
  ASSERT_TRUE(db.Delete(refs[11]).ok());
  db.SyncAll();
  for (size_t s = 0; s < db.num_shards(); ++s) {
    const WriteAheadLog* wal = db.shard_wal(s);
    EXPECT_EQ(wal->pending_records(), 0u);
    DatabaseServer fresh;
    WalReplayStats stats =
        ShardedDatabaseServer::ReplayLogInto(wal->durable(), &fresh).value();
    EXPECT_TRUE(stats.clean_end);
    EXPECT_EQ(stats.records_applied, wal->durable_records());
    EXPECT_EQ(fresh.Serialize(), db.shard(s)->Serialize()) << "shard " << s;
  }
}

TEST(ShardedDbTest, RebalancePreservesRefsAndContent) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(17);
  std::map<uint64_t, Bytes> payloads;
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 20; ++i) {
    Bytes blob = RandomBytes(150 + 25 * i, rng);
    ObjectRef ref =
        db.Store("Image", ImageFields(i, "b"), {{"FLD_DATA", blob}}).value();
    payloads.emplace(ref.id, blob);
    refs.push_back(ref);
  }
  std::vector<ObjectRef> listed_before = db.List("Image").value();
  ASSERT_TRUE(db.Rebalance(5).ok());
  EXPECT_EQ(db.num_shards(), 5u);
  EXPECT_EQ(db.List("Image").value(), listed_before);
  for (const ObjectRef& ref : refs) {
    EXPECT_EQ(db.FetchBlob(ref, "FLD_DATA").value(), payloads.at(ref.id));
  }
  // The fresh WALs are a checkpoint: replaying each one reproduces its
  // shard exactly, with no dependence on pre-rebalance history.
  for (size_t s = 0; s < db.num_shards(); ++s) {
    DatabaseServer fresh;
    WalReplayStats stats =
        ShardedDatabaseServer::ReplayLogInto(db.shard_wal(s)->durable(),
                                             &fresh)
            .value();
    EXPECT_TRUE(stats.clean_end);
    EXPECT_EQ(fresh.Serialize(), db.shard(s)->Serialize());
  }
  // New stores keep working and ids continue past the re-stored maximum.
  ObjectRef next =
      db.Store("Image", ImageFields(0, "post"), {{"FLD_DATA", Bytes{9}}})
          .value();
  EXPECT_EQ(next.id, refs.back().id + 1);
}

TEST(ShardedDbTest, ShardEvictionMidListKeepsRefsValid) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 4;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(23);
  for (int i = 0; i < 18; ++i) {
    db.Store("Image", ImageFields(i, "e"),
             {{"FLD_DATA", RandomBytes(120, rng)}})
        .value();
  }
  // A client walks a List snapshot while the operator evicts shards by
  // rebalancing 4 -> 2: every previously listed ref must stay valid
  // because refs name (type, id), not a shard.
  std::vector<ObjectRef> snapshot = db.List("Image").value();
  size_t walked = 0;
  for (const ObjectRef& ref : snapshot) {
    if (walked == snapshot.size() / 2) {
      ASSERT_TRUE(db.Rebalance(2).ok());
      EXPECT_EQ(db.num_shards(), 2u);
    }
    EXPECT_TRUE(db.FetchRecord(ref).ok()) << "ref " << ref.id;
    ++walked;
  }
  EXPECT_EQ(db.List("Image").value(), snapshot);
}

TEST(ShardedDbTest, RecoveryResumesWalHistory) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(29);
  for (int i = 0; i < 12; ++i) {
    db.Store("Image", ImageFields(i, "w"),
             {{"FLD_DATA", RandomBytes(80, rng)}})
        .value();
  }
  db.SyncAll();
  // Crash shard 0 with a torn tail and recover it.
  WalCrashInjector injector(31);
  WalCrashImage image = injector.Crash(*db.shard_wal(0),
                                       WalCrashKind::kTornTail);
  WalReplayStats stats = db.RecoverShardFromLog(0, image.log).value();
  EXPECT_EQ(stats.records_applied, image.clean_records);
  EXPECT_EQ(db.shard_wal(0)->durable_records(), image.clean_records);
  EXPECT_TRUE(db.shard(0)->blob_store().VerifyAllPages().ok());
  // The WAL resumes after the surviving history: further mutations log
  // with sequential lsns and a fresh replay reproduces the shard.
  for (int i = 0; i < 6; ++i) {
    db.Store("Image", ImageFields(100 + i, "post-crash"),
             {{"FLD_DATA", RandomBytes(60, rng)}})
        .value();
  }
  db.SyncAll();
  for (size_t s = 0; s < db.num_shards(); ++s) {
    DatabaseServer fresh;
    WalReplayStats replay =
        ShardedDatabaseServer::ReplayLogInto(db.shard_wal(s)->durable(),
                                             &fresh)
            .value();
    EXPECT_TRUE(replay.clean_end);
    EXPECT_EQ(fresh.Serialize(), db.shard(s)->Serialize());
  }
}

TEST(ShardedDbTest, ObserverPublishesWalAndShardMetrics) {
  Clock clock;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(&clock);
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  db.SetObserver(&metrics, &tracer);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(37);
  for (int i = 0; i < 10; ++i) {
    db.Store("Image", ImageFields(i, "m"),
             {{"FLD_DATA", RandomBytes(100, rng)}})
        .value();
  }
  db.SyncAll();
  EXPECT_EQ(metrics.GetGauge("storage.num_shards")->value(), 2);
  // 2 registration records + 10 stores.
  EXPECT_EQ(metrics.GetCounter("storage.wal.appends")->value(), 12u);
  EXPECT_GT(metrics.GetCounter("storage.wal.append_bytes")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("storage.wal.syncs")->value(), 0u);
  int64_t objects = metrics.GetGauge("storage.shard.0.objects")->value() +
                    metrics.GetGauge("storage.shard.1.objects")->value();
  EXPECT_EQ(objects, 10);
  WalCrashInjector injector(41);
  WalCrashImage image = injector.Crash(*db.shard_wal(0),
                                       WalCrashKind::kTornTail);
  db.RecoverShardFromLog(0, image.log).value();
  EXPECT_EQ(metrics.GetCounter("storage.recoveries")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("storage.wal.replayed_records")->value(),
            image.clean_records);
  ASSERT_TRUE(db.Rebalance(3).ok());
  EXPECT_EQ(metrics.GetCounter("storage.rebalances")->value(), 1u);
  EXPECT_EQ(metrics.GetGauge("storage.num_shards")->value(), 3);
  // Recovery and rebalance each left a span on the storage lane.
  EXPECT_GE(tracer.num_events(), 2u);
}

TEST(ShardedDbTest, InteractionServerRunsOverShardedFacade) {
  Clock clock;
  net::Network network(&clock);
  net::NodeId server_node = network.AddNode("interaction-server");
  net::NodeId db_node = network.AddNode("sharded-db");
  net::NodeId client = network.AddNode("client");
  ASSERT_TRUE(network.SetDuplexLink(server_node, db_node, {50e6, 1000}).ok());
  ASSERT_TRUE(
      network.SetDuplexLink(server_node, client, {1e6, 20000}).ok());
  ShardedDatabaseServer::Options options;
  options.num_shards = 3;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  net::ReliableTransport transport(&network);
  server::InteractionServer server(&db, &transport, server_node, db_node);
  doc::MultimediaDocument document =
      doc::MakeMedicalRecordDocument().value();
  ObjectRef ref = server.StoreDocument(document, "patient-17").value();
  server.OpenRoom("consult", ref).value();
  server.Join("consult", {"dr-cohen", client}).value();
  server.SubmitChoice("consult", "dr-cohen", "CT", "hidden").value();
  // The documents live in the sharded tier and replay like any object.
  db.SyncAll();
  for (size_t s = 0; s < db.num_shards(); ++s) {
    DatabaseServer fresh;
    WalReplayStats stats =
        ShardedDatabaseServer::ReplayLogInto(db.shard_wal(s)->durable(),
                                             &fresh)
            .value();
    EXPECT_TRUE(stats.clean_end);
    EXPECT_EQ(fresh.Serialize(), db.shard(s)->Serialize());
  }
}

TEST(ShardedDbTest, RecoveryHealsRegistrationsLostWithTheShard) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(61);
  for (int i = 0; i < 10; ++i) {
    db.Store("Image", ImageFields(i, "h"),
             {{"FLD_DATA", RandomBytes(120, rng)}})
        .value();
  }
  db.SyncAll();
  // Shard 0's machine loses its entire log — registrations included (on
  // a quiet shard they may never even have group-committed). Recovery
  // replays nothing, then heals the schema from the surviving shards:
  // registrations are facade-global bootstrap metadata, not lost data.
  ASSERT_EQ(db.RecoverShardFromLog(0, Bytes{}).value().records_applied, 0u);
  EXPECT_TRUE(db.shard(0)->HasType("Image"));
  EXPECT_TRUE(db.shard(0)->HasType("Text"));
  // The healed registrations landed in shard 0's WAL, so the restored
  // log still replays to the live image.
  db.SyncAll();
  DatabaseServer fresh;
  WalReplayStats replay =
      ShardedDatabaseServer::ReplayLogInto(db.shard_wal(0)->durable(),
                                           &fresh)
          .value();
  EXPECT_TRUE(replay.clean_end);
  EXPECT_EQ(fresh.Serialize(), db.shard(0)->Serialize());
  // The facade keeps serving: new stores route to both shards again.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(db.Store("Image", ImageFields(100 + i, "post"),
                         {{"FLD_DATA", RandomBytes(90, rng)}})
                    .ok());
  }
}

/// A 1-shard facade carrying a type `db` never registered, with the log
/// that produced it — the "foreign image" the recovery paths must not
/// accept silently.
struct ForeignImage {
  Clock clock;
  std::unique_ptr<ShardedDatabaseServer> facade;

  ForeignImage() {
    facade = std::make_unique<ShardedDatabaseServer>(&clock);
    EXPECT_TRUE(facade->RegisterStandardTypes().ok());
    MediaTypeEntry entry{"Zed", "application/x-zed", "read-write",
                         "ZED_OBJECTS_TABLE", "a type the facade lacks"};
    EXPECT_TRUE(facade->RegisterType(entry, {{"FLD_NAME", FieldType::kString},
                                             {"FLD_DATA", FieldType::kBlob}})
                    .ok());
    facade
        ->Store("Zed", {{"FLD_NAME", FieldValue{std::string("z")}}},
                {{"FLD_DATA", Bytes{1, 2, 3}}})
        .value();
    facade->SyncAll();
  }

  const Bytes& log() const { return facade->shard_wal(0)->durable(); }
};

TEST(ShardedDbTest, RecoverShardFromLogRefusesForeignImageUntouched) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(67);
  for (int i = 0; i < 6; ++i) {
    db.Store("Image", ImageFields(i, "f"),
             {{"FLD_DATA", RandomBytes(100, rng)}})
        .value();
  }
  db.SyncAll();
  ForeignImage foreign;
  Bytes image_before = db.shard(0)->Serialize();
  size_t records_before = db.shard_wal(0)->durable_records();
  // An image carrying a type the facade never registered cannot come
  // from this facade's own history: refuse it before mutating anything.
  Status refused = db.RecoverShardFromLog(0, foreign.log()).status();
  EXPECT_TRUE(refused.IsNotFound());
  EXPECT_EQ(db.shard(0)->Serialize(), image_before);
  EXPECT_EQ(db.shard_wal(0)->durable_records(), records_before);
  EXPECT_FALSE(db.shard(0)->HasType("Zed"));
  EXPECT_TRUE(db.Store("Image", ImageFields(99, "after"),
                       {{"FLD_DATA", Bytes{7}}})
                  .ok());
}

TEST(ShardedDbTest, InstallShardSurfacesForeignTypeAndRebalanceFailsClosed) {
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(71);
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 8; ++i) {
    refs.push_back(db.Store("Image", ImageFields(i, "rb"),
                            {{"FLD_DATA", RandomBytes(100, rng)}})
                       .value());
  }
  db.SyncAll();
  // A promotion-style takeover installs whatever the follower held —
  // there is no old primary to fall back to — so an image with a type
  // the facade never registered stays installed and the id-counter
  // rebuild error surfaces instead.
  ForeignImage foreign;
  auto replica = std::make_unique<DatabaseServer>();
  ASSERT_TRUE(ShardedDatabaseServer::ReplayLogInto(foreign.log(),
                                                   replica.get())
                  .ok());
  Status installed =
      db.InstallShard(0, std::move(replica), foreign.log(),
                      foreign.facade->shard_wal(0)->durable_records(),
                      foreign.facade->shard_wal(0)->sync_points());
  EXPECT_TRUE(installed.IsNotFound());
  EXPECT_TRUE(db.shard(0)->HasType("Zed"));
  // Rebalance cannot re-shard catalogs that disagree: it fails closed —
  // error surfaced, shard count and surviving content unchanged.
  Status rebalanced = db.Rebalance(3);
  EXPECT_TRUE(rebalanced.IsNotFound());
  EXPECT_EQ(db.num_shards(), 2u);
  for (const ObjectRef& ref : refs) {
    if (db.ShardOf(ref) != 0) {
      EXPECT_TRUE(db.FetchRecord(ref).ok()) << "ref " << ref.id;
    }
  }
}

TEST(ShardedDbTest, ErrorPathsLeaveNoOpenTraceSpans) {
  Clock clock;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(&clock);
  ShardedDatabaseServer::Options options;
  options.num_shards = 2;
  ShardedDatabaseServer db(&clock, options);
  db.SetObserver(&metrics, &tracer);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  Rng rng(73);
  for (int i = 0; i < 6; ++i) {
    db.Store("Image", ImageFields(i, "sp"),
             {{"FLD_DATA", RandomBytes(80, rng)}})
        .value();
  }
  db.SyncAll();
  // Successful recovery and rebalance, then the refusing/failing legs of
  // both: every span must close, success or error — a leaked open span
  // renders as a zero-length event and poisons the timeline.
  WalCrashInjector injector(79);
  WalCrashImage image =
      injector.Crash(*db.shard_wal(0), WalCrashKind::kTornTail);
  ASSERT_TRUE(db.RecoverShardFromLog(0, image.log).ok());
  ASSERT_TRUE(db.Rebalance(3).ok());
  ForeignImage foreign;
  EXPECT_FALSE(db.RecoverShardFromLog(0, foreign.log()).ok());
  auto replica = std::make_unique<DatabaseServer>();
  ASSERT_TRUE(ShardedDatabaseServer::ReplayLogInto(foreign.log(),
                                                   replica.get())
                  .ok());
  EXPECT_FALSE(db.InstallShard(0, std::move(replica), foreign.log(),
                               foreign.facade->shard_wal(0)->durable_records(),
                               foreign.facade->shard_wal(0)->sync_points())
                   .ok());
  EXPECT_FALSE(db.Rebalance(2).ok());
  EXPECT_GE(tracer.num_events(), 5u);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

// --- Acceptance sweep -------------------------------------------------
//
// A seeded crash injected at any WAL record boundary during a
// 200-mutation workload recovers to a state whose Serialize() matches
// the last group-committed prefix, across >= 3 seeds and >= 2 shard
// counts.

/// Per-shard Serialize() snapshots keyed by the shard WAL's total record
/// count at capture time. Replaying a k-record log prefix must land
/// exactly on the snapshot taken when the shard had k records.
using ShardSnapshots = std::vector<std::map<size_t, Bytes>>;

void CaptureSnapshots(const ShardedDatabaseServer& db,
                      ShardSnapshots* snapshots) {
  for (size_t s = 0; s < db.num_shards(); ++s) {
    (*snapshots)[s][db.shard_wal(s)->total_records()] =
        db.shard(s)->Serialize();
  }
}

/// Runs the 200-mutation store/modify/delete workload, capturing a
/// snapshot of every shard after every mutation.
void RunWorkload(uint64_t seed, ShardedDatabaseServer* db, Clock* clock,
                 ShardSnapshots* snapshots) {
  Rng rng(seed);
  std::vector<ObjectRef> live;
  for (int step = 0; step < 200; ++step) {
    uint64_t roll = rng.NextBelow(100);
    if (roll < 50 || live.empty()) {
      const char* type = rng.NextBelow(2) == 0 ? "Image" : "Text";
      std::map<std::string, FieldValue> fields;
      if (std::string(type) == "Image") {
        fields = ImageFields(static_cast<int64_t>(step), "s" +
                             std::to_string(step));
      } else {
        fields = {{"FLD_TITLE",
                   FieldValue{std::string("note-") + std::to_string(step)}}};
      }
      Bytes blob = RandomBytes(rng.NextBelow(600), rng);
      live.push_back(db->Store(type, fields, {{"FLD_DATA", blob}}).value());
    } else if (roll < 75) {
      const ObjectRef& ref = live[rng.NextBelow(live.size())];
      std::map<std::string, Bytes> blobs;
      if (rng.NextBelow(2) == 0) {
        blobs.emplace("FLD_DATA", RandomBytes(rng.NextBelow(800), rng));
      }
      std::map<std::string, FieldValue> fields;
      if (ref.type == "Image") {
        fields.emplace("FLD_QUALITY",
                       FieldValue{static_cast<int64_t>(step)});
      } else {
        fields.emplace("FLD_TITLE",
                       FieldValue{std::string("mod-") +
                                  std::to_string(step)});
      }
      ASSERT_TRUE(db->Modify(ref, fields, blobs).ok());
    } else {
      size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(db->Delete(live[pick]).ok());
      live.erase(live.begin() + pick);
    }
    clock->AdvanceMicros(static_cast<MicrosT>(rng.NextBelow(2500)));
    CaptureSnapshots(*db, snapshots);
  }
}

/// Replays every record-boundary prefix of `log` and checks each lands
/// on the snapshot captured when the shard held that many records.
void SweepRecordBoundaries(const Bytes& log,
                           const std::map<size_t, Bytes>& snapshots,
                           size_t shard) {
  size_t pos = 0;
  size_t records = 0;
  while (true) {
    DatabaseServer fresh;
    Bytes prefix(log.begin(), log.begin() + pos);
    WalReplayStats stats =
        ShardedDatabaseServer::ReplayLogInto(prefix, &fresh).value();
    ASSERT_TRUE(stats.clean_end);
    ASSERT_EQ(stats.records_applied, records);
    auto it = snapshots.find(records);
    ASSERT_NE(it, snapshots.end())
        << "no snapshot at " << records << " records for shard " << shard;
    ASSERT_EQ(fresh.Serialize(), it->second)
        << "shard " << shard << " diverges at record " << records;
    if (pos >= log.size()) break;
    ASSERT_GE(log.size() - pos, 8u);
    size_t length = static_cast<size_t>(log[pos + 4]) |
                    static_cast<size_t>(log[pos + 5]) << 8 |
                    static_cast<size_t>(log[pos + 6]) << 16 |
                    static_cast<size_t>(log[pos + 7]) << 24;
    pos += 8 + length;
    ++records;
  }
}

class ShardedCrashRecoverySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(ShardedCrashRecoverySweep, EveryBoundaryAndCrashKindRecovers) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t num_shards = std::get<1>(GetParam());
  Clock clock;
  ShardedDatabaseServer::Options options;
  options.num_shards = num_shards;
  options.wal.group_commit_interval_micros = 4000;
  options.wal.group_commit_bytes = 8 * 1024;
  ShardedDatabaseServer db(&clock, options);
  ShardSnapshots snapshots(num_shards);
  // Snapshot the empty state (a crash before any record must recover to
  // a fresh server), then the post-registration state.
  CaptureSnapshots(db, &snapshots);
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  CaptureSnapshots(db, &snapshots);
  RunWorkload(seed, &db, &clock, &snapshots);

  // 1. Deterministic sweep: a crash at ANY record boundary of the full
  //    image replays to the exact snapshot at that record count.
  for (size_t s = 0; s < num_shards; ++s) {
    SweepRecordBoundaries(db.shard_wal(s)->FullImage(), snapshots[s], s);
  }

  // 2. Seeded crash injection: each fault kind on each shard recovers
  //    to the snapshot matching the image's clean prefix.
  for (WalCrashKind kind :
       {WalCrashKind::kTornTail, WalCrashKind::kFsyncLostSuffix,
        WalCrashKind::kPartialPageWrite}) {
    for (size_t s = 0; s < num_shards; ++s) {
      WalCrashInjector injector(seed * 131 + static_cast<uint64_t>(kind));
      WalCrashImage image = injector.Crash(*db.shard_wal(s), kind);
      WalReplayStats stats = db.RecoverShardFromLog(s, image.log).value();
      ASSERT_EQ(stats.records_applied, image.clean_records)
          << WalCrashKindToString(kind);
      auto it = snapshots[s].find(image.clean_records);
      ASSERT_NE(it, snapshots[s].end()) << WalCrashKindToString(kind);
      ASSERT_EQ(db.shard(s)->Serialize(), it->second)
          << WalCrashKindToString(kind) << " shard " << s;
      ASSERT_TRUE(db.shard(s)->blob_store().VerifyAllPages().ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShardCounts, ShardedCrashRecoverySweep,
    ::testing::Combine(::testing::Values(7u, 21u, 42u),
                       ::testing::Values(size_t{2}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, size_t>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mmconf::storage
