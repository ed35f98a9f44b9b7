#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prefetch/cache.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"
#include "stream/scheduler.h"

namespace mmconf::obs {
namespace {

// --- Counters and gauges ---

TEST(MetricsRegistryTest, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter* sent = registry.GetCounter("net.sent");
  sent->Add();
  sent->Add(41);
  EXPECT_EQ(sent->value(), 42u);

  Gauge* depth = registry.GetGauge("queue.depth");
  depth->Set(7);
  depth->Add(-3);
  EXPECT_EQ(depth->value(), 4);

  // Re-registration under the same name returns the same handle, so
  // instrumented code can cache raw pointers.
  EXPECT_EQ(registry.GetCounter("net.sent"), sent);
  EXPECT_EQ(registry.GetGauge("queue.depth"), depth);
  EXPECT_EQ(registry.num_metrics(), 2u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* histogram = registry.GetHistogram("h", {10, 100});
  counter->Add(5);
  histogram->Observe(50);

  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(histogram->sum(), 0);

  // The old handles still feed the same registry entries.
  counter->Add(1);
  histogram->Observe(7);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c"), 1u);
  EXPECT_EQ(snapshot.histograms.at("h").count, 1u);
}

// --- Histogram bucket edges ---

TEST(HistogramTest, ValueBelowFirstBoundLandsInBucketZero) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("h", {10, 100, 1000});
  histogram->Observe(-5);
  histogram->Observe(0);
  histogram->Observe(9);
  ASSERT_EQ(histogram->bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(histogram->bucket_counts()[0], 3u);
  EXPECT_EQ(histogram->bucket_counts()[1], 0u);
  EXPECT_EQ(histogram->bucket_counts()[3], 0u);
  EXPECT_EQ(histogram->min(), -5);
  EXPECT_EQ(histogram->max(), 9);
}

TEST(HistogramTest, ValueAboveLastBoundLandsInOverflowBucket) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("h", {10, 100, 1000});
  histogram->Observe(1001);
  histogram->Observe(1 << 30);
  EXPECT_EQ(histogram->bucket_counts()[3], 2u);
  EXPECT_EQ(histogram->count(), 2u);
  EXPECT_EQ(histogram->max(), 1 << 30);
}

TEST(HistogramTest, ExactBoundaryIsInclusive) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("h", {10, 100, 1000});
  // Bounds are inclusive upper edges: v == bounds[i] lands in bucket i.
  histogram->Observe(10);
  histogram->Observe(100);
  histogram->Observe(1000);
  EXPECT_EQ(histogram->bucket_counts()[0], 1u);
  EXPECT_EQ(histogram->bucket_counts()[1], 1u);
  EXPECT_EQ(histogram->bucket_counts()[2], 1u);
  EXPECT_EQ(histogram->bucket_counts()[3], 0u);
  // ...and the value just past an edge spills into the next bucket.
  histogram->Observe(11);
  EXPECT_EQ(histogram->bucket_counts()[1], 2u);
  EXPECT_EQ(histogram->sum(), 10 + 100 + 1000 + 11);
}

TEST(HistogramTest, MinMaxAreZeroBeforeFirstObservation) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("h", {10});
  EXPECT_EQ(histogram->min(), 0);
  EXPECT_EQ(histogram->max(), 0);
  EXPECT_EQ(histogram->count(), 0u);
}

TEST(HistogramTest, InvalidBoundsFallBackToSingleBucket) {
  MetricsRegistry registry;
  Histogram* empty = registry.GetHistogram("empty", {});
  Histogram* unsorted = registry.GetHistogram("unsorted", {100, 10});
  for (Histogram* histogram : {empty, unsorted}) {
    ASSERT_EQ(histogram->bounds().size(), 1u);
    EXPECT_EQ(histogram->bounds()[0], 0);
    EXPECT_EQ(histogram->bucket_counts().size(), 2u);
  }
  // First registration wins: re-registering with different bounds keeps
  // the original edges.
  Histogram* first = registry.GetHistogram("h", {10, 100});
  Histogram* second = registry.GetHistogram("h", {1, 2, 3});
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->bounds(), (std::vector<int64_t>{10, 100}));
}

// --- Snapshots ---

TEST(MetricsSnapshotTest, EqualOperationsYieldEqualSnapshotsAndJson) {
  auto fill = [](MetricsRegistry* registry) {
    registry->GetCounter("a.count")->Add(3);
    registry->GetGauge("b.gauge")->Set(-2);
    registry->GetHistogram("c.hist", {5, 50})->Observe(7);
  };
  MetricsRegistry lhs, rhs;
  fill(&lhs);
  fill(&rhs);
  EXPECT_EQ(lhs.Snapshot(), rhs.Snapshot());
  EXPECT_EQ(lhs.Snapshot().ToJson(), rhs.Snapshot().ToJson());

  rhs.GetCounter("a.count")->Add();
  EXPECT_NE(lhs.Snapshot(), rhs.Snapshot());
}

TEST(MetricsSnapshotTest, DiffSinceSubtractsCountersButKeepsGauges) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  Histogram* histogram = registry.GetHistogram("h", {10});
  counter->Add(5);
  gauge->Set(100);
  histogram->Observe(3);
  MetricsSnapshot earlier = registry.Snapshot();

  counter->Add(2);
  gauge->Set(40);
  histogram->Observe(99);
  MetricsSnapshot diff = registry.Snapshot().DiffSince(earlier);

  EXPECT_EQ(diff.counters.at("c"), 2u);   // accumulative: subtracted
  EXPECT_EQ(diff.gauges.at("g"), 40);     // point-in-time: latest wins
  const HistogramSnapshot& h = diff.histograms.at("h");
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 99);
  EXPECT_EQ(h.counts[0], 0u);  // the 3 was observed before `earlier`
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.max, 99);  // min/max are not accumulative either
}

TEST(MetricsSnapshotTest, WriteJsonReportsUnwritablePath) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add();
  Status status =
      registry.Snapshot().WriteJson("/nonexistent-dir/metrics.json");
  EXPECT_FALSE(status.ok());
}

// --- Tracer ---

TEST(TracerTest, TidsInternPerPidAndNeverHandOutZero) {
  Tracer tracer(nullptr);
  int room = tracer.Tid(1, "room:consult");
  int stream = tracer.Tid(1, "stream:4");
  int other_pid = tracer.Tid(2, "room:consult");
  EXPECT_GT(room, 0);
  EXPECT_GT(stream, 0);
  EXPECT_NE(room, stream);
  EXPECT_EQ(tracer.Tid(1, "room:consult"), room);  // stable
  EXPECT_GT(other_pid, 0);                         // per-pid namespace
}

TEST(TracerTest, JsonCarriesSpansInstantsAndMetadata) {
  Clock clock;
  Tracer tracer(&clock);
  tracer.SetProcessName(3, "server");
  int tid = tracer.Tid(3, "stream:9");
  tracer.Span(3, tid, "stall", "stream", 1000, 2500, "stall_micros", 1500);
  clock.AdvanceTo(4000);
  tracer.Instant(3, tid, "drop-layer", "stream", "layer", 2);
  tracer.CounterSample(3, "queue", 6);

  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 4000"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_micros\": 1500"), std::string::npos);

  tracer.Clear();
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerTest, PidOffsetShiftsEveryEvent) {
  Tracer tracer(nullptr);
  tracer.set_pid_offset(8);
  tracer.Instant(1, 0, "drop", "net");
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"pid\": 9"), std::string::npos);
  EXPECT_EQ(json.find("\"pid\": 1,"), std::string::npos);
}

TEST(TracerTest, BeginEndSpanStampsDuration) {
  Clock clock;
  Tracer tracer(&clock);
  clock.AdvanceTo(100);
  size_t handle = tracer.BeginSpan(0, 0, "round", "server");
  clock.AdvanceTo(350);
  tracer.EndSpan(handle);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"ts\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 250"), std::string::npos);
}

TEST(TracerTest, WriteJsonReportsUnwritablePath) {
  Tracer tracer(nullptr);
  tracer.Instant(0, 0, "x", "y");
  EXPECT_FALSE(tracer.WriteJson("/nonexistent-dir/trace.json").ok());
}

// --- Subsystem hookup ---

TEST(ObserverHookupTest, ClientCacheCountsHitsMissesEvictions) {
  MetricsRegistry registry;
  prefetch::ClientCache cache(4 << 10, prefetch::CachePolicy::kLru);
  cache.SetObserver(&registry);
  ASSERT_TRUE(cache.Insert("a", 3 << 10, 1.0).ok());
  cache.Lookup("a");
  cache.Lookup("missing");
  ASSERT_TRUE(cache.Insert("b", 3 << 10, 1.0).ok());  // evicts "a"

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("prefetch.cache.hits"), 1u);
  EXPECT_EQ(snapshot.counters.at("prefetch.cache.misses"), 1u);
  EXPECT_EQ(snapshot.counters.at("prefetch.cache.insertions"), 2u);
  EXPECT_EQ(snapshot.counters.at("prefetch.cache.evictions"), 1u);

  // Detaching stops the flow without touching the cache's own stats.
  cache.SetObserver(nullptr);
  cache.Lookup("b");
  EXPECT_EQ(registry.Snapshot().counters.at("prefetch.cache.hits"), 1u);
}

// --- End-to-end determinism ---

Bytes EncodeObject(uint64_t seed) {
  Rng rng(seed);
  media::Image image = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
  return compress::LayeredCodec().Encode(image).value();
}

/// One lossy streamed consult, fully instrumented. Returns the final
/// metrics snapshot and trace JSON.
struct InstrumentedRun {
  MetricsSnapshot snapshot;
  std::string metrics_json;
  std::string trace_json;
};

InstrumentedRun RunLossyConsult(uint64_t seed) {
  Clock clock;
  MetricsRegistry registry;
  Tracer tracer(&clock);

  net::Network network(&clock, seed);
  net::NodeId server_node = network.AddNode("server");
  net::NodeId db_node = network.AddNode("db");
  net::NodeId client = network.AddNode("client");
  net::NodeId peer = network.AddNode("peer");
  EXPECT_TRUE(network.SetDuplexLink(server_node, db_node, {50e6, 1000}).ok());
  EXPECT_TRUE(network.SetDuplexLink(server_node, client, {1e6, 20000}).ok());
  EXPECT_TRUE(network.SetDuplexLink(server_node, peer, {1e6, 20000}).ok());
  net::FaultSpec faults;
  faults.drop_probability = 0.10;
  faults.jitter_micros = 1500;
  EXPECT_TRUE(network.SetDuplexFault(server_node, client, faults).ok());

  net::RetryPolicy policy;
  policy.initial_timeout_micros = 150000;
  policy.max_attempts = 10;
  net::ReliableTransport transport(&network, policy);
  storage::DatabaseServer db;
  EXPECT_TRUE(db.RegisterStandardTypes().ok());
  server::InteractionServer server(&db, &network, server_node, db_node);
  server.UseReliableTransport(&transport);
  sim::Loop loop(&transport);
  loop.Register(&server);

  network.SetObserver(&registry, &tracer);
  transport.SetObserver(&registry, &tracer);
  server.SetObserver(&registry, &tracer);

  EXPECT_TRUE(server
                  .OpenRoomWithDocument(
                      "consult", doc::MakeMedicalRecordDocument().value())
                  .ok());
  EXPECT_TRUE(server.Join("consult", {"dr-cohen", client}).ok());
  EXPECT_TRUE(server.Join("consult", {"dr-levi", peer}).ok());
  loop.Drain();
  EXPECT_TRUE(
      server.SubmitChoice("consult", "dr-cohen", "CT", "thumbnail").ok());
  loop.Drain();
  // Settling the room closes the propagation round: its span and
  // time-to-consistency are only known once the last ack lands.
  EXPECT_TRUE(server.RoomConverged("consult"));

  stream::StreamOptions options;
  options.start_deadline_micros = clock.NowMicros() + 500000;
  options.interval_micros = 200000;
  options.chunk_bytes = 2048;
  std::vector<Bytes> objects = {EncodeObject(7), EncodeObject(8),
                                EncodeObject(9)};
  stream::StreamId id =
      server.OpenStream("consult", "dr-cohen", objects, options).value();
  EXPECT_TRUE(loop.Pump().ok());
  EXPECT_TRUE(loop.Settle().ok());
  EXPECT_TRUE(server.StreamSessionStats(id).value().finished);

  InstrumentedRun run;
  run.snapshot = registry.Snapshot();
  run.metrics_json = run.snapshot.ToJson();
  run.trace_json = tracer.ToJson();
  return run;
}

TEST(ObsDeterminismTest, SameSeedYieldsIdenticalMetricsAndTrace) {
  InstrumentedRun a = RunLossyConsult(1234);
  InstrumentedRun b = RunLossyConsult(1234);

  // The whole registry — every counter, gauge, and histogram bucket —
  // must match value-for-value, and the serialized forms byte-for-byte.
  EXPECT_EQ(a.snapshot, b.snapshot);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);

  // And the run actually exercised the instrumented paths.
  EXPECT_GT(a.snapshot.counters.at("net.send.messages"), 0u);
  EXPECT_GT(a.snapshot.counters.at("net.drop.random"), 0u);
  EXPECT_GT(a.snapshot.counters.at("rel.retries"), 0u);
  EXPECT_GT(a.snapshot.counters.at("stream.chunks.sent"), 0u);
  EXPECT_EQ(a.snapshot.counters.at("server.joins"), 2u);
  EXPECT_GT(a.snapshot.histograms.at("rel.rtt_micros").count, 0u);
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_NE(a.trace_json.find("\"join\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"propagate\""), std::string::npos);
}

}  // namespace
}  // namespace mmconf::obs
