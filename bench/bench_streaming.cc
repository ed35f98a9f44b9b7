// A4 — Adaptive layered streaming (src/stream/): stall rate and mean
// delivered quality (decodable layers per object) across a downlink
// bandwidth sweep. Each run opens a stream of layered-codec objects
// toward a room member over the reliable transport and drives the
// virtual clock until every object has played: ample links deliver every
// layer on time, squeezed links shed enhancement layers (never the base)
// to protect continuity.
//
// Results are printed and written as machine-readable JSON
// (BENCH_streaming.json; override with --json_out=PATH). --smoke shrinks
// the sweep for a ctest-able perf smoke run and exits nonzero when a
// streaming invariant breaks (a base layer dropped, a stream aborted, a
// stall on the ample link) or the JSON cannot be written.
//
// --metrics_out=PATH additionally dumps the obs MetricsRegistry snapshot
// (byte-identical across runs — the simulation is deterministic) and
// --trace_out=PATH a Chrome trace_event timeline of the whole sweep
// (one pid namespace per sweep point; open in chrome://tracing or
// Perfetto).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_obs.h"
#include "common/rng.h"
#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"
#include "stream/chunker.h"
#include "stream/playout.h"
#include "stream/scheduler.h"

namespace {

using namespace mmconf;
using compress::LayeredCodec;

std::vector<Bytes> EncodeObjects(size_t count, int side, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> objects;
  LayeredCodec codec;
  for (size_t k = 0; k < count; ++k) {
    media::Image image = media::MakePhantomCt({side, side, 5, 2.0}, rng);
    objects.push_back(codec.Encode(image).value());
  }
  return objects;
}

struct SweepRow {
  double bandwidth_bytes_per_sec = 0;
  size_t objects = 0;
  size_t objects_played = 0;
  size_t stalls = 0;
  double stall_rate = 0;         ///< stalled objects / played objects
  double mean_stall_ms = 0;      ///< stall time per stalled object
  double mean_layers = 0;        ///< decodable layers per played object
  int min_layers = 0;
  size_t layers_dropped = 0;
  size_t bytes_sent = 0;
  size_t full_bytes = 0;         ///< what full quality would have cost
  bool finished = false;
  bool aborted = false;
};

/// Streams `objects` to one room member over a `bandwidth` B/s downlink
/// (20 ms latency) and reports the delivered quality. `sinks` (optional)
/// collects metrics and the trace timeline; `index` namespaces this
/// fleet's trace pids.
SweepRow RunSweepPoint(const std::vector<Bytes>& objects, double bandwidth,
                       MicrosT interval_micros,
                       const bench::ObsSinks& sinks = {}, int index = 0) {
  Clock clock;
  net::Network network(&clock, /*fault_seed=*/0x57ea3ull);
  net::NodeId server_node = network.AddNode("interaction-server");
  net::NodeId db_node = network.AddNode("oracle");
  net::NodeId client = network.AddNode("client");
  network.SetDuplexLink(server_node, db_node, {50e6, 1000}).ok();
  network.SetDuplexLink(server_node, client, {bandwidth, 20000}).ok();

  storage::DatabaseServer db;
  db.RegisterStandardTypes().ok();
  net::ReliableTransport transport(&network);
  server::InteractionServer server(&db, &transport, server_node, db_node);
  sim::Loop loop(&transport);
  loop.Register(&server);
  if (sinks.enabled()) {
    sinks.BeginFleet(&clock, index);
    network.SetObserver(sinks.metrics, sinks.tracer);
    transport.SetObserver(sinks.metrics, sinks.tracer);
    server.SetObserver(sinks.metrics, sinks.tracer);
  }
  server
      .OpenRoomWithDocument("consult",
                            doc::MakeMedicalRecordDocument().value())
      .value();
  server.Join("consult", {"radiologist", client}).value();
  loop.Drain();

  stream::StreamOptions options;
  options.start_deadline_micros = clock.NowMicros() + 2 * interval_micros;
  options.interval_micros = interval_micros;
  options.chunk_bytes = 4 << 10;
  stream::StreamId id =
      server.OpenStream("consult", "radiologist", objects, options).value();
  // Settle advances before it pumps: pump first, so the first chunks go
  // out now rather than at the stream's first playout deadline.
  loop.Pump().ok();
  loop.Settle().value();

  stream::StreamStats stats = server.StreamSessionStats(id).value();
  SweepRow row;
  row.bandwidth_bytes_per_sec = bandwidth;
  row.objects = objects.size();
  row.objects_played = stats.playout.objects_played;
  row.stalls = stats.playout.stalls;
  row.stall_rate =
      stats.playout.objects_played > 0
          ? static_cast<double>(stats.playout.stalls) /
                static_cast<double>(stats.playout.objects_played)
          : 0;
  row.mean_stall_ms =
      stats.playout.stalls > 0
          ? static_cast<double>(stats.playout.total_stall_micros) / 1000.0 /
                static_cast<double>(stats.playout.stalls)
          : 0;
  row.mean_layers = stats.playout.MeanLayers();
  row.min_layers = stats.playout.min_layers;
  row.layers_dropped = stats.layers_dropped;
  row.bytes_sent = stats.bytes_sent;
  for (const Bytes& object : objects) row.full_bytes += object.size();
  row.finished = stats.finished;
  row.aborted = stats.aborted;
  return row;
}

std::vector<SweepRow> RunSweep(bool smoke,
                               const bench::ObsSinks& sinks = {}) {
  const size_t count = smoke ? 4 : 12;
  const int side = smoke ? 64 : 128;
  const MicrosT interval = 150000;
  std::vector<double> bandwidths =
      smoke ? std::vector<double>{8e3, 256e3}
            : std::vector<double>{8e3, 16e3, 32e3, 64e3, 128e3, 1e6};
  std::vector<Bytes> objects = EncodeObjects(count, side, /*seed=*/41);

  std::vector<SweepRow> rows;
  std::printf("== A4: layered streaming across downlink bandwidths "
              "(%zu objects, %d ms cadence, %s) ==\n",
              count, static_cast<int>(interval / 1000),
              smoke ? "smoke" : "full");
  std::printf("%-14s %-10s %-12s %-14s %-12s %-12s %-14s %-12s\n",
              "bandwidth", "stalls", "stall-rate", "mean-stall(ms)",
              "mean-layers", "min-layers", "layers-drop", "bytes-sent");
  for (size_t i = 0; i < bandwidths.size(); ++i) {
    double bandwidth = bandwidths[i];
    SweepRow row = RunSweepPoint(objects, bandwidth, interval, sinks,
                                 static_cast<int>(i));
    std::printf("%-14.0f %-10zu %-12.2f %-14.1f %-12.2f %-12d %-14zu "
                "%-12zu\n",
                row.bandwidth_bytes_per_sec, row.stalls, row.stall_rate,
                row.mean_stall_ms, row.mean_layers, row.min_layers,
                row.layers_dropped, row.bytes_sent);
    rows.push_back(row);
  }
  std::printf("\n");
  return rows;
}

/// Invariants the sweep must uphold regardless of timing: every stream
/// finishes unaborted with at least the base layer of every object, and
/// the fastest link in the sweep delivers full quality with zero stalls.
bool CheckInvariants(const std::vector<SweepRow>& rows) {
  bool ok = true;
  for (const SweepRow& row : rows) {
    if (!row.finished || row.aborted) {
      std::fprintf(stderr, "FAIL: stream at %.0f B/s did not finish\n",
                   row.bandwidth_bytes_per_sec);
      ok = false;
    }
    if (row.objects_played != row.objects || row.min_layers < 1) {
      std::fprintf(stderr,
                   "FAIL: base-layer continuity broken at %.0f B/s\n",
                   row.bandwidth_bytes_per_sec);
      ok = false;
    }
  }
  if (!rows.empty()) {
    const SweepRow& fastest = rows.back();
    if (fastest.stalls != 0 || fastest.layers_dropped != 0) {
      std::fprintf(stderr, "FAIL: ample link stalled or dropped layers\n");
      ok = false;
    }
  }
  return ok;
}

bool WriteJson(const std::string& path, const std::vector<SweepRow>& rows,
               bool smoke) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n  \"bench\": \"streaming_bandwidth_sweep\",\n"
               "  \"smoke\": %s,\n  \"sweep\": [\n",
               smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(
        out,
        "    {\"bandwidth_bytes_per_sec\": %.0f, \"objects\": %zu, "
        "\"objects_played\": %zu, \"stalls\": %zu, \"stall_rate\": %.4f, "
        "\"mean_stall_ms\": %.2f, \"mean_layers\": %.3f, "
        "\"min_layers\": %d, \"layers_dropped\": %zu, "
        "\"bytes_sent\": %zu, \"full_bytes\": %zu, \"finished\": %s, "
        "\"aborted\": %s}%s\n",
        row.bandwidth_bytes_per_sec, row.objects, row.objects_played,
        row.stalls, row.stall_rate, row.mean_stall_ms, row.mean_layers,
        row.min_layers, row.layers_dropped, row.bytes_sent, row.full_bytes,
        row.finished ? "true" : "false", row.aborted ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return bench::CloseChecked(out, path);
}

void BM_ChunkerPlan(benchmark::State& state) {
  std::vector<Bytes> objects =
      EncodeObjects(1, static_cast<int>(state.range(0)), 5);
  stream::Chunker chunker(4 << 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.Plan(objects[0], 1, 0, 0, 1000000));
  }
  state.counters["bytes"] = static_cast<double>(objects[0].size());
}
BENCHMARK(BM_ChunkerPlan)->Arg(64)->Arg(128)->Arg(256);

void BM_StreamToPlayout(benchmark::State& state) {
  std::vector<Bytes> objects = EncodeObjects(4, 64, 6);
  double bandwidth = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSweepPoint(objects, bandwidth, 150000));
  }
}
BENCHMARK(BM_StreamToPlayout)->Arg(16000)->Arg(256000);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_streaming.json";
  std::string metrics_path;
  std::string trace_path;
  // Strip our flags before google-benchmark sees (and rejects) them.
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      metrics_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace_out=", 12) == 0) {
      trace_path = argv[i] + 12;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // An unwritable output path should fail before the sweep, not after.
  if (!bench::ProbeWritable(json_path)) return 1;
  if (!metrics_path.empty() && !bench::ProbeWritable(metrics_path)) return 1;
  if (!trace_path.empty() && !bench::ProbeWritable(trace_path)) return 1;

  obs::MetricsRegistry registry;
  obs::Tracer tracer(nullptr);
  bench::ObsSinks sinks;
  if (!metrics_path.empty()) sinks.metrics = &registry;
  if (!trace_path.empty()) sinks.tracer = &tracer;

  std::vector<SweepRow> rows = RunSweep(smoke, sinks);
  bool ok = CheckInvariants(rows);
  bool wrote = WriteJson(json_path, rows, smoke);
  if (!metrics_path.empty()) {
    wrote = bench::WriteFileChecked(metrics_path,
                                    registry.Snapshot().ToJson()) &&
            wrote;
  }
  if (!trace_path.empty()) {
    wrote = bench::WriteFileChecked(trace_path, tracer.ToJson()) && wrote;
  }
  if (smoke) {
    // ctest perf smoke: fail on a broken streaming invariant or an
    // unwritable report; timing itself is not asserted.
    return ok && wrote ? 0 : 1;
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return ok && wrote ? 0 : 1;
}
