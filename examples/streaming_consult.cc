// Adaptive layered streaming (§4.4 delivery machinery, DESIGN.md §9):
// a CT cine — a deadline-spaced sequence of layered bitstreams — is
// streamed to two partners in the same room over very different links.
// The workstation receives every layer; the clinic's thin link forces
// the scheduler to shed enhancement layers so that every base still
// lands before its playout deadline: quality degrades, continuity does
// not.
//
//   ./build/examples/streaming_consult
//
// Optional flags: --metrics_out=PATH dumps the obs MetricsRegistry
// snapshot as JSON; --trace_out=PATH writes a Chrome trace_event
// timeline of the consult (open in chrome://tracing or Perfetto).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"
#include "stream/scheduler.h"

using namespace mmconf;

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics_out=", 14) == 0) {
      metrics_path = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace_out=", 12) == 0) {
      trace_path = argv[i] + 12;
    }
  }
  // A 10-slice CT cine, each slice encoded once with the layered codec.
  Rng rng(23);
  compress::LayeredCodec codec;
  std::vector<Bytes> cine;
  for (int i = 0; i < 10; ++i) {
    media::Image slice = media::MakePhantomCt({96, 96, 5, 2.5}, rng);
    cine.push_back(*codec.Encode(slice));
  }
  compress::StreamInfo info = *compress::LayeredCodec::Inspect(cine[0]);
  std::printf("CT cine: %zu slices, %zu layers each, ~%zu B/slice\n\n",
              cine.size(), info.layers.size(), info.total_bytes);

  // The usual fleet: server + database + two physicians. Dr. Cohen sits
  // at the hospital workstation (1 MB/s); Dr. Levi dials in from the
  // clinic (8 kB/s) — fast enough for bases, not for every refinement.
  Clock clock;
  net::Network network(&clock, /*fault_seed=*/42);
  net::NodeId server_node = network.AddNode("server");
  net::NodeId db_node = network.AddNode("db");
  net::NodeId workstation = network.AddNode("workstation");
  net::NodeId clinic = network.AddNode("clinic");
  network.SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
  network.SetDuplexLink(server_node, workstation, {1e6, 15000}).ok();
  network.SetDuplexLink(server_node, clinic, {8e3, 40000}).ok();

  net::ReliableTransport transport(&network, {});
  storage::DatabaseServer db;
  db.RegisterStandardTypes().ok();
  server::InteractionServer server(&db, &network, server_node, db_node);
  server.UseReliableTransport(&transport);
  // One drive loop pumps the transport and the server's stream schedulers.
  sim::Loop loop(&transport);
  loop.Register(&server);

  obs::MetricsRegistry registry;
  obs::Tracer tracer(&clock);
  obs::MetricsRegistry* metrics =
      metrics_path.empty() ? nullptr : &registry;
  obs::Tracer* trace = trace_path.empty() ? nullptr : &tracer;
  if (metrics != nullptr || trace != nullptr) {
    network.SetObserver(metrics, trace);
    transport.SetObserver(metrics, trace);
    server.SetObserver(metrics, trace);
  }

  doc::MultimediaDocument document = doc::MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server.StoreDocument(document, "patient-7").value();
  server.OpenRoom("consult", ref).value();
  server.Join("consult", {"dr-cohen", workstation}).value();
  server.Join("consult", {"dr-levi", clinic}).value();
  loop.Drain();

  // One stream per partner: a slice every 250 ms, first deadline 600 ms
  // out. Same content, same deadlines — only the links differ.
  stream::StreamOptions options;
  options.start_deadline_micros = clock.NowMicros() + 600000;
  options.interval_micros = 250000;
  options.chunk_bytes = 2048;
  stream::StreamId to_cohen =
      server.OpenStream("consult", "dr-cohen", cine, options).value();
  stream::StreamId to_levi =
      server.OpenStream("consult", "dr-levi", cine, options).value();
  // Settle advances before it pumps: pump first, so the first chunks go
  // out now rather than at the streams' first playout deadline.
  loop.Pump().ok();
  loop.Settle().value();

  struct Row {
    const char* who;
    stream::StreamId id;
  };
  const Row rows[] = {{"dr-cohen (workstation)", to_cohen},
                      {"dr-levi  (clinic)", to_levi}};
  std::printf("%-24s %-8s %-8s %-8s %-10s %-10s %-9s\n", "partner",
              "played", "stalls", "dropped", "layers", "min-layer",
              "bytes");
  for (const Row& row : rows) {
    stream::StreamStats stats = server.StreamSessionStats(row.id).value();
    std::printf("%-24s %zu/%-6zu %-8zu %-8zu %-10.2f %-9d %zu\n", row.who,
                stats.playout.objects_played, stats.playout.objects_expected,
                stats.playout.stalls, stats.layers_dropped,
                stats.playout.MeanLayers(), stats.playout.min_layers,
                stats.bytes_sent);
  }

  stream::StreamStats levi = server.StreamSessionStats(to_levi).value();
  std::printf("\nclinic link verdict: %zu enhancement layers shed, "
              "min quality %d layer(s), %zu stall(s) — the base layer is "
              "never dropped, so the cine keeps moving.\n",
              levi.layers_dropped, levi.playout.min_layers,
              levi.playout.stalls);
  std::printf("estimated clinic rate from ack spacing: %.0f B/s "
              "(link: 8000 B/s)\n",
              levi.estimated_rate_bytes_per_sec);

  if (metrics != nullptr) {
    Status wrote = registry.Snapshot().WriteJson(metrics_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "metrics: %s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("metrics snapshot -> %s\n", metrics_path.c_str());
  }
  if (trace != nullptr) {
    Status wrote = tracer.WriteJson(trace_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "trace: %s\n", wrote.ToString().c_str());
      return 1;
    }
    std::printf("trace timeline (%zu events) -> %s\n", tracer.num_events(),
                trace_path.c_str());
  }
  return 0;
}
