// Reliability under lossy links: how much latency and wire overhead the
// ack/retry/backoff layer (net/reliable) pays to keep a room consistent
// as last-mile loss climbs from 0 to 20%. The paper assumes changes are
// "immediately propagated to other clients in the room"; this bench
// quantifies what "immediately" costs once the wire stops cooperating.
//
// Results are printed and written as machine-readable JSON
// (BENCH_reliability.json; override with --json_out=PATH). --smoke runs
// fewer rounds and exits nonzero when a room fails to converge or the
// JSON cannot be written.
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot
// (byte-identical across runs) and --trace_out=PATH a Chrome
// trace_event timeline (one pid namespace per loss point).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_obs.h"
#include "doc/builder.h"
#include "net/network.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace {

using namespace mmconf;

constexpr int kClients = 4;
constexpr int kRounds = 8;

struct LossyFleet {
  Clock clock;
  storage::DatabaseServer db;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<net::ReliableTransport> transport;
  std::unique_ptr<server::InteractionServer> server;
  std::unique_ptr<sim::Loop> loop;
  net::NodeId server_node = 0, db_node = 0;
  std::vector<net::NodeId> clients;

  explicit LossyFleet(double loss, uint64_t seed = 99,
                      const bench::ObsSinks& sinks = {}, int index = 0) {
    network = std::make_unique<net::Network>(&clock, seed);
    if (sinks.enabled()) sinks.BeginFleet(&clock, index);
    server_node = network->AddNode("server");
    db_node = network->AddNode("db");
    network->SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
    net::FaultSpec fault;
    fault.drop_probability = loss;
    fault.duplicate_probability = loss / 4;
    fault.jitter_micros = 2000;
    for (int i = 0; i < kClients; ++i) {
      net::NodeId node = network->AddNode("client-" + std::to_string(i));
      network->SetDuplexLink(server_node, node, {1e6, 20000}).ok();
      if (loss > 0) network->SetDuplexFault(server_node, node, fault).ok();
      clients.push_back(node);
    }
    net::RetryPolicy policy;
    policy.initial_timeout_micros = 150000;
    policy.max_attempts = 10;
    transport =
        std::make_unique<net::ReliableTransport>(network.get(), policy);
    db.RegisterStandardTypes().ok();
    server = std::make_unique<server::InteractionServer>(
        &db, transport.get(), server_node, db_node);
    loop = std::make_unique<sim::Loop>(transport.get());
    loop->Register(server.get());
    if (sinks.enabled()) {
      network->SetObserver(sinks.metrics, sinks.tracer);
      transport->SetObserver(sinks.metrics, sinks.tracer);
      server->SetObserver(sinks.metrics, sinks.tracer);
    }
    doc::MultimediaDocument document =
        doc::MakeMedicalRecordDocument().value();
    storage::ObjectRef ref = server->StoreDocument(document, "p").value();
    server->OpenRoom("room", ref).value();
    for (int i = 0; i < kClients; ++i) {
      server->Join("room", {"viewer-" + std::to_string(i), clients[i]})
          .value();
    }
    loop->Drain();
  }
};

const char* Choice(int round) {
  static const char* kChoices[] = {"hidden", "thumbnail", "segmented"};
  return kChoices[round % 3];
}

struct LossRow {
  double loss = 0;
  double worst_t2c_ms = 0;
  size_t retries = 0;
  size_t duplicates_suppressed = 0;
  size_t wire_dropped = 0;
  size_t wire_bytes = 0;
  size_t app_bytes = 0;
  bool converged = false;
  double Overhead() const {
    return app_bytes > 0 ? static_cast<double>(wire_bytes) /
                               static_cast<double>(app_bytes)
                         : 0;
  }
};

std::vector<LossRow> RunLossSweep(bool smoke,
                                  const bench::ObsSinks& sinks = {}) {
  const int rounds = smoke ? 3 : kRounds;
  std::vector<LossRow> rows;
  std::printf("== reliability: room consistency vs last-mile loss "
              "(%d rounds, %s) ==\n", rounds, smoke ? "smoke" : "full");
  std::printf("%-7s %-10s %-9s %-9s %-12s %-14s %-10s\n", "loss%",
              "t2c(ms)", "retries", "dups", "drops-wire", "wire/app(B)",
              "overhead");
  int index = 0;
  for (double loss : {0.0, 0.05, 0.10, 0.20}) {
    LossyFleet fleet(loss, 99, sinks, index++);
    size_t app_bytes_before = fleet.server->bytes_propagated();
    size_t wire_before = fleet.network->TotalBytesSent();
    LossRow row;
    row.loss = loss;
    for (int round = 0; round < rounds; ++round) {
      fleet.server
          ->SubmitChoice("room",
                         "viewer-" + std::to_string(round % kClients), "CT",
                         Choice(round))
          .value();
      fleet.loop->Drain();
      server::RoomReliabilityStats stats =
          fleet.server->RoomStats("room").value();
      double t2c_ms = static_cast<double>(stats.last_converged_at -
                                          stats.last_propagate_at) /
                      1000.0;
      if (t2c_ms > row.worst_t2c_ms) row.worst_t2c_ms = t2c_ms;
    }
    server::RoomReliabilityStats room =
        fleet.server->RoomStats("room").value();
    net::ChannelStats totals = fleet.transport->TotalStats();
    net::FaultStats wire_faults = fleet.network->TotalFaultStats();
    row.retries = room.retries;
    row.duplicates_suppressed = totals.duplicates_suppressed;
    row.wire_dropped = wire_faults.dropped;
    row.app_bytes = fleet.server->bytes_propagated() - app_bytes_before;
    row.wire_bytes = fleet.network->TotalBytesSent() - wire_before;
    row.converged = fleet.server->RoomConverged("room");
    std::printf("%-7.0f %-10.1f %-9zu %-9zu %-12zu %zu/%-8zu %.2fx\n",
                row.loss * 100, row.worst_t2c_ms, row.retries,
                row.duplicates_suppressed, row.wire_dropped, row.wire_bytes,
                row.app_bytes, row.Overhead());
    rows.push_back(row);
  }
  return rows;
}

bool WriteJson(const std::string& path, const std::vector<LossRow>& rows,
               bool smoke) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\n  \"bench\": \"reliability_loss_sweep\",\n"
               "  \"smoke\": %s,\n  \"sweep\": [\n",
               smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const LossRow& row = rows[i];
    std::fprintf(
        out,
        "    {\"loss\": %.2f, \"worst_t2c_ms\": %.2f, \"retries\": %zu, "
        "\"duplicates_suppressed\": %zu, \"wire_dropped\": %zu, "
        "\"wire_bytes\": %zu, \"app_bytes\": %zu, \"overhead\": %.3f, "
        "\"converged\": %s}%s\n",
        row.loss, row.worst_t2c_ms, row.retries, row.duplicates_suppressed,
        row.wire_dropped, row.wire_bytes, row.app_bytes, row.Overhead(),
        row.converged ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return bench::CloseChecked(out, path);
}

void BM_PropagateUnderLoss(benchmark::State& state) {
  double loss = static_cast<double>(state.range(0)) / 100.0;
  LossyFleet fleet(loss);
  int round = 0;
  for (auto _ : state) {
    fleet.server
        ->SubmitChoice("room", "viewer-" + std::to_string(round % kClients),
                       "CT", Choice(round))
        .value();
    benchmark::DoNotOptimize(fleet.loop->Drain());
    ++round;
  }
  state.counters["retries"] = static_cast<double>(
      fleet.transport->TotalStats().retries);
}
BENCHMARK(BM_PropagateUnderLoss)->Arg(0)->Arg(5)->Arg(10)->Arg(20);

void BM_ReliableEcho(benchmark::State& state) {
  // Raw transport round-trip on a lossy duplex link, no server on top.
  double loss = static_cast<double>(state.range(0)) / 100.0;
  Clock clock;
  net::Network network(&clock, 7);
  net::NodeId a = network.AddNode("a");
  net::NodeId b = network.AddNode("b");
  network.SetDuplexLink(a, b, {10e6, 5000}).ok();
  if (loss > 0) {
    net::FaultSpec fault;
    fault.drop_probability = loss;
    network.SetDuplexFault(a, b, fault).ok();
  }
  net::RetryPolicy policy;
  policy.initial_timeout_micros = 50000;
  policy.max_attempts = 12;
  net::ReliableTransport transport(&network, policy);
  for (auto _ : state) {
    transport.Send(a, b, 1500, "echo").value();
    benchmark::DoNotOptimize(transport.AdvanceUntilIdle());
  }
}
BENCHMARK(BM_ReliableEcho)->Arg(0)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_reliability.json";
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

  std::vector<LossRow> rows = RunLossSweep(smoke, sinks);
  bool wrote = WriteJson(json_path, rows, smoke);
  if (!metrics_path.empty()) {
    wrote = bench::WriteFileChecked(metrics_path,
                                    registry.Snapshot().ToJson()) &&
            wrote;
  }
  if (!trace_path.empty()) {
    wrote = bench::WriteFileChecked(trace_path, tracer.ToJson()) && wrote;
  }
  bool converged = true;
  for (const LossRow& row : rows) converged = converged && row.converged;
  if (smoke) {
    // ctest perf smoke: fail when a lossy room never converges or the
    // JSON cannot be produced; timing itself is not asserted.
    return converged && wrote ? 0 : 1;
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return converged && wrote ? 0 : 1;
}
