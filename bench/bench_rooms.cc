// F8 — The shared "room" (the paper's Fig. 8): join latency, change
// propagation fan-out as the room grows ("If a client makes a change on
// a multi-media object, that change is immediately propagated to other
// clients in the room"), and the cost of the room's reconfiguration
// machinery.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "doc/builder.h"
#include "net/network.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace {

using namespace mmconf;

struct Fleet {
  Clock clock;
  storage::DatabaseServer db;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<net::ReliableTransport> transport;
  std::unique_ptr<server::InteractionServer> server;
  std::unique_ptr<sim::Loop> loop;
  net::NodeId server_node = 0, db_node = 0;
  std::vector<net::NodeId> clients;

  explicit Fleet(int num_clients) {
    network = std::make_unique<net::Network>(&clock);
    server_node = network->AddNode("server");
    db_node = network->AddNode("db");
    network->SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
    for (int i = 0; i < num_clients; ++i) {
      net::NodeId node = network->AddNode("client-" + std::to_string(i));
      // Heterogeneous downlinks: 2 MB/s down to 128 KB/s.
      double bandwidth = 2e6 / (1 + i % 4);
      network->SetDuplexLink(server_node, node, {bandwidth, 20000}).ok();
      clients.push_back(node);
    }
    db.RegisterStandardTypes().ok();
    transport = std::make_unique<net::ReliableTransport>(network.get());
    server = std::make_unique<server::InteractionServer>(
        &db, transport.get(), server_node, db_node);
    loop = std::make_unique<sim::Loop>(transport.get());
    loop->Register(server.get());
    doc::MultimediaDocument document =
        doc::MakeMedicalRecordDocument().value();
    storage::ObjectRef ref = server->StoreDocument(document, "p").value();
    server->OpenRoom("room", ref).value();
    for (int i = 0; i < num_clients; ++i) {
      server->Join("room", {"viewer-" + std::to_string(i), clients[i]})
          .value();
    }
    loop->Drain();
  }
};

void PrintFigure8() {
  std::printf("== F8: change propagation fan-out vs room size ==\n");
  std::printf("%-10s %-16s %-18s %-16s\n", "clients", "delta(B)",
              "last-settled(ms)", "bytes-pushed");
  for (int n : {2, 4, 8, 16, 32}) {
    Fleet fleet(n);
    size_t pushed_before = fleet.server->bytes_propagated();
    MicrosT t0 = fleet.clock.NowMicros();
    server::ReconfigResult result =
        fleet.server->SubmitChoice("room", "viewer-0", "CT", "hidden")
            .value();
    fleet.loop->Drain();
    std::printf("%-10d %-16zu %-18.2f %-16zu\n", n,
                result.delta_cost_bytes,
                (fleet.clock.NowMicros() - t0) / 1000.0,
                fleet.server->bytes_propagated() - pushed_before);
  }
  std::printf("\n");
}

void BM_SubmitChoiceFanout(benchmark::State& state) {
  Fleet fleet(static_cast<int>(state.range(0)));
  bool hide = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.server->SubmitChoice(
        "room", "viewer-0", "CT", hide ? "hidden" : "flat"));
    hide = !hide;
    fleet.loop->Drain();
  }
  state.counters["clients"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SubmitChoiceFanout)->Arg(2)->Arg(8)->Arg(32);

void BM_JoinRoom(benchmark::State& state) {
  Fleet fleet(1);
  int i = 100;
  for (auto _ : state) {
    net::NodeId node =
        fleet.network->AddNode("late-" + std::to_string(i));
    fleet.network->SetDuplexLink(fleet.server_node, node, {1e6, 20000})
        .ok();
    benchmark::DoNotOptimize(fleet.server->Join(
        "room", {"late-" + std::to_string(i), node}));
    ++i;
    fleet.loop->Drain();
  }
}
BENCHMARK(BM_JoinRoom);

void BM_FreezeReleaseCycle(benchmark::State& state) {
  Fleet fleet(2);
  server::Room* room = fleet.server->GetRoom("room").value();
  for (auto _ : state) {
    room->Freeze("viewer-0", "CT").ok();
    room->ReleaseFreeze("viewer-0", "CT").ok();
  }
}
BENCHMARK(BM_FreezeReleaseCycle);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure8();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
