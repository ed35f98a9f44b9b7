// F4 — The paper's Fig. 4 use cases: (a) "Retrieving a document" (client
// requests a document; the interaction server fetches it from the
// database, computes the optimal presentation, ships the content) and
// (b) "Updating the presentation" (a viewer choice arrives; the server
// determines the new optimal presentation and returns the updated
// specification). Reported in simulated network time and wall time.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>
#include <memory>
#include <string>

#include "doc/builder.h"
#include "net/network.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace {

using namespace mmconf;

struct Testbed {
  Clock clock;
  storage::DatabaseServer db;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<net::ReliableTransport> transport;
  std::unique_ptr<server::InteractionServer> server;
  std::unique_ptr<sim::Loop> loop;
  net::NodeId server_node = 0, db_node = 0, client_node = 0,
              peer_node = 0;
  storage::ObjectRef doc_ref;

  Testbed() {
    network = std::make_unique<net::Network>(&clock);
    server_node = network->AddNode("server");
    db_node = network->AddNode("db");
    client_node = network->AddNode("client");
    peer_node = network->AddNode("peer");
    network->SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
    network->SetDuplexLink(server_node, client_node, {1e6, 20000}).ok();
    network->SetDuplexLink(server_node, peer_node, {1e6, 20000}).ok();
    db.RegisterStandardTypes().ok();
    transport = std::make_unique<net::ReliableTransport>(network.get());
    server = std::make_unique<server::InteractionServer>(
        &db, transport.get(), server_node, db_node);
    loop = std::make_unique<sim::Loop>(transport.get());
    loop->Register(server.get());
    doc::MultimediaDocument document =
        doc::MakeMedicalRecordDocument().value();
    doc_ref = server->StoreDocument(document, "patient").value();
    loop->Drain();
  }
};

void PrintFigure4() {
  std::printf("== F4a: retrieve-document use case (simulated time) ==\n");
  Testbed bed;
  MicrosT t0 = bed.clock.NowMicros();
  bed.server->OpenRoom("room", bed.doc_ref).value();
  bed.loop->Drain();
  MicrosT fetched = bed.clock.NowMicros();
  MicrosT delivered =
      bed.server->Join("room", {"viewer", bed.client_node}).value();
  bed.server->Join("room", {"peer", bed.peer_node}).value();
  bed.loop->Drain();
  std::printf("  fetch+decode from db : %8.2f ms\n",
              (fetched - t0) / 1000.0);
  std::printf("  initial content at   : %8.2f ms\n",
              (delivered - t0) / 1000.0);

  std::printf("\n== F4b: update-presentation use case ==\n");
  MicrosT u0 = bed.clock.NowMicros();
  server::ReconfigResult result =
      bed.server->SubmitChoice("room", "viewer", "CT", "hidden").value();
  bed.loop->Drain();
  std::printf("  changed components   : %zu\n",
              result.changed_components.size());
  std::printf("  delta payload        : %zu bytes\n",
              result.delta_cost_bytes);
  std::printf("  room settled after   : %8.2f ms (simulated)\n\n",
              (bed.clock.NowMicros() - u0) / 1000.0);
}

void BM_RetrieveDocument(benchmark::State& state) {
  int i = 0;
  Testbed bed;
  for (auto _ : state) {
    std::string room_id = "room-" + std::to_string(i++);
    benchmark::DoNotOptimize(bed.server->OpenRoom(room_id, bed.doc_ref));
    bed.loop->Drain();
  }
}
BENCHMARK(BM_RetrieveDocument);

void BM_UpdatePresentation(benchmark::State& state) {
  Testbed bed;
  bed.server->OpenRoom("room", bed.doc_ref).value();
  bed.server->Join("room", {"viewer", bed.client_node}).value();
  bed.loop->Drain();
  bool hide = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.server->SubmitChoice(
        "room", "viewer", "CT", hide ? "hidden" : "flat"));
    hide = !hide;
    bed.loop->Drain();
  }
}
BENCHMARK(BM_UpdatePresentation);

void BM_StoreDocument(benchmark::State& state) {
  Testbed bed;
  doc::MultimediaDocument document =
      doc::MakeMedicalRecordDocument().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.server->StoreDocument(document, "p"));
    bed.loop->Drain();
  }
}
BENCHMARK(BM_StoreDocument);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
