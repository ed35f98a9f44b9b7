// A multi-party tele-consultation (the paper's Figs. 5 and 8): two
// physicians share a "room" over asymmetric links, browse a patient
// record, make viewing choices, freeze and segment the CT, and every
// change propagates to the other partner.
//
//   ./build/examples/medical_conference

#include <cstdio>

#include "client/client.h"
#include "client/layout.h"
#include "doc/builder.h"
#include "imaging/ops.h"
#include "media/synthetic.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"

using namespace mmconf;

int main() {
  Clock clock;
  net::Network network(&clock);
  net::NodeId server_node = network.AddNode("interaction-server");
  net::NodeId db_node = network.AddNode("oracle");
  net::NodeId ws = network.AddNode("hospital-workstation");
  net::NodeId dsl = network.AddNode("home-dsl");
  network.SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
  network.SetDuplexLink(server_node, ws, {10e6, 10000}).ok();
  network.SetDuplexLink(server_node, dsl, {128e3, 60000}).ok();

  net::ReliableTransport transport(&network);
  storage::DatabaseServer db;
  if (!db.RegisterStandardTypes().ok()) return 1;
  server::InteractionServer server(&db, &transport, server_node, db_node);
  // One drive loop pumps the transport and routes the server its traffic.
  sim::Loop loop(&transport);
  loop.Register(&server);

  // Store the CT image and the record document in the database.
  Rng rng(7);
  media::Image ct = media::MakePhantomCt({256, 256, 5, 3.0}, rng);
  auto ct_ref = db.Store("Image",
                         {{"FLD_QUALITY", int64_t{95}},
                          {"FLD_TEXTS", std::string("chest ct")},
                          {"FLD_CM", std::string("slice 42")}},
                         {{"FLD_DATA", ct.Encode()}});
  auto document = doc::MakeMedicalRecordDocument();
  auto doc_ref = server.StoreDocument(*document, "patient-17");
  auto* room = *server.OpenRoom("tumor-board", *doc_ref);

  std::printf("room '%s' opened on patient-17\n\n", room->id().c_str());

  // Two physicians join; the slow link receives its initial content
  // later.
  client::ClientModule cohen("dr-cohen", ws);
  client::ClientModule levi("dr-levi", dsl);
  MicrosT t_cohen = *server.Join("tumor-board", {"dr-cohen", ws});
  MicrosT t_levi = *server.Join("tumor-board", {"dr-levi", dsl});
  std::printf("dr-cohen initial content at %6.1f ms (10 Mb workstation)\n",
              t_cohen / 1000.0);
  std::printf("dr-levi  initial content at %6.1f ms (128 kB/s home DSL)\n\n",
              t_levi / 1000.0);

  std::printf("== shared view (author-optimal default) ==\n%s\n",
              client::RenderDocumentView(room->document(),
                                         room->configuration())
                  ->c_str());

  // dr-cohen wants the CT segmented; the choice pins the CT variable and
  // the presentation module re-optimizes everything else around it.
  server.SubmitChoice("tumor-board", "dr-cohen", "CT", "segmented").value();
  std::printf("== after dr-cohen chooses CT=segmented ==\n%s\n",
              client::RenderDocumentView(room->document(),
                                         room->configuration())
                  ->c_str());

  // dr-levi freezes the CT (nobody else may mutate it), segments the
  // actual pixels, and releases.
  room->Freeze("dr-levi", "CT").ok();
  media::Image fetched =
      *media::Image::Decode(*db.FetchBlob(*ct_ref, "FLD_DATA"));
  media::Image segmented = *imaging::SegmentedView(fetched, 4);
  segmented.AddTextElement(8, 8, "SEE LESION", 255);
  db.Modify(*ct_ref, {}, {{"FLD_DATA", segmented.Encode()}}).ok();
  server::UserAction op;
  op.type = server::ActionType::kSegmentOp;
  op.viewer = "dr-levi";
  op.component = "CT";
  server.ApplyOperation("tumor-board", op, /*globally_important=*/true)
      .value();
  room->ReleaseFreeze("dr-levi", "CT").ok();
  std::printf("dr-levi segmented the CT; the operation variable extends "
              "the CP-net to %zu variables\n\n",
              room->document().num_variables());

  // How the shared view lays out on each partner's screen.
  client::Layout workstation_layout =
      *client::LayoutView(room->document(), room->configuration(), 1280,
                          800);
  client::Layout laptop_layout = *client::LayoutView(
      room->document(), room->configuration(), 640, 400);
  std::printf("workstation layout: %s",
              client::LayoutToString(workstation_layout).c_str());
  std::printf("laptop layout:      %s\n",
              client::LayoutToString(laptop_layout).c_str());

  // Drain the loop: both partners received every propagated change.
  std::vector<net::Delivery> deliveries = loop.Drain();
  cohen.HandleDeliveries(deliveries);
  levi.HandleDeliveries(deliveries);
  std::printf("dr-cohen received %zu deliveries / %zu bytes\n",
              cohen.deliveries_received(), cohen.bytes_received());
  std::printf("dr-levi  received %zu deliveries / %zu bytes\n",
              levi.deliveries_received(), levi.bytes_received());
  std::printf("server pushed %zu bytes total; virtual time %.1f ms\n",
              server.bytes_propagated(), clock.NowSeconds() * 1000.0);
  return 0;
}
