// The interaction tier, federated: three interaction nodes share one
// database and one reliable transport. A front door admits physicians
// to the node their room hashes to, a mis-directed request is forwarded
// between nodes, and then the room — members, choices, a mid-flight CT
// stream — migrates live to another node with byte-verified log replay
// before the cutover.
//
//   ./build/examples/federated_conference

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "federation/tier.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "storage/database.h"

using namespace mmconf;

int main() {
  Clock clock;
  net::Network network(&clock);
  net::NodeId db_node = network.AddNode("oracle");
  storage::DatabaseServer db;
  if (!db.RegisterStandardTypes().ok()) return 1;

  federation::FederationOptions options;
  options.num_nodes = 3;
  options.backbone = {50e6, 1000};
  federation::FederatedInteractionTier tier(&db, &network, db_node, options);
  obs::MetricsRegistry metrics;
  tier.SetObserver(&metrics, nullptr);

  net::NodeId ws = network.AddNode("hospital-workstation");
  net::NodeId dsl = network.AddNode("home-dsl");
  tier.ConnectClient(ws, {10e6, 10000}).ok();
  tier.ConnectClient(dsl, {1e6, 30000}).ok();

  const std::string room_id = "tumor-board";
  tier.OpenRoomWithDocument(room_id, doc::MakeMedicalRecordDocument().value())
      .value();
  size_t home = tier.NodeOf(room_id).value();
  std::printf("room '%s' hashes to fed-node-%zu of %zu nodes\n\n",
              room_id.c_str(), home, tier.num_nodes());

  // Front-door admission: node 0 forwards the join to the owning node.
  tier.Join(room_id, {"dr-cohen", ws}).value();
  tier.Join(room_id, {"dr-levi", dsl}).value();
  tier.loop()->Settle().value();
  std::printf("both physicians admitted via the front door (node 0 -> "
              "node %zu)\n", home);

  // dr-levi's stale client sends its choice to the wrong node; the tier
  // forwards it over the backbone and applies it on the owner.
  size_t wrong = (home + 1) % tier.num_nodes();
  tier.SubmitChoiceVia(wrong, room_id, "dr-levi", "CT", "segmented").value();
  tier.loop()->Settle().value();
  std::printf("dr-levi's CT=segmented entered at node %zu, forwarded to "
              "node %zu (fed.routed=%llu)\n\n",
              wrong, home,
              static_cast<unsigned long long>(
                  metrics.GetCounter("fed.routed")->value()));

  // Open a layered CT stream toward dr-cohen, then migrate the room
  // while the stream still has objects to deliver.
  Rng rng(7);
  compress::LayeredCodec codec;
  std::vector<Bytes> slices;
  for (int s = 0; s < 3; ++s) {
    slices.push_back(
        codec.Encode(media::MakePhantomCt({64, 64, 4, 2.0}, rng)).value());
  }
  tier.node(home)->OpenStream(room_id, "dr-cohen", slices, {}).value();

  size_t target = (home + 2) % tier.num_nodes();
  tier.StartMigration(room_id, target).ok();
  // The room keeps serving while the snapshot is in flight.
  tier.SubmitChoice(room_id, "dr-cohen", "XRay", "flat").value();
  federation::MigrationReport report = tier.FinishMigration(room_id).value();

  std::printf("== migrated '%s' node %zu -> node %zu ==\n", room_id.c_str(),
              report.from_node, report.to_node);
  std::printf("  snapshot        %zu bytes over the backbone\n",
              report.state_bytes);
  std::printf("  replayed        %zu actions (%zu arrived mid-migration)\n",
              report.replayed_actions, report.delta_actions);
  std::printf("  streams carried %zu (resumed at their chunk boundary)\n",
              report.streams_carried);
  std::printf("  verified        %s (Room::Serialize byte-equal before "
              "cutover)\n",
              report.verified ? "yes" : "NO");
  std::printf("  took            %.1f ms of virtual time\n\n",
              (report.completed_at - report.started_at) / 1000.0);

  // Let the carried stream finish from its new node, then show the
  // per-node load the gauges publish.
  tier.loop()->Settle().value();
  std::vector<federation::NodeLoad> loads = tier.Loads();
  std::printf("per-node load after migration:\n");
  for (size_t i = 0; i < loads.size(); ++i) {
    std::printf("  fed-node-%zu: %zu rooms, %zu members, %zu reliable "
                "msgs, %zu bytes propagated\n",
                i, loads[i].rooms, loads[i].members, loads[i].messages,
                loads[i].bytes_propagated);
  }
  stream::StreamStats stats =
      tier.node(target)->RoomStreamStats(room_id).value()[0];
  std::printf("\nstream %llu finished on node %zu: %zu/%zu chunks acked\n",
              static_cast<unsigned long long>(stats.id), target,
              stats.chunks_acked, stats.chunks_total);
  return report.verified && stats.finished ? 0 : 1;
}
