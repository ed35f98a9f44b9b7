// The lecture/webinar tier: one small interaction room (the lecturer
// and a moderator) broadcasts to a ten-thousand-viewer audience that
// never joins the room. The hosting node composes the room's visible
// images into one mosaic stream per bandwidth class and mixes the
// active speakers; a relay tree replicates the composed stream so the
// server's egress stays O(fanout) while only the (unavoidable) last
// hop scales with the audience. Mid-run the microphone changes hands
// and the mix follows within one selection window.
//
//   ./build/examples/lecture_webinar

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "doc/builder.h"
#include "fanout/director.h"
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

  federation::FederationOptions fed_options;
  fed_options.num_nodes = 3;
  fed_options.backbone = {50e6, 1000};
  federation::FederatedInteractionTier tier(&db, &network, db_node,
                                            fed_options);
  fanout::BroadcastDirector director(&tier, &network);
  obs::MetricsRegistry metrics;
  director.SetObserver(&metrics, nullptr);

  // The room itself stays tiny: the lecturer and a moderator.
  net::NodeId podium = network.AddNode("lecture-hall-podium");
  tier.ConnectClient(podium, {10e6, 10000}).ok();
  const std::string room_id = "grand-rounds";
  tier.OpenRoomWithDocument(room_id, doc::MakeMedicalRecordDocument().value())
      .value();
  tier.Join(room_id, {"dr-lecturer", podium}).value();
  tier.Join(room_id, {"moderator", podium}).value();
  tier.loop()->Settle().value();
  size_t host = tier.NodeOf(room_id).value();
  std::printf("room '%s' hosts its broadcast on fed-node-%zu\n",
              room_id.c_str(), host);

  // Stand the broadcast up and bind the room's CT to its pixels.
  fanout::BroadcastOptions options;
  options.compositor.high_px = 64;
  options.compositor.medium_px = 32;
  options.compositor.low_px = 16;
  fanout::BroadcastSession* session =
      director.HostBroadcast(room_id, 10000, options).value();
  Rng rng(7);
  media::Image ct = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
  director.RegisterImage(room_id, "CT", ct).ok();

  // The speaker handoff, on the audio timeline: the lecturer talks for
  // the first second (frames 0-1), then hands the microphone to the
  // moderator for the second (frames 2-3). 8 kHz, 500 ms per frame.
  media::AudioSignal lecturer(std::vector<float>(16000, 0.3f), 8000);
  media::AudioSignal moderator(std::vector<float>(16000, -0.25f), 8000);
  director
      .RegisterSpeaker(room_id, 1, lecturer,
                       {{0, 8000, media::AudioClass::kSpeech, 1, -1}})
      .ok();
  director
      .RegisterSpeaker(room_id, 2, moderator,
                       {{8000, 16000, media::AudioClass::kSpeech, 2, -1}})
      .ok();

  // Ten thousand view-only clients through the front door — they never
  // join the room — plus two fully simulated viewers on lossy DSL.
  director.AdmitViewers(room_id, 6000, doc::BandwidthLevel::kHigh).ok();
  director.AdmitViewers(room_id, 3000, doc::BandwidthLevel::kMedium).ok();
  director.AdmitViewers(room_id, 1000, doc::BandwidthLevel::kLow).ok();
  net::FaultSpec lossy;
  lossy.drop_probability = 0.05;
  net::NodeId dsl_viewer =
      director
          .AdmitSampledViewer(room_id, doc::BandwidthLevel::kMedium,
                              {1e6, 30000}, lossy)
          .value();
  director
      .AdmitSampledViewer(room_id, doc::BandwidthLevel::kLow, {5e5, 40000},
                          lossy)
      .value();
  std::printf("audience: %zu aggregated over %zu edge relays, 2 sampled "
              "end-to-end\n\n",
              session->tree()->total_viewers(),
              session->tree()->edge_relays().size());

  // Four composed frames: the mix follows the handoff automatically.
  for (int frame = 0; frame < 4; ++frame) {
    director.PushFrame(room_id).ok();
    tier.loop()->Settle().value();
  }
  // Replay the composition (it is pure) to show who was live per frame.
  std::vector<fanout::SpeakerTrack> tracks = {
      {1, &lecturer, {{0, 8000, media::AudioClass::kSpeech, 1, -1}}},
      {2, &moderator, {{8000, 16000, media::AudioClass::kSpeech, 2, -1}}},
  };
  for (uint32_t frame = 0; frame < 4; ++frame) {
    auto composed =
        session->compositor().ComposeFrame(frame, {ct}, tracks).value();
    std::printf("frame %u: active speaker(s):", frame);
    for (int speaker : composed[0].active_speakers) {
      std::printf(" %s", speaker == 1 ? "dr-lecturer" : "moderator");
    }
    std::printf("  (%zu composed bytes @high)\n", composed[0].video.size());
  }

  fanout::BroadcastStats stats = session->Stats();
  std::printf("\n== what the tree bought ==\n");
  std::printf("  server egress     %10zu B (O(fanout), audience-blind)\n",
              stats.server_egress_bytes);
  std::printf("  tree wire         %10zu B over %zu relays\n",
              stats.tree_wire_bytes, stats.relays);
  std::printf("  modeled last hop  %10zu B (the hop every scheme pays)\n",
              stats.modeled_last_hop_bytes);
  std::printf("  unicast instead   %10zu B would have left the server\n",
              stats.unicast_equiv_bytes);
  std::printf("  reduction         %10.0fx\n",
              static_cast<double>(stats.unicast_equiv_bytes) /
                  static_cast<double>(stats.server_egress_bytes));
  fanout::SampledViewerStats viewer = session->ViewerStats(dsl_viewer).value();
  std::printf("\nsampled DSL viewer: %zu/%zu frames delivered, %zu aborted, "
              "%zu audio msgs (loss injected, bases never dropped)\n",
              viewer.frames_delivered, stats.frames, viewer.frames_aborted,
              viewer.audio_messages);
  std::printf("mix.windows=%llu mix.ties_broken=%llu fanout.frames=%llu\n",
              static_cast<unsigned long long>(
                  metrics.GetCounter("mix.windows")->value()),
              static_cast<unsigned long long>(
                  metrics.GetCounter("mix.ties_broken")->value()),
              static_cast<unsigned long long>(
                  metrics.GetCounter("fanout.frames")->value()));

  bool healthy = stats.all_finished && stats.streams_aborted == 0 &&
                 stats.server_egress_bytes < stats.unicast_equiv_bytes &&
                 viewer.frames_delivered == stats.frames;
  return healthy ? 0 : 1;
}
