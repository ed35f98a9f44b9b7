#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "doc/builder.h"
#include "fanout/broadcast.h"
#include "fanout/compositor.h"
#include "fanout/director.h"
#include "fanout/relay_tree.h"
#include "federation/tier.h"
#include "imaging/ops.h"
#include "media/image.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace mmconf::fanout {
namespace {

using doc::BandwidthLevel;
using media::AudioClass;
using media::AudioSegment;
using media::AudioSignal;
using media::Image;

// --- GridCells (imaging) ---

TEST(GridCellsTest, TilesExactlyEvenWhenNonDivisible) {
  // 100 x 70 into 3 x 3: neither extent divides, yet the cells must be
  // non-empty, in bounds, pairwise disjoint, and cover every pixel.
  auto cells = imaging::GridCells(100, 70, 3, 3).value();
  ASSERT_EQ(cells.size(), 9u);
  std::vector<std::vector<int>> hits(70, std::vector<int>(100, 0));
  for (const media::Rect& cell : cells) {
    EXPECT_GT(cell.width, 0);
    EXPECT_GT(cell.height, 0);
    EXPECT_GE(cell.x, 0);
    EXPECT_GE(cell.y, 0);
    EXPECT_LE(cell.x + cell.width, 100);
    EXPECT_LE(cell.y + cell.height, 70);
    for (int y = cell.y; y < cell.y + cell.height; ++y) {
      for (int x = cell.x; x < cell.x + cell.width; ++x) ++hits[y][x];
    }
  }
  for (const auto& row : hits) {
    for (int count : row) EXPECT_EQ(count, 1);
  }
}

TEST(GridCellsTest, RejectsEmptyAndOverfineGrids) {
  EXPECT_TRUE(imaging::GridCells(0, 10, 1, 1).status().IsInvalidArgument());
  EXPECT_TRUE(imaging::GridCells(10, 10, 0, 2).status().IsInvalidArgument());
  // More columns than pixels would force empty cells.
  EXPECT_TRUE(imaging::GridCells(3, 10, 1, 4).status().IsInvalidArgument());
  EXPECT_TRUE(imaging::GridCells(10, 3, 4, 1).status().IsInvalidArgument());
  // 1 x 1 is the degenerate full-canvas cell.
  auto one = imaging::GridCells(10, 10, 1, 1).value();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (media::Rect{0, 0, 10, 10}));
}

// --- Mosaic composition ---

Image TestPattern(int width, int height, uint8_t base) {
  Image image = Image::Create(width, height).value();
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      image.set(x, y, static_cast<uint8_t>(base + (x * 7 + y * 13) % 100));
    }
  }
  return image;
}

TEST(MosaicTest, ZeroSourcesIsBareBackground) {
  MosaicOptions options;
  options.width = 48;
  options.height = 48;
  options.background = 33;
  Image mosaic = ComposeMosaic({}, options).value();
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 48; ++x) EXPECT_EQ(mosaic.at(x, y), 33);
  }
}

TEST(MosaicTest, SingleSourceFillsTheCanvas) {
  MosaicOptions options;
  options.width = 64;
  options.height = 64;
  options.background = 0;
  options.draw_borders = false;
  std::vector<Image> sources = {TestPattern(32, 32, 100)};
  Image mosaic = ComposeMosaic(sources, options).value();
  // One source -> one 1x1 cell covering everything: no background pixel
  // survives (the pattern stays >= 100 everywhere, bilinear included).
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) EXPECT_GE(mosaic.at(x, y), 100);
  }
}

TEST(MosaicTest, NonDivisibleGridIsDeterministicAndInBounds) {
  // 3 sources on a 100 x 100 canvas: cols = 2, rows = 2, 100 odd against
  // nothing but the cell edges land on 0/50/100 — and with 5 sources on
  // a 90 x 70 canvas cols = 3, neither extent divisible by 3.
  for (int n : {3, 5}) {
    MosaicOptions options;
    options.width = 90;
    options.height = 70;
    std::vector<Image> sources;
    for (int i = 0; i < n; ++i) {
      sources.push_back(TestPattern(31 + i, 17 + 2 * i, 50));
    }
    Image a = ComposeMosaic(sources, options).value();
    Image b = ComposeMosaic(sources, options).value();
    EXPECT_EQ(a.Encode(), b.Encode()) << n << " sources";
  }
}

// --- Active-speaker mixing ---

/// A track whose speech segments cover [begin, end) of `length` samples.
SpeakerTrack MakeTrack(int speaker, const AudioSignal* signal, size_t begin,
                       size_t end) {
  SpeakerTrack track;
  track.speaker = speaker;
  track.signal = signal;
  AudioSegment segment;
  segment.begin = begin;
  segment.end = end;
  segment.cls = AudioClass::kSpeech;
  segment.speaker = speaker;
  track.segments.push_back(segment);
  return track;
}

TEST(MixTest, LoneSpeakerKeepsFullLevel) {
  AudioSignal voice(std::vector<float>(4000, 0.5f), 8000);
  std::vector<SpeakerTrack> tracks = {MakeTrack(1, &voice, 0, 4000)};
  MixOptions options;
  options.max_active = 2;
  MixResult result = MixActiveSpeakers(tracks, 4000, 8000, options).value();
  ASSERT_EQ(result.mixed.size(), 4000u);
  for (float sample : result.mixed.samples()) EXPECT_FLOAT_EQ(sample, 0.5f);
  ASSERT_EQ(result.windows, 2u);
  for (const auto& window : result.active_per_window) {
    ASSERT_EQ(window.size(), 1u);
    EXPECT_EQ(window[0], 1);
  }
}

TEST(MixTest, SeededTieBreakIsOrderIndependent) {
  // Four speakers, all with identical full-window activity: the cut
  // between selected and muted is decided purely by the seeded rank, so
  // shuffling the input order must not change one sample of the output.
  std::vector<AudioSignal> voices;
  for (int s = 0; s < 4; ++s) {
    voices.emplace_back(std::vector<float>(2000, 0.1f * (s + 1)), 8000);
  }
  std::vector<SpeakerTrack> tracks;
  for (int s = 0; s < 4; ++s) {
    tracks.push_back(MakeTrack(s, &voices[s], 0, 2000));
  }
  MixOptions options;
  options.max_active = 2;
  MixResult baseline = MixActiveSpeakers(tracks, 2000, 8000, options).value();
  EXPECT_GT(baseline.ties_broken, 0u);

  std::vector<SpeakerTrack> shuffled = {tracks[2], tracks[0], tracks[3],
                                        tracks[1]};
  MixResult again = MixActiveSpeakers(shuffled, 2000, 8000, options).value();
  EXPECT_EQ(baseline.mixed.Encode(), again.mixed.Encode());
  EXPECT_EQ(baseline.active_per_window, again.active_per_window);
  EXPECT_EQ(baseline.ties_broken, again.ties_broken);
}

TEST(MixTest, TieRankIsDeterministicPerSeedAndVariesAcrossSeeds) {
  bool any_differ = false;
  for (int speaker = 0; speaker < 8; ++speaker) {
    EXPECT_EQ(SpeakerTieRank(7, speaker), SpeakerTieRank(7, speaker));
    if (SpeakerTieRank(7, speaker) != SpeakerTieRank(8, speaker)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(MixTest, ActivityOutranksTheTieBreak) {
  // Speaker 5 talks the whole window, the others half of it: 5 must be
  // selected first in every window regardless of seed.
  std::vector<AudioSignal> voices;
  for (int s = 0; s < 3; ++s) {
    voices.emplace_back(std::vector<float>(2000, 0.2f), 8000);
  }
  std::vector<SpeakerTrack> tracks = {MakeTrack(5, &voices[0], 0, 2000),
                                      MakeTrack(1, &voices[1], 0, 1000),
                                      MakeTrack(2, &voices[2], 0, 1000)};
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    MixOptions options;
    options.max_active = 2;
    options.tie_seed = seed;
    MixResult result = MixActiveSpeakers(tracks, 2000, 8000, options).value();
    ASSERT_FALSE(result.active_per_window.empty());
    EXPECT_EQ(result.active_per_window[0][0], 5) << "seed " << seed;
  }
}

TEST(MixTest, RejectsMismatchedRatesAndDuplicateSpeakers) {
  AudioSignal a(std::vector<float>(100, 0.1f), 8000);
  AudioSignal b(std::vector<float>(100, 0.1f), 16000);
  std::vector<SpeakerTrack> mixed_rates = {MakeTrack(1, &a, 0, 100),
                                           MakeTrack(2, &b, 0, 100)};
  EXPECT_TRUE(MixActiveSpeakers(mixed_rates, 100, 8000, {})
                  .status()
                  .IsInvalidArgument());
  std::vector<SpeakerTrack> duplicates = {MakeTrack(1, &a, 0, 100),
                                          MakeTrack(1, &a, 0, 100)};
  EXPECT_TRUE(MixActiveSpeakers(duplicates, 100, 8000, {})
                  .status()
                  .IsInvalidArgument());
}

// --- Compositor ---

CompositorOptions SmallCompositor() {
  CompositorOptions options;
  options.high_px = 64;
  options.medium_px = 32;
  options.low_px = 16;
  return options;
}

TEST(CompositorTest, ComposeFrameIsByteDeterministic) {
  Rng rng(11);
  std::vector<Image> images = {media::MakePhantomCt({64, 64, 3, 2.0}, rng),
                               media::MakePhantomCt({48, 48, 2, 2.0}, rng)};
  AudioSignal voice(std::vector<float>(8000, 0.3f), 8000);
  std::vector<SpeakerTrack> tracks = {MakeTrack(1, &voice, 0, 8000)};

  Compositor a(SmallCompositor());
  Compositor b(SmallCompositor());
  auto frames_a = a.ComposeFrame(0, images, tracks).value();
  auto frames_b = b.ComposeFrame(0, images, tracks).value();
  ASSERT_EQ(frames_a.size(), 3u);
  ASSERT_EQ(frames_b.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frames_a[i].video, frames_b[i].video);
    EXPECT_EQ(frames_a[i].audio, frames_b[i].audio);
    EXPECT_EQ(frames_a[i].active_speakers, frames_b[i].active_speakers);
    EXPECT_FALSE(frames_a[i].video.empty());
  }
  // Classes are ordered high/medium/low and the mosaic shrinks with the
  // bandwidth class.
  EXPECT_EQ(frames_a[0].level, BandwidthLevel::kHigh);
  EXPECT_EQ(frames_a[2].level, BandwidthLevel::kLow);
  EXPECT_GT(frames_a[0].video.size(), frames_a[2].video.size());
}

TEST(CompositorTest, RepeatedImagesReuseTheEncodedVideos) {
  Rng rng(21);
  const std::vector<Image> images = {
      media::MakePhantomCt({64, 64, 3, 2.0}, rng),
      media::MakePhantomCt({48, 48, 2, 2.0}, rng)};
  AudioSignal voice(std::vector<float>(16000, 0.2f), 16000);
  const std::vector<SpeakerTrack> tracks = {MakeTrack(4, &voice, 0, 16000)};
  obs::MetricsRegistry metrics;
  compress::SetKernelObserver(&metrics);
  const auto passes = [&] {
    return metrics.Snapshot().counters.at("compress.kernel.region_passes");
  };
  // Each call must equal a fresh compositor's frames for the same input.
  const auto expect_fresh = [&](const std::vector<ComposedFrame>& frames,
                                uint32_t index,
                                const std::vector<Image>& input) {
    Compositor fresh(SmallCompositor());
    auto expected = fresh.ComposeFrame(index, input, tracks).value();
    ASSERT_EQ(frames.size(), expected.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].index, index);
      EXPECT_EQ(frames[i].level, expected[i].level);
      EXPECT_EQ(frames[i].video, expected[i].video);
      EXPECT_EQ(frames[i].audio, expected[i].audio);
      EXPECT_EQ(frames[i].active_speakers, expected[i].active_speakers);
    }
  };

  Compositor compositor(SmallCompositor());
  ASSERT_TRUE(compositor.ComposeFrame(0, images, tracks).ok());
  const uint64_t after_first = passes();
  EXPECT_GT(after_first, 0u);
  // The same images again: no region pass, same bytes as a fresh
  // compositor, and the audio is still this frame's own window.
  auto repeat = compositor.ComposeFrame(1, images, tracks).value();
  EXPECT_EQ(passes(), after_first);
  expect_fresh(repeat, 1, images);

  // One pixel, one text overlay, one line overlay or the order changes:
  // each must miss.
  std::vector<std::vector<Image>> changed(4, images);
  changed[0][1].set(7, 9, changed[0][1].at(7, 9) ^ 1);
  changed[1][0].AddTextElement(3, 3, "A");
  changed[2][1].AddLineElement(0, 0, 10, 10);
  std::swap(changed[3][0], changed[3][1]);
  uint32_t index = 2;
  for (const std::vector<Image>& input : changed) {
    const uint64_t before = passes();
    auto frames = compositor.ComposeFrame(index, input, tracks).value();
    EXPECT_GT(passes(), before) << "variant " << index - 2;
    expect_fresh(frames, index, input);
    ++index;
  }
  compress::SetKernelObserver(nullptr);
}

// --- Relay tree ---

class RelayTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    root_ = network_->AddNode("origin");
  }

  /// Asserts the structural invariants: single parent, every relay
  /// reachable from the root, viewers on edges only. `fanout` > 0 also
  /// enforces the children cap (a Reparent may legitimately overfill the
  /// root, so post-repair checks pass 0).
  void CheckInvariants(const RelayTree& tree, size_t fanout) {
    std::map<net::NodeId, size_t> child_count;
    for (net::NodeId relay : tree.relays()) {
      net::NodeId parent = tree.ParentOf(relay).value();
      ++child_count[parent];
      EXPECT_TRUE(parent == tree.root() || tree.IsRelay(parent));
    }
    if (fanout > 0) {
      for (const auto& [node, count] : child_count) {
        EXPECT_LE(count, fanout) << "node " << node;
      }
    }
    // BFS from the root covers every relay.
    std::set<net::NodeId> reached;
    std::vector<net::NodeId> frontier = {tree.root()};
    while (!frontier.empty()) {
      net::NodeId node = frontier.back();
      frontier.pop_back();
      for (net::NodeId child : tree.ChildrenOf(node)) {
        EXPECT_TRUE(reached.insert(child).second) << "visited twice";
        frontier.push_back(child);
      }
    }
    EXPECT_EQ(reached.size(), tree.relays().size());
    for (net::NodeId relay : tree.relays()) {
      if (!tree.IsEdge(relay)) {
        EXPECT_TRUE(tree.ViewersAt(relay).status().IsNotFound());
      }
    }
  }

  Clock clock_;
  std::unique_ptr<net::Network> network_;
  net::NodeId root_ = 0;
};

TEST_F(RelayTreeTest, BuildSizesEdgesAndSpineToTheAudience) {
  RelayTreeOptions options;
  options.fanout = 4;
  options.viewers_per_edge = 100;
  RelayTree tree(network_.get(), root_, "lecture", options);
  ASSERT_TRUE(tree.Build(1000).ok());
  // ceil(1000 / 100) = 10 edges; interior spine packs them 4 per parent:
  // 3 interiors over the edges, all 3 fit under the root directly.
  EXPECT_EQ(tree.edge_relays().size(), 10u);
  EXPECT_GE(tree.num_relays(), 13u);
  EXPECT_LE(tree.ChildrenOf(root_).size(), 4u);
  std::map<net::NodeId, size_t> child_count;
  for (net::NodeId relay : tree.relays()) {
    ++child_count[tree.ParentOf(relay).value()];
  }
  for (const auto& [node, count] : child_count) {
    EXPECT_LE(count, 4u) << "node " << node;
  }
  CheckInvariants(tree, 4);
  EXPECT_TRUE(tree.Build(10).IsFailedPrecondition());  // built once
}

TEST_F(RelayTreeTest, AssignmentIsDeterministicLeastLoaded) {
  RelayTreeOptions options;
  options.fanout = 4;
  options.viewers_per_edge = 10;
  RelayTree tree(network_.get(), root_, "lec", options);
  ASSERT_TRUE(tree.Build(30).ok());  // 3 edges
  ASSERT_EQ(tree.edge_relays().size(), 3u);
  // Empty tree: ties across all edges resolve to the lowest index.
  EXPECT_EQ(tree.AssignViewer().value(), tree.edge_relays()[0]);
  EXPECT_EQ(tree.AssignViewer().value(), tree.edge_relays()[1]);
  EXPECT_EQ(tree.AssignViewer().value(), tree.edge_relays()[2]);
  EXPECT_EQ(tree.AssignViewer().value(), tree.edge_relays()[0]);
  ASSERT_TRUE(tree.AssignAudience(32).ok());
  EXPECT_EQ(tree.total_viewers(), 36u);
  // Bulk admission levels the edges to within one viewer.
  size_t low = SIZE_MAX, high = 0;
  for (net::NodeId edge : tree.edge_relays()) {
    size_t viewers = tree.ViewersAt(edge).value();
    low = std::min(low, viewers);
    high = std::max(high, viewers);
  }
  EXPECT_LE(high - low, 1u);
}

TEST_F(RelayTreeTest, ReparentRehangsTheOrphanedSubtree) {
  RelayTreeOptions options;
  options.fanout = 2;
  options.viewers_per_edge = 10;
  RelayTree tree(network_.get(), root_, "lec", options);
  ASSERT_TRUE(tree.Build(80).ok());  // 8 edges, binary spine above
  CheckInvariants(tree, 2);
  // Kill the link feeding the first edge relay and re-hang it: the dead
  // parent was interior, so the orphan lands directly under the root.
  net::NodeId edge = tree.edge_relays()[0];
  net::NodeId old_parent = tree.ParentOf(edge).value();
  ASSERT_TRUE(network_->RemoveLink(old_parent, edge).ok());
  net::NodeId new_parent = tree.Reparent(edge).value();
  EXPECT_NE(new_parent, old_parent);
  EXPECT_EQ(new_parent, tree.root());
  EXPECT_EQ(tree.ParentOf(edge).value(), new_parent);
  EXPECT_EQ(tree.rebuilds(), 1u);
  CheckInvariants(tree, 0);
  // An interior relay re-hangs with its whole subtree intact.
  net::NodeId interior = -1;
  for (net::NodeId relay : tree.relays()) {
    if (!tree.IsEdge(relay) && tree.IsRelay(tree.ParentOf(relay).value())) {
      interior = relay;
      break;
    }
  }
  ASSERT_TRUE(tree.IsRelay(interior));
  std::vector<net::NodeId> below = tree.ChildrenOf(interior);
  ASSERT_FALSE(below.empty());
  EXPECT_EQ(tree.Reparent(interior).value(), tree.root());
  EXPECT_EQ(tree.ChildrenOf(interior), below);  // subtree untouched
  EXPECT_EQ(tree.rebuilds(), 2u);
  CheckInvariants(tree, 0);
}

TEST_F(RelayTreeTest, RerootMovesTheFirstHopLinks) {
  RelayTreeOptions options;
  options.fanout = 4;
  options.viewers_per_edge = 10;
  RelayTree tree(network_.get(), root_, "lec", options);
  ASSERT_TRUE(tree.Build(40).ok());
  std::vector<net::NodeId> first_hop = tree.ChildrenOf(root_);
  ASSERT_FALSE(first_hop.empty());
  net::NodeId new_root = network_->AddNode("origin-2");
  ASSERT_TRUE(tree.Reroot(new_root).ok());
  EXPECT_EQ(tree.root(), new_root);
  EXPECT_TRUE(tree.ChildrenOf(root_).empty());
  EXPECT_EQ(tree.ChildrenOf(new_root), first_hop);
  CheckInvariants(tree, 4);
}

// --- BroadcastSession end to end ---

class BroadcastSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    origin_ = network_->AddNode("origin");
    transport_ = std::make_unique<net::ReliableTransport>(network_.get());

    Rng rng(3);
    images_.push_back(media::MakePhantomCt({64, 64, 3, 2.0}, rng));
    images_.push_back(media::MakePhantomCt({64, 64, 2, 2.0}, rng));
    voice_a_ = AudioSignal(std::vector<float>(16000, 0.3f), 8000);
    voice_b_ = AudioSignal(std::vector<float>(16000, -0.2f), 8000);
    tracks_ = {MakeTrack(1, &voice_a_, 0, 16000),
               MakeTrack(2, &voice_b_, 0, 8000)};
  }

  BroadcastOptions SmallBroadcast() {
    BroadcastOptions options;
    options.tree.fanout = 2;
    options.tree.viewers_per_edge = 50;
    options.compositor = SmallCompositor();
    return options;
  }

  Clock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  net::NodeId origin_ = 0;
  std::vector<Image> images_;
  AudioSignal voice_a_, voice_b_;
  std::vector<SpeakerTrack> tracks_;
};

TEST_F(BroadcastSessionTest, TreeBeatsUnicastAndNoBaseDropsUnderLoss) {
  obs::MetricsRegistry metrics;
  BroadcastSession session(network_.get(), transport_.get(), origin_,
                           "lecture", SmallBroadcast());
  sim::Loop loop(transport_.get());
  loop.Register(&session);
  session.SetObserver(&metrics, nullptr);
  EXPECT_TRUE(session.PushFrame(images_, tracks_).IsFailedPrecondition());
  ASSERT_TRUE(session.OpenAudience(200).ok());
  ASSERT_TRUE(session.AdmitAudience(120, BandwidthLevel::kHigh).ok());
  ASSERT_TRUE(session.AdmitAudience(80, BandwidthLevel::kLow).ok());

  // Two real viewers ride lossy last-mile links; their composed streams
  // run through the actual StreamScheduler, so base-layer delivery is
  // measured, not assumed.
  net::FaultSpec lossy;
  lossy.drop_probability = 0.08;
  net::NodeId high_viewer =
      session.AdmitSampledViewer(BandwidthLevel::kHigh, {1e6, 20000}, lossy)
          .value();
  net::NodeId low_viewer =
      session.AdmitSampledViewer(BandwidthLevel::kLow, {5e5, 30000}, lossy)
          .value();

  for (int frame = 0; frame < 3; ++frame) {
    ASSERT_TRUE(session.PushFrame(images_, tracks_).ok());
    ASSERT_TRUE(loop.Settle().ok());
  }

  BroadcastStats stats = session.Stats();
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.audience, 200u);
  EXPECT_EQ(stats.sampled_viewers, 2u);
  EXPECT_TRUE(stats.all_finished);
  // The acceptance gates: no composed stream ever lost a base chunk,
  // and the tree's origin egress undercuts per-viewer unicast.
  EXPECT_EQ(stats.streams_aborted, 0u);
  EXPECT_EQ(stats.streams_finished, stats.streams_opened);
  EXPECT_GT(stats.server_egress_bytes, 0u);
  EXPECT_LT(stats.server_egress_bytes, stats.unicast_equiv_bytes);
  EXPECT_GT(stats.modeled_last_hop_bytes, 0u);

  SampledViewerStats high = session.ViewerStats(high_viewer).value();
  EXPECT_EQ(high.frames_delivered, 3u);
  EXPECT_EQ(high.frames_aborted, 0u);
  EXPECT_EQ(high.audio_messages, 3u);
  SampledViewerStats low = session.ViewerStats(low_viewer).value();
  EXPECT_EQ(low.frames_delivered, 3u);
  EXPECT_EQ(low.frames_aborted, 0u);

  EXPECT_EQ(metrics.GetCounter("fanout.frames")->value(), 3u);
  EXPECT_GT(metrics.GetCounter("fanout.relay_forwards")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("fanout.viewer_streams")->value(),
            stats.streams_opened);
  EXPECT_GT(metrics.GetCounter("mix.windows")->value(), 0u);
}

TEST_F(BroadcastSessionTest, DeadTreeLinkReparentsAndReplaysHistory) {
  BroadcastSession session(network_.get(), transport_.get(), origin_,
                           "lecture", SmallBroadcast());
  sim::Loop loop(transport_.get());
  loop.Register(&session);
  ASSERT_TRUE(session.OpenAudience(200).ok());  // 4 edges, binary spine
  net::FaultSpec clean;
  net::NodeId viewer =
      session.AdmitSampledViewer(BandwidthLevel::kHigh, {1e6, 20000}, clean)
          .value();
  ASSERT_TRUE(session.PushFrame(images_, tracks_).ok());
  ASSERT_TRUE(loop.Settle().ok());
  ASSERT_EQ(session.ViewerStats(viewer).value().frames_delivered, 1u);

  // Hard-partition the link feeding the viewer's edge relay. The next
  // frame exhausts its retries there, the failure callback reparents the
  // edge, and the history replay re-delivers the missed frame.
  net::NodeId edge = session.ViewerStats(viewer).value().edge;
  net::NodeId parent = session.tree()->ParentOf(edge).value();
  network_->Partition(parent, edge);
  ASSERT_TRUE(session.PushFrame(images_, tracks_).ok());
  ASSERT_TRUE(loop.Settle().ok());
  ASSERT_TRUE(session.PushFrame(images_, tracks_).ok());
  ASSERT_TRUE(loop.Settle().ok());

  BroadcastStats stats = session.Stats();
  EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_EQ(stats.streams_aborted, 0u);
  EXPECT_TRUE(stats.all_finished);
  EXPECT_NE(session.tree()->ParentOf(edge).value(), parent);
  // Every frame still reached the viewer, the partition notwithstanding.
  EXPECT_EQ(session.ViewerStats(viewer).value().frames_delivered, 3u);
}

// --- Live-broadcast migration through the federation tier ---

class BroadcastMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    db_node_ = network_->AddNode("oracle");
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    federation::FederationOptions options;
    options.num_nodes = 3;
    options.backbone = {50e6, 1000};
    tier_ = std::make_unique<federation::FederatedInteractionTier>(
        &db_, network_.get(), db_node_, options);
    director_ = std::make_unique<BroadcastDirector>(tier_.get(),
                                                    network_.get());
    speaker_client_ = network_->AddNode("speaker-client");
    ASSERT_TRUE(tier_->ConnectClient(speaker_client_, {1e6, 20000}).ok());

    Rng rng(9);
    ct_ = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
    voice_ = AudioSignal(std::vector<float>(32000, 0.25f), 8000);
    segments_ = {{0, 32000, AudioClass::kSpeech, 1, -1}};
  }

  /// A room id the hash placement puts on `node`.
  std::string RoomOn(size_t node) const {
    for (int i = 0;; ++i) {
      std::string id = "lecture-" + std::to_string(i);
      if (tier_->placement().HashNodeFor(id) == node) return id;
    }
  }

  BroadcastOptions SmallBroadcast() {
    BroadcastOptions options;
    options.tree.fanout = 2;
    options.tree.viewers_per_edge = 50;
    options.compositor = SmallCompositor();
    return options;
  }

  Clock clock_;
  storage::DatabaseServer db_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<federation::FederatedInteractionTier> tier_;
  std::unique_ptr<BroadcastDirector> director_;
  net::NodeId db_node_ = 0, speaker_client_ = 0;
  Image ct_;
  AudioSignal voice_;
  std::vector<AudioSegment> segments_;
};

TEST_F(BroadcastMigrationTest, LiveBroadcastSurvivesRoomMigration) {
  std::string room_id = RoomOn(0);
  tier_->OpenRoomWithDocument(room_id,
                              doc::MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-lecturer", speaker_client_}).value();
  ASSERT_TRUE(tier_->loop()->Settle().ok());

  BroadcastSession* session =
      director_->HostBroadcast(room_id, 100, SmallBroadcast()).value();
  EXPECT_EQ(session->origin(), tier_->node_net(0));
  ASSERT_TRUE(director_->RegisterImage(room_id, "CT", ct_).ok());
  ASSERT_TRUE(
      director_->RegisterSpeaker(room_id, 1, voice_, segments_).ok());
  ASSERT_TRUE(
      director_->AdmitViewers(room_id, 90, BandwidthLevel::kMedium).ok());
  net::FaultSpec lossy;
  lossy.drop_probability = 0.05;
  net::NodeId viewer =
      director_
          ->AdmitSampledViewer(room_id, BandwidthLevel::kMedium,
                               {1e6, 20000}, lossy)
          .value();

  ASSERT_TRUE(director_->PushFrame(room_id).ok());
  ASSERT_TRUE(director_->PushFrame(room_id).ok());
  ASSERT_TRUE(tier_->loop()->Settle().ok());
  size_t delivered_before =
      session->ViewerStats(viewer).value().frames_delivered;
  EXPECT_EQ(delivered_before, 2u);

  // Migrate the hosting room mid-broadcast. The director quiesces at a
  // chunk boundary, the tier ships the room, and the room-moved hook
  // re-roots the tree at the target node.
  federation::MigrationReport report =
      director_->MigrateBroadcast(room_id, 2).value();
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 2u);
  EXPECT_EQ(session->origin(), tier_->node_net(2));
  EXPECT_FALSE(session->paused());

  ASSERT_TRUE(director_->PushFrame(room_id).ok());
  ASSERT_TRUE(director_->PushFrame(room_id).ok());
  ASSERT_TRUE(tier_->loop()->Settle().ok());

  // The viewer's stream kept flowing across the cutover: every frame
  // before and after the move resolved, none lost a base chunk.
  SampledViewerStats viewer_stats = session->ViewerStats(viewer).value();
  EXPECT_EQ(viewer_stats.frames_delivered, 4u);
  EXPECT_EQ(viewer_stats.frames_aborted, 0u);
  BroadcastStats stats = session->Stats();
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_TRUE(stats.all_finished);
  EXPECT_EQ(stats.streams_aborted, 0u);

  // Byte-equal composed output after cutover: the migrated session's
  // compositor produces exactly what a never-migrated control composes
  // for the same post-cutover frame index and inputs.
  std::vector<SpeakerTrack> tracks = {MakeTrack(1, &voice_, 0, 32000)};
  Compositor control(SmallCompositor());
  auto moved = session->compositor().ComposeFrame(3, {ct_}, tracks).value();
  auto expected = control.ComposeFrame(3, {ct_}, tracks).value();
  ASSERT_EQ(moved.size(), expected.size());
  for (size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(moved[i].video, expected[i].video);
    EXPECT_EQ(moved[i].audio, expected[i].audio);
  }

  // And the room itself still serves on the new node.
  EXPECT_TRUE((*tier_->GetRoom(room_id))->HasMember("dr-lecturer"));
}

TEST_F(BroadcastMigrationTest, FailedMigrationResumesAtTheOldOrigin) {
  std::string room_id = RoomOn(0);
  tier_->OpenRoomWithDocument(room_id,
                              doc::MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-lecturer", speaker_client_}).value();
  ASSERT_TRUE(tier_->loop()->Settle().ok());
  BroadcastSession* session =
      director_->HostBroadcast(room_id, 60, SmallBroadcast()).value();
  ASSERT_TRUE(director_->RegisterImage(room_id, "CT", ct_).ok());
  ASSERT_TRUE(
      director_->RegisterSpeaker(room_id, 1, voice_, segments_).ok());
  ASSERT_TRUE(director_->PushFrame(room_id).ok());
  ASSERT_TRUE(tier_->loop()->Settle().ok());

  // The target node is unreachable: the migration fails, the room stays
  // on its source, and the broadcast resumes from the old origin.
  network_->Partition(tier_->node_net(0), tier_->node_net(1));
  EXPECT_FALSE(director_->MigrateBroadcast(room_id, 1).ok());
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 0u);
  EXPECT_EQ(session->origin(), tier_->node_net(0));
  EXPECT_FALSE(session->paused());
  ASSERT_TRUE(director_->PushFrame(room_id).ok());
  ASSERT_TRUE(tier_->loop()->Settle().ok());
  EXPECT_EQ(session->Stats().frames, 2u);
}

}  // namespace
}  // namespace mmconf::fanout
