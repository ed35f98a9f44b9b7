#ifndef MMCONF_FANOUT_COMPOSITOR_H_
#define MMCONF_FANOUT_COMPOSITOR_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "compress/layered_codec.h"
#include "doc/tuning.h"
#include "media/audio.h"
#include "media/image.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmconf::fanout {

/// One participant's audio as the mixer sees it: the signal plus the
/// speech spans the voice module's segmentation attributed to them
/// (media::AudioSegment with cls == kSpeech; other classes are ignored).
struct SpeakerTrack {
  int speaker = -1;
  const media::AudioSignal* signal = nullptr;
  std::vector<media::AudioSegment> segments;
};

/// Active-speaker mixing knobs.
struct MixOptions {
  /// Speakers mixed per window; everyone else is muted for that window.
  size_t max_active = 2;
  /// Selection window. Activity is scored per window so a speaker
  /// handoff switches the mix within one window, not one frame.
  MicrosT window_micros = 250000;
  /// Salt of the deterministic tie-break. Selection ranks speakers by
  /// (speech samples in window, splitmix64(seed ^ speaker), speaker):
  /// no container iteration order, no pointer identity — seed-for-seed
  /// the composed output is byte-identical, shuffled input included.
  uint64_t tie_seed = 0x5eedau;
};

/// Output of MixActiveSpeakers.
struct MixResult {
  media::AudioSignal mixed;
  /// Selected speaker ids per window, selection rank order.
  std::vector<std::vector<int>> active_per_window;
  size_t windows = 0;
  /// Windows where the cut between selected and muted fell inside a
  /// group with equal activity — i.e. the seeded tie-break decided.
  size_t ties_broken = 0;
};

/// Deterministic tie-break key: rank = splitmix64(seed ^ speaker id).
uint64_t SpeakerTieRank(uint64_t seed, int speaker);

/// Mixes the `max_active` most active speakers per window into one
/// track: activity is the count of samples the track's speech segments
/// cover inside the window, ties broken by SpeakerTieRank. Selected
/// signals are averaged (selected count, not max_active, so a lone
/// speaker keeps full level) and clamped to [-1, 1]. Tracks may have
/// different lengths (shorter ones are silence-padded); sample rates
/// must agree and speaker ids must be unique. An empty track list mixes
/// `total_samples` of silence.
Result<MixResult> MixActiveSpeakers(const std::vector<SpeakerTrack>& tracks,
                                    size_t total_samples, int sample_rate,
                                    const MixOptions& options);

/// Mosaic layout knobs.
struct MosaicOptions {
  int width = 256;
  int height = 256;
  uint8_t background = 24;
  /// Paint 1-px tile boundaries (the segmentation-grid aesthetic).
  bool draw_borders = true;
  uint8_t border_intensity = 96;
};

/// Composes the sources into a near-square grid mosaic: cols =
/// ceil(sqrt(n)), rows = ceil(n / cols), cell rects from
/// imaging::GridCells (exact tiling, so non-divisible dimensions never
/// produce an out-of-bounds region op), each source bilinearly resampled
/// into its cell via imaging::Zoom. Zero sources produce a bare
/// background frame, one source fills the whole canvas, and unused
/// cells stay background. Deterministic: tile order is input order.
Result<media::Image> ComposeMosaic(const std::vector<media::Image>& sources,
                                   const MosaicOptions& options);

/// One composed broadcast frame for one bandwidth class.
struct ComposedFrame {
  uint32_t index = 0;
  doc::BandwidthLevel level = doc::BandwidthLevel::kHigh;
  /// LayeredCodec bitstream of the mosaic — a complete layered object,
  /// so it rides the existing stream::Chunker/StreamScheduler machinery
  /// and inherits its bases-never-dropped invariant.
  Bytes video;
  /// 16-bit PCM of the mixed window (media::AudioSignal::Encode).
  Bytes audio;
  std::vector<int> active_speakers;
};

/// Compositor configuration.
struct CompositorOptions {
  compress::CodecOptions codec;
  /// Mosaic side per bandwidth class. Must satisfy the codec's
  /// decomposition constraints (defaults: multiples of 16).
  int high_px = 256;
  int medium_px = 128;
  int low_px = 64;
  MosaicOptions mosaic;  ///< width/height overridden per class
  MixOptions mix;
  /// One frame covers this much of the room's audio timeline.
  MicrosT frame_interval_micros = 500000;
};

/// The server-side composition stage: turns the room's visible image
/// objects and its participants' audio into one layered composed stream
/// per bandwidth class — a viewer downloads one mosaic video object and
/// one mixed audio track per frame instead of M object streams. Pure
/// and deterministic: identical inputs yield byte-identical frames, the
/// property the migration cutover test asserts.
///
/// Because the video depends on nothing but the images, a frame whose
/// images equal the previous call's reuses that call's three encoded
/// videos instead of composing and encoding them again (the audio is
/// mixed every call). That memo is mutable state behind a const method,
/// so a Compositor is not safe for concurrent ComposeFrame calls.
class Compositor {
 public:
  explicit Compositor(CompositorOptions options = {});

  /// Composes frame `index` (audio window [index, index+1) *
  /// frame_interval) for every bandwidth class. `images` are the
  /// visible image objects in document order; `tracks` the
  /// participants' audio. When `images` equal the previous call's (same
  /// count and order; per image the same dimensions, pixels, and text
  /// and line overlays) the previous videos are returned as they were.
  Result<std::vector<ComposedFrame>> ComposeFrame(
      uint32_t index, const std::vector<media::Image>& images,
      const std::vector<SpeakerTrack>& tracks) const;

  const CompositorOptions& options() const { return options_; }

  /// Publishes composition work into the obs layer: `mix.*` counters
  /// (frames, windows, tie-breaks, selected speakers) and a
  /// per-frame-encode histogram of composed video bytes. Either pointer
  /// may be null; both must outlive the compositor.
  void SetObserver(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  CompositorOptions options_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_frames_ = nullptr;
  obs::Counter* m_windows_ = nullptr;
  obs::Counter* m_ties_ = nullptr;
  obs::Counter* m_active_ = nullptr;
  obs::Histogram* m_video_bytes_ = nullptr;
  /// The previous call's images and its high/medium/low videos; empty
  /// videos until the first successful call.
  mutable std::vector<media::Image> last_images_;
  mutable std::vector<Bytes> last_videos_;
};

}  // namespace mmconf::fanout

#endif  // MMCONF_FANOUT_COMPOSITOR_H_
