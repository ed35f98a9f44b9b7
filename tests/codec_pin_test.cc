// Pins the exact output bytes of the encode path: 64-bit FNV-1a digests of
// LayeredCodec::Encode, EncodeToBudget, imaging::Zoom and the composed
// broadcast videos. The chaos digests hash reports and metrics snapshots,
// which see encoded sizes but not encoded bytes; these digests see every
// byte, so an optimization of the codec that keeps them is output-identical.
// The file uses only the public API, so it builds against earlier trees
// too and the same constants can be checked on both sides of a change.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "compress/layered_codec.h"
#include "fanout/compositor.h"
#include "imaging/ops.h"
#include "media/image.h"
#include "media/synthetic.h"

namespace mmconf {
namespace {

using compress::CodecOptions;
using compress::LayerBasis;
using compress::LayeredCodec;
using media::Image;

/// 64-bit FNV-1a over a sequence of length-prefixed items.
class Digest {
 public:
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(const std::vector<uint8_t>& bytes) {
    AddU64(bytes.size());
    for (uint8_t b : bytes) AddByte(b);
  }
  void Add(const Image& image) {
    AddU64(static_cast<uint64_t>(image.width()));
    AddU64(static_cast<uint64_t>(image.height()));
    Add(image.pixels());
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ull; }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

Image Phantom(int size, uint64_t seed) {
  Rng rng(seed);
  return media::MakePhantomCt({size, size, 4, 3.0}, rng);
}

struct PinnedConfig {
  std::string name;
  CodecOptions options;
  uint64_t expected;
};

std::vector<PinnedConfig> PinnedConfigs() {
  std::vector<PinnedConfig> configs;
  configs.push_back({"default", CodecOptions{}, 0xd81119ddd0997cb2ull});
  CodecOptions wavelet_only;
  wavelet_only.layers = {{LayerBasis::kWavelet, 4, 16.0},
                         {LayerBasis::kWavelet, 4, 8.0},
                         {LayerBasis::kWavelet, 4, 4.0}};
  configs.push_back({"wavelet-only", wavelet_only, 0xd71fa96b3805e7d7ull});
  CodecOptions single;
  single.layers = {{LayerBasis::kWavelet, 4, 4.0}};
  configs.push_back({"single-layer", single, 0xb34c8df1c847b141ull});
  CodecOptions haar;
  haar.wavelet = compress::WaveletBasis::kHaar;
  configs.push_back({"haar", haar, 0xbd4cbf58c9388649ull});
  CodecOptions fine;
  for (compress::LayerSpec& layer : fine.layers) layer.quant_step *= 0.37;
  configs.push_back({"steps-x0.37", fine, 0x1d159855e391a76full});
  return configs;
}

TEST(CodecPinTest, EncodeBytes) {
  for (const PinnedConfig& config : PinnedConfigs()) {
    LayeredCodec codec(config.options);
    Digest digest;
    for (int size : {16, 64, 128, 256}) {
      for (uint64_t seed : {1, 2, 3}) {
        auto stream = codec.Encode(Phantom(size, seed));
        ASSERT_TRUE(stream.ok()) << config.name << " " << size;
        digest.Add(*stream);
      }
    }
    EXPECT_EQ(digest.value(), config.expected)
        << config.name << ": 0x" << std::hex << digest.value();
  }
}

TEST(CodecPinTest, EncodeToBudgetBytes) {
  LayeredCodec codec;
  Digest digest;
  for (size_t budget : {size_t{20000}, size_t{6000}, size_t{2500}}) {
    auto stream = codec.EncodeToBudget(Phantom(128, 5), budget);
    ASSERT_TRUE(stream.ok()) << budget;
    EXPECT_LE(stream->size(), budget);
    digest.Add(*stream);
  }
  EXPECT_EQ(digest.value(), 0xacdcfd9340ac41a0ull)
      << "0x" << std::hex << digest.value();
}

TEST(CodecPinTest, ZoomPixels) {
  Image source = Phantom(64, 7);
  struct Case {
    media::Rect region;
    int out_width;
    int out_height;
  };
  const Case cases[] = {
      {source.Bounds(), 200, 150},  // upscale
      {source.Bounds(), 48, 40},    // downscale
      {{13, 7, 41, 29}, 96, 64},    // offset region, upscale
      {{5, 20, 50, 30}, 17, 9},     // offset region, downscale
      {{0, 0, 1, 1}, 5, 3},         // single source pixel
  };
  Digest digest;
  for (const Case& c : cases) {
    auto zoomed = imaging::Zoom(source, c.region, c.out_width, c.out_height);
    ASSERT_TRUE(zoomed.ok());
    digest.Add(*zoomed);
  }
  EXPECT_EQ(digest.value(), 0x91b47a63288a4d83ull)
      << "0x" << std::hex << digest.value();
}

TEST(CodecPinTest, ComposedVideoBytes) {
  std::vector<Image> sources;
  {
    Rng rng(9);
    sources.push_back(media::MakePhantomCt({96, 96, 3, 2.0}, rng));
    sources.push_back(media::MakePhantomCt({64, 80, 2, 2.0}, rng));
    sources.push_back(media::MakePhantomCt({128, 128, 5, 2.0}, rng));
  }
  sources[1].AddTextElement(4, 6, "L2", 250);
  sources[1].AddLineElement(0, 0, 63, 79, 200);

  fanout::Compositor compositor;
  Digest digest;
  // 0..3 sources, then the 3-source frame again.
  for (size_t n : {0, 1, 2, 3, 3}) {
    std::vector<Image> visible(sources.begin(),
                               sources.begin() + static_cast<long>(n));
    auto frames =
        compositor.ComposeFrame(static_cast<uint32_t>(n), visible, {});
    ASSERT_TRUE(frames.ok()) << n;
    ASSERT_EQ(frames->size(), 3u);
    for (const fanout::ComposedFrame& frame : *frames) digest.Add(frame.video);
  }
  EXPECT_EQ(digest.value(), 0x90a4cba1bcfc14a2ull)
      << "0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace mmconf
