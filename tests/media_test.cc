#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "media/audio.h"
#include "media/image.h"
#include "media/synthetic.h"

namespace mmconf::media {
namespace {

TEST(ImageTest, CreateValidatesDimensions) {
  EXPECT_TRUE(Image::Create(0, 10).status().IsInvalidArgument());
  EXPECT_TRUE(Image::Create(10, -1).status().IsInvalidArgument());
  Result<Image> img = Image::Create(4, 3, 7);
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->width(), 4);
  EXPECT_EQ(img->height(), 3);
  EXPECT_EQ(img->at(2, 1), 7);
}

TEST(ImageTest, PixelAccess) {
  Image img = Image::Create(8, 8).value();
  img.set(3, 5, 200);
  EXPECT_EQ(img.at(3, 5), 200);
  EXPECT_EQ(img.at_clamped(-1, 0), 0);
  EXPECT_EQ(img.at_clamped(100, 100), 0);
  EXPECT_EQ(img.at_clamped(3, 5), 200);
}

TEST(ImageTest, AnnotationsAddAndRemove) {
  Image img = Image::Create(64, 64).value();
  int text_id = img.AddTextElement(4, 4, "CT");
  int line_id = img.AddLineElement(0, 0, 63, 63);
  EXPECT_EQ(img.text_elements().size(), 1u);
  EXPECT_EQ(img.line_elements().size(), 1u);
  EXPECT_NE(text_id, line_id);
  EXPECT_TRUE(img.RemoveTextElement(text_id).ok());
  EXPECT_TRUE(img.RemoveTextElement(text_id).IsNotFound());
  EXPECT_TRUE(img.RemoveLineElement(line_id).ok());
  EXPECT_TRUE(img.RemoveLineElement(999).IsNotFound());
}

TEST(ImageTest, FlattenRasterizesAnnotations) {
  Image img = Image::Create(64, 16).value();
  img.AddTextElement(2, 2, "AB", 255);
  img.AddLineElement(0, 15, 63, 15, 128);
  Image flat = img.Flatten();
  EXPECT_TRUE(flat.text_elements().empty());
  EXPECT_TRUE(flat.line_elements().empty());
  // Some pixels must now be set.
  int lit = 0;
  for (uint8_t p : flat.pixels()) {
    if (p > 0) ++lit;
  }
  EXPECT_GT(lit, 10);
  // Original untouched.
  for (uint8_t p : img.pixels()) EXPECT_EQ(p, 0);
}

TEST(ImageTest, EncodeDecodeRoundTrip) {
  Rng rng(3);
  Image img = MakePhantomCt({64, 48, 3, 2.0}, rng);
  img.AddTextElement(5, 5, "LESION", 250);
  img.AddLineElement(1, 2, 30, 40, 99);
  Bytes encoded = img.Encode();
  Result<Image> decoded = Image::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width(), img.width());
  EXPECT_EQ(decoded->height(), img.height());
  EXPECT_EQ(decoded->pixels(), img.pixels());
  ASSERT_EQ(decoded->text_elements().size(), 1u);
  EXPECT_EQ(decoded->text_elements()[0].text, "LESION");
  ASSERT_EQ(decoded->line_elements().size(), 1u);
  EXPECT_EQ(decoded->line_elements()[0].intensity, 99);
}

TEST(ImageTest, DecodeRejectsGarbage) {
  Bytes junk = {1, 2, 3, 4, 5};
  EXPECT_TRUE(Image::Decode(junk).status().IsCorruption());
}

TEST(ImageTest, DecodeRejectsFlippedDimensionsBeforeAllocating) {
  Rng rng(5);
  Bytes encoded = MakePhantomCt({32, 32, 2, 0.0}, rng).Encode();
  // Width and height follow the 4-byte magic, little-endian i32 each.
  // Claim 131072 x 131072 pixels (16 GiB) against ~1 KiB of data.
  for (size_t offset : {4u, 8u}) {
    encoded[offset] = 0x00;
    encoded[offset + 1] = 0x00;
    encoded[offset + 2] = 0x02;
    encoded[offset + 3] = 0x00;
  }
  EXPECT_TRUE(Image::Decode(encoded).status().IsCorruption());
}

TEST(ImageTest, PsnrIdenticalIsInfinite) {
  Rng rng(5);
  Image img = MakePhantomCt({32, 32, 2, 0.0}, rng);
  EXPECT_TRUE(std::isinf(Image::Psnr(img, img).value()));
}

TEST(ImageTest, PsnrDropsWithNoise) {
  Rng rng(5);
  Image img = MakePhantomCt({64, 64, 3, 0.0}, rng);
  Image noisy = img;
  Rng noise(6);
  for (uint8_t& p : noisy.mutable_pixels()) {
    p = static_cast<uint8_t>(
        std::clamp(p + noise.Gaussian(0, 10.0), 0.0, 255.0));
  }
  double psnr = Image::Psnr(img, noisy).value();
  EXPECT_GT(psnr, 20.0);
  EXPECT_LT(psnr, 40.0);
}

TEST(ImageTest, PsnrRequiresEqualDims) {
  Image a = Image::Create(8, 8).value();
  Image b = Image::Create(8, 9).value();
  EXPECT_TRUE(Image::Psnr(a, b).status().IsInvalidArgument());
  EXPECT_TRUE(Image::MeanAbsDifference(a, b).status().IsInvalidArgument());
}

TEST(AudioTest, SliceClamps) {
  AudioSignal signal({0.1f, 0.2f, 0.3f, 0.4f}, 8000);
  AudioSignal slice = signal.Slice(1, 3);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_FLOAT_EQ(slice.samples()[0], 0.2f);
  EXPECT_EQ(signal.Slice(10, 20).size(), 0u);
  EXPECT_EQ(signal.Slice(2, 100).size(), 2u);
}

TEST(AudioTest, AppendChecksRate) {
  AudioSignal a({0.1f}, 8000);
  AudioSignal b({0.2f}, 16000);
  EXPECT_TRUE(a.Append(b).IsInvalidArgument());
  AudioSignal c({0.2f}, 8000);
  EXPECT_TRUE(a.Append(c).ok());
  EXPECT_EQ(a.size(), 2u);
}

TEST(AudioTest, EncodeDecodeRoundTrip) {
  Rng rng(9);
  std::vector<float> samples(500);
  for (float& s : samples) {
    s = static_cast<float>(rng.Uniform(-0.9, 0.9));
  }
  AudioSignal signal(samples, 8000);
  Result<AudioSignal> decoded = AudioSignal::Decode(signal.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sample_rate(), 8000);
  ASSERT_EQ(decoded->size(), signal.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_NEAR(decoded->samples()[i], samples[i], 1.0f / 32000);
  }
}

TEST(AudioTest, DecodeRejectsCountBeyondPayloadBeforeAllocating) {
  // Magic, rate and a varint of 2^62 - 1 samples: 17 bytes that would
  // size a reserve() by the untrusted count.
  ByteWriter w;
  w.PutU32(0x4d4d4155);
  w.PutI32(16000);
  w.PutVarint((uint64_t{1} << 62) - 1);
  Bytes hostile = w.Take();
  ASSERT_EQ(hostile.size(), 17u);
  EXPECT_TRUE(AudioSignal::Decode(hostile).status().IsCorruption());
  // One byte short of the declared samples.
  Bytes truncated = AudioSignal({0.25f, -0.5f}, 8000).Encode();
  truncated.pop_back();
  EXPECT_TRUE(AudioSignal::Decode(truncated).status().IsCorruption());
}

TEST(AudioTest, DurationSeconds) {
  AudioSignal signal(std::vector<float>(16000, 0.0f), 8000);
  EXPECT_DOUBLE_EQ(signal.DurationSeconds(), 2.0);
}

TEST(SyntheticTest, PhantomHasStructure) {
  Rng rng(1);
  Image img = MakePhantomCt({128, 128, 4, 3.0}, rng);
  std::set<uint8_t> distinct(img.pixels().begin(), img.pixels().end());
  EXPECT_GT(distinct.size(), 10u);  // body, organs, noise
}

TEST(SyntheticTest, SpeakersAreDistinct) {
  Rng rng(2);
  std::vector<SpeakerProfile> speakers = MakeSpeakers(4, rng);
  ASSERT_EQ(speakers.size(), 4u);
  for (size_t i = 1; i < speakers.size(); ++i) {
    EXPECT_NE(speakers[i].pitch_hz, speakers[i - 1].pitch_hz);
    EXPECT_EQ(speakers[i].formants_hz.size(), 3u);
  }
}

TEST(SyntheticTest, UtteranceHasExpectedLength) {
  Rng rng(3);
  std::vector<SpeakerProfile> speakers = MakeSpeakers(1, rng);
  Word word{0, {1, 2, 3}};
  UtteranceOptions options;
  AudioSignal utterance = Synthesize(word, speakers[0], options, rng);
  EXPECT_EQ(utterance.size(),
            static_cast<size_t>(3 * options.phone_duration_s *
                                options.sample_rate));
  // Not silent.
  double energy = 0;
  for (float s : utterance.samples()) energy += s * s;
  EXPECT_GT(energy / utterance.size(), 1e-4);
}

TEST(SyntheticTest, ConversationSegmentsAreContiguous) {
  Rng rng(4);
  std::vector<SpeakerProfile> speakers = MakeSpeakers(3, rng);
  std::vector<Word> vocab = MakeVocabulary(5, 3, 8, rng);
  ConversationOptions options;
  options.num_turns = 6;
  Conversation conv = MakeConversation(speakers, vocab, options, rng);
  ASSERT_FALSE(conv.segments.empty());
  EXPECT_EQ(conv.segments.front().begin, 0u);
  for (size_t i = 1; i < conv.segments.size(); ++i) {
    EXPECT_EQ(conv.segments[i].begin, conv.segments[i - 1].end);
  }
  EXPECT_EQ(conv.segments.back().end, conv.signal.size());
  // Speech segments carry speaker and keyword ids.
  bool saw_speech = false;
  for (const AudioSegment& segment : conv.segments) {
    if (segment.cls == AudioClass::kSpeech) {
      saw_speech = true;
      EXPECT_GE(segment.speaker, 0);
      EXPECT_GE(segment.keyword, 0);
    }
  }
  EXPECT_TRUE(saw_speech);
}

TEST(SyntheticTest, MusicAndArtifactsNonEmpty) {
  Rng rng(5);
  EXPECT_GT(SynthesizeMusic(0.5, 8000, rng).size(), 1000u);
  EXPECT_GT(SynthesizeArtifact(0.5, 8000, rng).size(), 1000u);
  EXPECT_GT(SynthesizeSilence(0.5, 8000, rng).size(), 1000u);
}

}  // namespace
}  // namespace mmconf::media
