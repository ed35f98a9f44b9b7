#include "media/audio.h"

#include <algorithm>
#include <cmath>

namespace mmconf::media {

const char* AudioClassToString(AudioClass c) {
  switch (c) {
    case AudioClass::kSilence:
      return "silence";
    case AudioClass::kSpeech:
      return "speech";
    case AudioClass::kMusic:
      return "music";
    case AudioClass::kArtifact:
      return "artifact";
  }
  return "unknown";
}

bool operator==(const AudioSegment& a, const AudioSegment& b) {
  return a.begin == b.begin && a.end == b.end && a.cls == b.cls &&
         a.speaker == b.speaker && a.keyword == b.keyword;
}

AudioSignal AudioSignal::Slice(size_t begin, size_t end) const {
  begin = std::min(begin, samples_.size());
  end = std::clamp(end, begin, samples_.size());
  return AudioSignal(
      std::vector<float>(samples_.begin() + begin, samples_.begin() + end),
      sample_rate_);
}

Status AudioSignal::Append(const AudioSignal& other) {
  if (other.sample_rate_ != sample_rate_) {
    return Status::InvalidArgument(
        "sample rate mismatch: " + std::to_string(sample_rate_) + " vs " +
        std::to_string(other.sample_rate_));
  }
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  return Status::OK();
}

Bytes AudioSignal::Encode() const {
  ByteWriter w;
  w.PutU32(0x4d4d4155);  // "MMAU"
  w.PutI32(sample_rate_);
  w.PutVarint(samples_.size());
  for (float s : samples_) {
    float clamped = std::clamp(s, -1.0f, 1.0f);
    w.PutU16(static_cast<uint16_t>(
        static_cast<int16_t>(std::lround(clamped * 32767.0f))));
  }
  return w.Take();
}

Result<AudioSignal> AudioSignal::Decode(const Bytes& bytes) {
  ByteReader r(bytes);
  MMCONF_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != 0x4d4d4155) return Status::Corruption("bad audio magic");
  MMCONF_ASSIGN_OR_RETURN(int32_t rate, r.GetI32());
  if (rate <= 0) return Status::Corruption("bad sample rate");
  MMCONF_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  // Two bytes per sample: a count the payload cannot hold is rejected
  // before it sizes the allocation.
  if (n > r.remaining() / 2) {
    return Status::Corruption("audio sample count exceeds the payload");
  }
  std::vector<float> samples;
  samples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MMCONF_ASSIGN_OR_RETURN(uint16_t raw, r.GetU16());
    samples.push_back(static_cast<float>(static_cast<int16_t>(raw)) /
                      32767.0f);
  }
  return AudioSignal(std::move(samples), rate);
}

}  // namespace mmconf::media
