#include "compress/bitstream.h"

#include <bit>
#include <string>

namespace mmconf::compress {

void BitWriter::FlushWord() {
  pending_ -= 32;
  const uint32_t word = static_cast<uint32_t>(acc_ >> pending_);
  for (int shift = 24; shift >= 0; shift -= 8) {
    bytes_.push_back(static_cast<uint8_t>(word >> shift));
  }
}

void BitWriter::PutUExpGolomb(uint32_t value) {
  // code(v) = unary(len(v+1)-1) ++ binary(v+1 without leading 1), i.e.
  // v+1 written in 2*len+1 bits where len = floor(log2(v+1)).
  const uint64_t v = static_cast<uint64_t>(value) + 1;
  const int len = std::bit_width(v) - 1;
  if (len < 16) {
    PutBits(static_cast<uint32_t>(v), 2 * len + 1);
    return;
  }
  // Up to 65 bits: the zeros, then v+1's len+1 bits in two fields.
  PutBits(0, len);
  PutBits(static_cast<uint32_t>(v >> 16), len + 1 - 16);
  PutBits(static_cast<uint32_t>(v & 0xffff), 16);
}

void BitWriter::PutSExpGolomb(int32_t value) {
  uint32_t zigzag = value >= 0 ? static_cast<uint32_t>(value) << 1
                               : (static_cast<uint32_t>(-(value + 1)) << 1) | 1;
  PutUExpGolomb(zigzag);
}

Bytes BitWriter::Finish() {
  const int pad = (8 - pending_ % 8) % 8;
  acc_ <<= pad;
  pending_ += pad;
  while (pending_ > 0) {
    pending_ -= 8;
    bytes_.push_back(static_cast<uint8_t>(acc_ >> pending_));
  }
  return std::move(bytes_);
}

Result<bool> BitReader::GetBit() {
  size_t byte = pos_ >> 3;
  if (byte >= bytes_.size()) {
    return Status::Corruption("bitstream exhausted");
  }
  bool bit = (bytes_[byte] >> (7 - (pos_ & 7))) & 1;
  ++pos_;
  return bit;
}

Result<uint32_t> BitReader::GetBits(int count) {
  uint32_t value = 0;
  for (int i = 0; i < count; ++i) {
    MMCONF_ASSIGN_OR_RETURN(bool bit, GetBit());
    value = (value << 1) | (bit ? 1 : 0);
  }
  return value;
}

Result<uint32_t> BitReader::GetUExpGolomb() {
  int zeros = 0;
  while (true) {
    MMCONF_ASSIGN_OR_RETURN(bool bit, GetBit());
    if (bit) break;
    if (++zeros > 32) return Status::Corruption("exp-golomb code too long");
  }
  uint64_t v = 1;
  for (int i = 0; i < zeros; ++i) {
    MMCONF_ASSIGN_OR_RETURN(bool bit, GetBit());
    v = (v << 1) | (bit ? 1 : 0);
  }
  return static_cast<uint32_t>(v - 1);
}

Result<int32_t> BitReader::GetSExpGolomb() {
  MMCONF_ASSIGN_OR_RETURN(uint32_t zigzag, GetUExpGolomb());
  if (zigzag & 1) {
    return -static_cast<int32_t>(zigzag >> 1) - 1;
  }
  return static_cast<int32_t>(zigzag >> 1);
}

void EncodeCoefficients(std::span<const int32_t> coefficients, Bytes& out) {
  BitWriter w(std::move(out));
  w.PutBits(static_cast<uint32_t>(coefficients.size()), 32);
  size_t i = 0;
  while (i < coefficients.size()) {
    uint32_t run = 0;
    while (i < coefficients.size() && coefficients[i] == 0) {
      ++run;
      ++i;
    }
    w.PutUExpGolomb(run);
    if (i < coefficients.size()) {
      // Nonzero value, biased away from zero since zero is run-coded.
      int32_t v = coefficients[i++];
      w.PutSExpGolomb(v > 0 ? v - 1 : v + 1);
      w.PutBit(v > 0);
    }
  }
  out = w.Finish();
}

Result<std::vector<int32_t>> DecodeCoefficients(const Bytes& bytes,
                                                size_t expected_count) {
  BitReader r(bytes);
  MMCONF_ASSIGN_OR_RETURN(uint32_t n, r.GetBits(32));
  if (n != expected_count) {
    return Status::Corruption("coefficient count " + std::to_string(n) +
                              " does not match the plane's " +
                              std::to_string(expected_count));
  }
  std::vector<int32_t> out;
  out.reserve(n);
  while (out.size() < n) {
    MMCONF_ASSIGN_OR_RETURN(uint32_t run, r.GetUExpGolomb());
    if (run > n - out.size()) return Status::Corruption("zero run overflow");
    out.insert(out.end(), run, 0);
    if (out.size() == n) break;
    MMCONF_ASSIGN_OR_RETURN(int32_t biased, r.GetSExpGolomb());
    MMCONF_ASSIGN_OR_RETURN(bool positive, r.GetBit());
    out.push_back(positive ? biased + 1 : biased - 1);
  }
  return out;
}

}  // namespace mmconf::compress
