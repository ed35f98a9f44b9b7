#ifndef MMCONF_COMPRESS_BITSTREAM_H_
#define MMCONF_COMPRESS_BITSTREAM_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace mmconf::compress {

/// Bit-level writer used by the coefficient coder. Bits collect in a
/// 64-bit accumulator and leave it four bytes at a time, so a field costs
/// a shift and an or however many bits it has.
class BitWriter {
 public:
  BitWriter() = default;
  /// Appends after the bytes already in `bytes` (whose capacity is
  /// reused); Finish hands the buffer back.
  explicit BitWriter(Bytes bytes) : bytes_(std::move(bytes)) {}

  void PutBit(bool bit) { PutBits(bit ? 1 : 0, 1); }
  /// Writes `count` (0..32) low bits of `value`, most significant first.
  void PutBits(uint32_t value, int count) {
    acc_ = (acc_ << count) | (value & ((uint64_t{1} << count) - 1));
    pending_ += count;
    if (pending_ >= 32) FlushWord();
  }
  /// Unsigned Exp-Golomb code.
  void PutUExpGolomb(uint32_t value);
  /// Signed Exp-Golomb code (zigzag mapping).
  void PutSExpGolomb(int32_t value);

  /// Flushes partial byte (zero padded) and returns the stream.
  Bytes Finish();

  size_t bit_count() const { return bytes_.size() * 8 + pending_; }

 private:
  /// Moves the oldest 32 pending bits into bytes_.
  void FlushWord();

  Bytes bytes_;
  uint64_t acc_ = 0;  // the low `pending_` bits are not yet in bytes_
  int pending_ = 0;   // < 32 between calls
};

/// Bit-level reader; all reads are bounds-checked.
class BitReader {
 public:
  explicit BitReader(const Bytes& bytes) : bytes_(bytes) {}

  Result<bool> GetBit();
  Result<uint32_t> GetBits(int count);
  Result<uint32_t> GetUExpGolomb();
  Result<int32_t> GetSExpGolomb();

  size_t bits_consumed() const { return pos_; }

 private:
  const Bytes& bytes_;
  size_t pos_ = 0;  // bit position
};

/// Encodes a coefficient array with zero-run + Exp-Golomb coding: a run
/// length of zeros (unsigned EG) followed by the next nonzero value
/// (signed EG), terminated by the array length in the header. This is the
/// library's stand-in for the arithmetic coders production codecs use —
/// simple, deterministic, and strictly decodable. The code is appended to
/// `out`.
void EncodeCoefficients(std::span<const int32_t> coefficients, Bytes& out);
/// Decodes EncodeCoefficients output. The stream's count must equal
/// `expected_count` (the plane size the caller knows from a bounded
/// header), so a hostile count is rejected before anything is allocated.
Result<std::vector<int32_t>> DecodeCoefficients(const Bytes& bytes,
                                                size_t expected_count);

}  // namespace mmconf::compress

#endif  // MMCONF_COMPRESS_BITSTREAM_H_
