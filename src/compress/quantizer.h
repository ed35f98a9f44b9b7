#ifndef MMCONF_COMPRESS_QUANTIZER_H_
#define MMCONF_COMPRESS_QUANTIZER_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "compress/plane.h"

namespace mmconf::compress {

/// Midpoint reconstruction of one quantization index: 0 for 0, else
/// (q + 0.5) * step above zero and (q - 0.5) * step below. Dequantize and
/// the encoder's in-place layer rebuild both use this one expression, so
/// the encoder subtracts exactly what the decoder will add back.
inline double DequantizeValue(int32_t q, double step) {
  // q + -0.5 is q - 0.5 exactly. Zero clears the product's bits instead
  // of taking a branch, so loops over this vectorize.
  const double v = (q + (q > 0 ? 0.5 : -0.5)) * step;
  const uint64_t keep = -static_cast<uint64_t>(q != 0);
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) & keep);
}

/// Uniform dead-zone quantizer: out[i] = plane.data[i] / step, truncated
/// toward zero. The dead zone (values with |x| < step map to 0) is what
/// makes transform coefficients sparse and the zero-run coder effective.
/// `out` is resized to the plane's size; its capacity is reused.
void Quantize(const Plane& plane, double step, std::vector<int32_t>& out);

/// Midpoint reconstruction of Quantize output.
Result<Plane> Dequantize(const std::vector<int32_t>& coefficients, int width,
                         int height, double step);

}  // namespace mmconf::compress

#endif  // MMCONF_COMPRESS_QUANTIZER_H_
