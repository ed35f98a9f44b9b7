#include "compress/local_cosine.h"

#include <array>
#include <cmath>

namespace mmconf::compress {

namespace {

constexpr int kN = kLocalCosineBlock;

/// Orthonormal DCT-II basis matrix, built once.
const std::array<std::array<double, kN>, kN>& DctMatrix() {
  static const std::array<std::array<double, kN>, kN> matrix = [] {
    std::array<std::array<double, kN>, kN> m{};
    for (int k = 0; k < kN; ++k) {
      double scale = k == 0 ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
      for (int n = 0; n < kN; ++n) {
        m[k][n] = scale * std::cos(M_PI * (n + 0.5) * k / kN);
      }
    }
    return m;
  }();
  return matrix;
}

Status CheckDims(const Plane& plane) {
  if (plane.width % kN != 0 || plane.height % kN != 0) {
    return Status::InvalidArgument(
        "local cosine transform needs dimensions divisible by " +
        std::to_string(kN) + ", got " + std::to_string(plane.width) + "x" +
        std::to_string(plane.height));
  }
  return Status::OK();
}

/// One 8x8 block: rows, then columns. The forward transform applies the
/// DCT matrix, the inverse its transpose; the direction is a template
/// parameter so the inner loops carry no branch. Every output is summed
/// from acc = 0 in n order.
template <bool kForward>
void TransformBlock(Plane& plane, int bx, int by) {
  const auto& dct = DctMatrix();
  double in[kN][kN], tmp[kN][kN];
  for (int y = 0; y < kN; ++y) {
    const double* row = &plane.at(bx, by + y);
    for (int x = 0; x < kN; ++x) in[y][x] = row[x];
  }
  // Rows: tmp = (D * block^T)^T i.e. apply along x.
  for (int y = 0; y < kN; ++y) {
    for (int k = 0; k < kN; ++k) {
      double acc = 0;
      for (int n = 0; n < kN; ++n) {
        acc += (kForward ? dct[k][n] : dct[n][k]) * in[y][n];
      }
      tmp[y][k] = acc;
    }
  }
  // Columns, written straight back into the plane.
  for (int k = 0; k < kN; ++k) {
    double* row = &plane.at(bx, by + k);
    for (int x = 0; x < kN; ++x) {
      double acc = 0;
      for (int n = 0; n < kN; ++n) {
        acc += (kForward ? dct[k][n] : dct[n][k]) * tmp[n][x];
      }
      row[x] = acc;
    }
  }
}

template <bool kForward>
Status TransformAll(Plane& plane) {
  MMCONF_RETURN_IF_ERROR(CheckDims(plane));
  for (int by = 0; by < plane.height; by += kN) {
    for (int bx = 0; bx < plane.width; bx += kN) {
      TransformBlock<kForward>(plane, bx, by);
    }
  }
  return Status::OK();
}

}  // namespace

Status LocalCosine2D(Plane& plane) { return TransformAll<true>(plane); }

Status InverseLocalCosine2D(Plane& plane) {
  return TransformAll<false>(plane);
}

}  // namespace mmconf::compress
