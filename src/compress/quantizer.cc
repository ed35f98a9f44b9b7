#include "compress/quantizer.h"

namespace mmconf::compress {

void Quantize(const Plane& plane, double step, std::vector<int32_t>& out) {
  const size_t n = plane.data.size();
  out.resize(n);
  const double* in = plane.data.data();
  int32_t* q = out.data();
  // The conversion truncates toward zero, which is the dead zone.
  for (size_t i = 0; i < n; ++i) q[i] = static_cast<int32_t>(in[i] / step);
}

Result<Plane> Dequantize(const std::vector<int32_t>& coefficients, int width,
                         int height, double step) {
  if (coefficients.size() != static_cast<size_t>(width) * height) {
    return Status::InvalidArgument("coefficient count does not match plane");
  }
  Plane plane(width, height);
  for (size_t i = 0; i < coefficients.size(); ++i) {
    plane.data[i] = DequantizeValue(coefficients[i], step);
  }
  return plane;
}

}  // namespace mmconf::compress
