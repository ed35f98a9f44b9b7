#include "compress/wavelet_packet.h"

#include <vector>

namespace mmconf::compress {

int MaxPacketDepth(int width, int height) {
  return MaxDwtLevels(width, height);
}

namespace {

/// Applies one analysis/synthesis step to every (tw x th) tile of the
/// plane via the shared allocation-free region kernel.
Status TransformTiles(Plane& plane, int tw, int th, WaveletBasis basis,
                      bool forward) {
  for (int ty = 0; ty < plane.height; ty += th) {
    for (int tx = 0; tx < plane.width; tx += tw) {
      MMCONF_RETURN_IF_ERROR(
          Transform2DRegion(plane, tx, ty, tw, th, basis, forward));
    }
  }
  return Status::OK();
}

}  // namespace

Status WaveletPacket2D(Plane& plane, int depth, WaveletBasis basis) {
  if (depth < 0 || depth > MaxPacketDepth(plane.width, plane.height)) {
    return Status::InvalidArgument("invalid packet depth " +
                                   std::to_string(depth));
  }
  for (int level = 0; level < depth; ++level) {
    MMCONF_RETURN_IF_ERROR(TransformTiles(plane, plane.width >> level,
                                          plane.height >> level, basis,
                                          /*forward=*/true));
  }
  return Status::OK();
}

Status InverseWaveletPacket2D(Plane& plane, int depth, WaveletBasis basis) {
  if (depth < 0 || depth > MaxPacketDepth(plane.width, plane.height)) {
    return Status::InvalidArgument("invalid packet depth " +
                                   std::to_string(depth));
  }
  for (int level = depth - 1; level >= 0; --level) {
    MMCONF_RETURN_IF_ERROR(TransformTiles(plane, plane.width >> level,
                                          plane.height >> level, basis,
                                          /*forward=*/false));
  }
  return Status::OK();
}

}  // namespace mmconf::compress
