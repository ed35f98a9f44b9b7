#include "compress/layered_codec.h"

#include <algorithm>

#include "compress/bitstream.h"
#include "compress/local_cosine.h"
#include "compress/quantizer.h"
#include "compress/wavelet_packet.h"

namespace mmconf::compress {

namespace {

constexpr uint32_t kMagic = 0x4d4c4352;  // "MLCR"
/// Largest image a stream may declare: 256x the largest (256x256) image
/// the system encodes. Decode allocates width x height planes, so the
/// header's dimensions are bounded before anything trusts them.
constexpr int64_t kMaxPixels = int64_t{1} << 24;
/// Header size bounds: magic, dimensions, wavelet and layer-count varint;
/// then per layer basis, levels, step and payload-size varint.
constexpr size_t kMaxHeaderBytes = 4 + 4 + 4 + 1 + 10;
constexpr size_t kMaxLayerHeaderBytes = 1 + 1 + 8 + 10;

/// The working set of one Encode: the residual and analysis planes, the
/// quantized coefficients, and the entropy-coded payloads with each
/// layer's end offset. assign/resize/clear keep every buffer's capacity.
struct EncoderScratch {
  Plane residual;
  Plane analysis;
  std::vector<int32_t> coefficients;
  Bytes payload;
  std::vector<size_t> layer_end;
};

EncoderScratch& ThreadEncoderScratch() {
  thread_local EncoderScratch scratch;
  return scratch;
}

Status AnalyzeLayer(Plane& plane, const LayerSpec& spec,
                    WaveletBasis wavelet) {
  switch (spec.basis) {
    case LayerBasis::kWavelet:
      return Dwt2D(plane, spec.levels, wavelet);
    case LayerBasis::kWaveletPacket:
      return WaveletPacket2D(plane, spec.levels, wavelet);
    case LayerBasis::kLocalCosine:
      return LocalCosine2D(plane);
  }
  return Status::InvalidArgument("unknown layer basis");
}

Status SynthesizeLayer(Plane& plane, const LayerSpec& spec,
                       WaveletBasis wavelet) {
  switch (spec.basis) {
    case LayerBasis::kWavelet:
      return Idwt2D(plane, spec.levels, wavelet);
    case LayerBasis::kWaveletPacket:
      return InverseWaveletPacket2D(plane, spec.levels, wavelet);
    case LayerBasis::kLocalCosine:
      return InverseLocalCosine2D(plane);
  }
  return Status::InvalidArgument("unknown layer basis");
}

Result<Plane> DecodeLayerPayload(const Bytes& payload, const LayerSpec& spec,
                                 int width, int height,
                                 WaveletBasis wavelet) {
  MMCONF_ASSIGN_OR_RETURN(
      std::vector<int32_t> coefficients,
      DecodeCoefficients(payload, static_cast<size_t>(width) * height));
  MMCONF_ASSIGN_OR_RETURN(
      Plane plane, Dequantize(coefficients, width, height, spec.quant_step));
  MMCONF_RETURN_IF_ERROR(SynthesizeLayer(plane, spec, wavelet));
  return plane;
}

/// Byte offset where the header ends and payload 0 begins.
Result<size_t> HeaderEnd(const Bytes& stream) {
  ByteReader r(stream);
  MMCONF_RETURN_IF_ERROR(r.GetU32().status());
  MMCONF_RETURN_IF_ERROR(r.GetI32().status());
  MMCONF_RETURN_IF_ERROR(r.GetI32().status());
  MMCONF_RETURN_IF_ERROR(r.GetU8().status());
  MMCONF_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    MMCONF_RETURN_IF_ERROR(r.GetU8().status());
    MMCONF_RETURN_IF_ERROR(r.GetU8().status());
    MMCONF_RETURN_IF_ERROR(r.GetF64().status());
    MMCONF_RETURN_IF_ERROR(r.GetVarint().status());
  }
  return r.position();
}

}  // namespace

size_t ThreadEncoderScratchBytes() {
  const EncoderScratch& s = ThreadEncoderScratch();
  return (s.residual.data.capacity() + s.analysis.data.capacity()) *
             sizeof(double) +
         s.coefficients.capacity() * sizeof(int32_t) + s.payload.capacity() +
         s.layer_end.capacity() * sizeof(size_t);
}

const char* LayerBasisToString(LayerBasis basis) {
  switch (basis) {
    case LayerBasis::kWavelet:
      return "wavelet";
    case LayerBasis::kWaveletPacket:
      return "wavelet-packet";
    case LayerBasis::kLocalCosine:
      return "local-cosine";
  }
  return "unknown";
}

LayeredCodec::LayeredCodec(CodecOptions options)
    : options_(std::move(options)) {}

Result<Bytes> LayeredCodec::Encode(const media::Image& image) const {
  if (options_.layers.empty()) {
    return Status::InvalidArgument("codec needs at least one layer");
  }
  if (options_.layers.front().basis != LayerBasis::kWavelet) {
    return Status::InvalidArgument(
        "the main approximation layer must use the wavelet basis");
  }
  for (const LayerSpec& spec : options_.layers) {
    if (spec.quant_step <= 0) {
      return Status::InvalidArgument("quantization step must be positive");
    }
    if (spec.basis != LayerBasis::kLocalCosine &&
        spec.levels > MaxDwtLevels(image.width(), image.height())) {
      return Status::InvalidArgument(
          "image " + std::to_string(image.width()) + "x" +
          std::to_string(image.height()) + " cannot support " +
          std::to_string(spec.levels) + " decomposition levels");
    }
    if (spec.basis == LayerBasis::kLocalCosine &&
        (image.width() % kLocalCosineBlock != 0 ||
         image.height() % kLocalCosineBlock != 0)) {
      return Status::InvalidArgument(
          "local-cosine layer needs dimensions divisible by 8");
    }
  }

  EncoderScratch& scratch = ThreadEncoderScratch();
  Plane& residual = scratch.residual;
  Plane& analysis = scratch.analysis;
  residual.width = analysis.width = image.width();
  residual.height = analysis.height = image.height();
  // assign() converts each pixel to double and reuses the capacity.
  residual.data.assign(image.pixels().begin(), image.pixels().end());
  scratch.payload.clear();
  scratch.layer_end.clear();
  const size_t num_layers = options_.layers.size();
  for (size_t k = 0; k < num_layers; ++k) {
    const LayerSpec& spec = options_.layers[k];
    analysis.data.assign(residual.data.begin(), residual.data.end());
    MMCONF_RETURN_IF_ERROR(AnalyzeLayer(analysis, spec, options_.wavelet));
    Quantize(analysis, spec.quant_step, scratch.coefficients);
    EncodeCoefficients(scratch.coefficients, scratch.payload);
    scratch.layer_end.push_back(scratch.payload.size());
    if (k + 1 == num_layers) break;  // nothing reads the last residual
    // Rebuild in place what the decoder will see and subtract it, so the
    // next layer encodes (and compensates for) this layer's quantization
    // artifacts.
    for (size_t i = 0; i < analysis.data.size(); ++i) {
      analysis.data[i] =
          DequantizeValue(scratch.coefficients[i], spec.quant_step);
    }
    MMCONF_RETURN_IF_ERROR(SynthesizeLayer(analysis, spec, options_.wavelet));
    for (size_t i = 0; i < residual.data.size(); ++i) {
      residual.data[i] -= analysis.data[i];
    }
  }

  ByteWriter out;
  out.Reserve(kMaxHeaderBytes + num_layers * kMaxLayerHeaderBytes +
              scratch.payload.size());
  out.PutU32(kMagic);
  out.PutI32(image.width());
  out.PutI32(image.height());
  out.PutU8(static_cast<uint8_t>(options_.wavelet));
  out.PutVarint(num_layers);
  size_t begin = 0;
  for (size_t k = 0; k < num_layers; ++k) {
    const LayerSpec& spec = options_.layers[k];
    out.PutU8(static_cast<uint8_t>(spec.basis));
    out.PutU8(static_cast<uint8_t>(spec.levels));
    out.PutF64(spec.quant_step);
    out.PutVarint(scratch.layer_end[k] - begin);
    begin = scratch.layer_end[k];
  }
  out.PutRaw(scratch.payload.data(), scratch.payload.size());
  return out.Take();
}

Result<Bytes> LayeredCodec::EncodeToBudget(const media::Image& image,
                                           size_t byte_budget,
                                           int iterations) const {
  // Scale 1.0 = configured quality; larger scale = coarser steps =
  // smaller stream. Find the smallest sufficient scale.
  auto encode_scaled = [&](double scale) -> Result<Bytes> {
    CodecOptions scaled = options_;
    for (LayerSpec& layer : scaled.layers) layer.quant_step *= scale;
    return LayeredCodec(scaled).Encode(image);
  };
  MMCONF_ASSIGN_OR_RETURN(Bytes at_unit, encode_scaled(1.0));
  if (at_unit.size() <= byte_budget) return at_unit;

  double lo = 1.0, hi = 1.0;
  Bytes best;
  // Grow hi until the stream fits (cap the search at 4096x coarser).
  while (hi < 4096.0) {
    hi *= 2.0;
    MMCONF_ASSIGN_OR_RETURN(Bytes attempt, encode_scaled(hi));
    if (attempt.size() <= byte_budget) {
      best = std::move(attempt);
      break;
    }
    lo = hi;
  }
  if (best.empty()) {
    return Status::ResourceExhausted(
        "budget of " + std::to_string(byte_budget) +
        " bytes unreachable even at coarsest quantization");
  }
  for (int i = 0; i < iterations; ++i) {
    double mid = (lo + hi) / 2.0;
    MMCONF_ASSIGN_OR_RETURN(Bytes attempt, encode_scaled(mid));
    if (attempt.size() <= byte_budget) {
      hi = mid;
      best = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  return best;
}

Result<StreamInfo> LayeredCodec::Inspect(const Bytes& stream) {
  ByteReader r(stream);
  MMCONF_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMagic) return Status::Corruption("bad layered-codec magic");
  StreamInfo info;
  MMCONF_ASSIGN_OR_RETURN(info.width, r.GetI32());
  MMCONF_ASSIGN_OR_RETURN(info.height, r.GetI32());
  if (info.width <= 0 || info.height <= 0 ||
      int64_t{info.width} * info.height > kMaxPixels) {
    return Status::Corruption("bad stream dimensions");
  }
  MMCONF_ASSIGN_OR_RETURN(uint8_t wavelet, r.GetU8());
  if (wavelet > 1) return Status::Corruption("bad wavelet basis");
  info.wavelet = static_cast<WaveletBasis>(wavelet);
  MMCONF_ASSIGN_OR_RETURN(uint64_t num_layers, r.GetVarint());
  if (num_layers == 0 || num_layers > 255) {
    return Status::Corruption("bad layer count");
  }
  std::vector<size_t> payload_sizes;
  for (uint64_t i = 0; i < num_layers; ++i) {
    LayerSpec spec;
    MMCONF_ASSIGN_OR_RETURN(uint8_t basis, r.GetU8());
    if (basis > 2) return Status::Corruption("bad layer basis");
    spec.basis = static_cast<LayerBasis>(basis);
    MMCONF_ASSIGN_OR_RETURN(uint8_t levels, r.GetU8());
    spec.levels = levels;
    MMCONF_ASSIGN_OR_RETURN(spec.quant_step, r.GetF64());
    MMCONF_ASSIGN_OR_RETURN(uint64_t payload_size, r.GetVarint());
    info.layers.push_back(spec);
    payload_sizes.push_back(payload_size);
  }
  info.header_bytes = r.position();
  size_t offset = r.position();
  for (size_t size : payload_sizes) {
    offset += size;
    info.layer_end.push_back(offset);
  }
  // A stream shorter than the declared payloads is a valid *prefix* (the
  // progressive-transfer case): the header stays authoritative and
  // Decode guards that requested layers are physically present.
  info.total_bytes = offset;
  return info;
}

Result<media::Image> LayeredCodec::Decode(const Bytes& stream,
                                          int max_layers) {
  MMCONF_ASSIGN_OR_RETURN(StreamInfo info, Inspect(stream));
  size_t use = info.layers.size();
  if (max_layers >= 0) {
    use = std::min(use, static_cast<size_t>(max_layers));
  }
  if (use == 0) {
    return Status::InvalidArgument("must decode at least the base layer");
  }
  Plane sum(info.width, info.height);
  MMCONF_ASSIGN_OR_RETURN(size_t begin, HeaderEnd(stream));
  for (size_t k = 0; k < use; ++k) {
    size_t end = info.layer_end[k];
    if (end > stream.size()) {
      return Status::FailedPrecondition(
          "layer " + std::to_string(k) +
          " is not fully present in this stream prefix");
    }
    Bytes payload(stream.begin() + static_cast<long>(begin),
                  stream.begin() + static_cast<long>(end));
    MMCONF_ASSIGN_OR_RETURN(
        Plane plane, DecodeLayerPayload(payload, info.layers[k], info.width,
                                        info.height, info.wavelet));
    for (size_t i = 0; i < sum.data.size(); ++i) {
      sum.data[i] += plane.data[i];
    }
    begin = end;
  }
  return ImageFromPlane(sum);
}

Result<int> LayeredCodec::LayersWithinBudget(const Bytes& stream,
                                             size_t byte_budget) {
  MMCONF_ASSIGN_OR_RETURN(StreamInfo info, Inspect(stream));
  // A layer counts only when it fits the budget AND is physically
  // present (the stream may itself be a prefix).
  size_t effective = std::min(byte_budget, stream.size());
  int layers = 0;
  for (size_t k = 0; k < info.layer_end.size(); ++k) {
    if (info.layer_end[k] <= effective) layers = static_cast<int>(k) + 1;
  }
  return layers;
}

Result<media::Image> LayeredCodec::DecodePrefix(const Bytes& stream,
                                                size_t byte_budget) {
  MMCONF_ASSIGN_OR_RETURN(int layers, LayersWithinBudget(stream, byte_budget));
  if (layers == 0) {
    return Status::FailedPrecondition(
        "byte budget " + std::to_string(byte_budget) +
        " cannot cover the base layer");
  }
  return Decode(stream, layers);
}

Result<media::Image> LayeredCodec::DecodeThumbnail(const Bytes& stream,
                                                   int scale_log2) {
  MMCONF_ASSIGN_OR_RETURN(StreamInfo info, Inspect(stream));
  const LayerSpec& base = info.layers.front();
  if (scale_log2 < 0 || scale_log2 > base.levels) {
    return Status::InvalidArgument("thumbnail scale must be in [0, " +
                                   std::to_string(base.levels) + "]");
  }
  // Base payload bounds: header end .. layer_end[0].
  if (info.layer_end[0] > stream.size()) {
    return Status::FailedPrecondition(
        "base layer is not fully present in this stream prefix");
  }
  MMCONF_ASSIGN_OR_RETURN(size_t header_end, HeaderEnd(stream));
  Bytes payload(stream.begin() + static_cast<long>(header_end),
                stream.begin() + static_cast<long>(info.layer_end[0]));
  MMCONF_ASSIGN_OR_RETURN(
      std::vector<int32_t> coefficients,
      DecodeCoefficients(payload, static_cast<size_t>(info.width) *
                                      info.height));
  MMCONF_ASSIGN_OR_RETURN(
      Plane analyzed,
      Dequantize(coefficients, info.width, info.height, base.quant_step));
  MMCONF_ASSIGN_OR_RETURN(
      Plane thumb,
      ReconstructAtScale(analyzed, base.levels, scale_log2, info.wavelet));
  return ImageFromPlane(thumb);
}

}  // namespace mmconf::compress
