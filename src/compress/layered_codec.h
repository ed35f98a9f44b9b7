#ifndef MMCONF_COMPRESS_LAYERED_CODEC_H_
#define MMCONF_COMPRESS_LAYERED_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "compress/wavelet.h"
#include "media/image.h"

namespace mmconf::compress {

/// Basis family used by one layer of the hybrid codec.
enum class LayerBasis : uint8_t {
  kWavelet = 0,        ///< Mallat pyramid (base layer)
  kWaveletPacket = 1,  ///< uniform packet decomposition (residuals)
  kLocalCosine = 2,    ///< blockwise DCT (residuals)
};

const char* LayerBasisToString(LayerBasis basis);

/// One layer of the multi-layered representation: the basis in which the
/// (residual) signal is analyzed, its decomposition depth, and the
/// quantization step. Smaller steps on later layers mean each residual
/// layer refines the previous approximation.
struct LayerSpec {
  LayerBasis basis = LayerBasis::kWavelet;
  int levels = 4;           ///< DWT levels / packet depth; ignored by LCT
  double quant_step = 8.0;
};

/// Codec configuration. The paper's scheme (Meyer-Averbuch-Coifman): "a
/// wavelet compression algorithm encodes the main approximation of the
/// image, and a wavelet packet or local cosine compression algorithm
/// encodes the sequence of compression residuals."
struct CodecOptions {
  WaveletBasis wavelet = WaveletBasis::kDaub4;
  std::vector<LayerSpec> layers = {
      {LayerBasis::kWavelet, 4, 16.0},
      {LayerBasis::kWaveletPacket, 2, 8.0},
      {LayerBasis::kLocalCosine, 0, 4.0},
  };
};

/// Parsed header of an encoded stream, exposing per-layer boundaries so
/// callers can plan progressive (prefix) delivery.
struct StreamInfo {
  int width = 0;
  int height = 0;
  WaveletBasis wavelet = WaveletBasis::kDaub4;
  std::vector<LayerSpec> layers;
  /// Byte offset where each layer's payload ends (cumulative, including
  /// the header). `layer_end[k]` bytes of the stream suffice to decode
  /// layers 0..k.
  std::vector<size_t> layer_end;
  /// Size of the stream header (payload 0 begins here).
  size_t header_bytes = 0;
  size_t total_bytes = 0;
};

/// Capacity in bytes of the calling thread's encoder scratch: the planes,
/// coefficient and payload buffers LayeredCodec::Encode works in. They
/// grow to the largest image the thread has encoded and never shrink
/// (like KernelScratch), so a warmed-up thread encodes with a single heap
/// allocation, the returned stream.
size_t ThreadEncoderScratchBytes();

/// Multi-layered hybrid image codec.
class LayeredCodec {
 public:
  explicit LayeredCodec(CodecOptions options = {});

  /// Encodes `image` (pixel plane only). The first layer must be
  /// kWavelet; at least one layer is required. Image dimensions must
  /// support every layer's decomposition depth (and be multiples of 8
  /// when a local-cosine layer is present).
  Result<Bytes> Encode(const media::Image& image) const;

  /// Rate control: scales every configured quantization step by a common
  /// factor, binary-searched over `iterations` refinements, to produce
  /// the highest-quality stream that fits `byte_budget`. Use when the
  /// interaction server knows a client's buffer or per-transfer byte
  /// allowance up front (Section 4.4's measurable-parameter case).
  /// ResourceExhausted if even very coarse quantization overshoots.
  Result<Bytes> EncodeToBudget(const media::Image& image,
                               size_t byte_budget,
                               int iterations = 8) const;

  /// Parses the stream header.
  static Result<StreamInfo> Inspect(const Bytes& stream);

  /// Decodes using the first `max_layers` layers (all layers if
  /// max_layers < 0 or exceeds the stream's layer count).
  static Result<media::Image> Decode(const Bytes& stream,
                                     int max_layers = -1);

  /// Decodes using every layer that *fully* fits within `byte_budget`
  /// bytes of the stream — the progressive-transfer entry point used by
  /// the interaction server to adapt quality to each client's bandwidth.
  /// FailedPrecondition if even the header + base layer do not fit.
  static Result<media::Image> DecodePrefix(const Bytes& stream,
                                           size_t byte_budget);

  /// Number of layers that fully fit in `byte_budget` bytes.
  static Result<int> LayersWithinBudget(const Bytes& stream,
                                        size_t byte_budget);

  /// Decodes a reduced-resolution approximation from the base layer only:
  /// the result is (width/2^scale_log2 x height/2^scale_log2).
  /// scale_log2 must not exceed the base layer's level count.
  static Result<media::Image> DecodeThumbnail(const Bytes& stream,
                                              int scale_log2);

  const CodecOptions& options() const { return options_; }

 private:
  CodecOptions options_;
};

}  // namespace mmconf::compress

#endif  // MMCONF_COMPRESS_LAYERED_CODEC_H_
