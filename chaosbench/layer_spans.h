// Per-layer self time of the traced harness build (layer_spans.cc).

#ifndef CHAOSBENCH_LAYER_SPANS_H_
#define CHAOSBENCH_LAYER_SPANS_H_

#include <cstdint>
#include <vector>

namespace chaosbench {

/// The layers spans are attributed to, outermost first (the names used in
/// layer_symbols.def). `settle` is the broadcast director's combined
/// drive loop; `document` builds and (de)serializes documents while
/// `presentation` re-derives a room's presentation from choices; the
/// codec's stages follow `codec`. Time a replay spends outside every span
/// belongs to the chaos driver itself, which the harness reports as the
/// remainder.
#define CHAOSBENCH_LAYERS(X)                                                \
  X(settle) X(tier) X(server) X(document) X(presentation) X(cpnet)          \
  X(stream) X(transport) X(net) X(fanout) X(compositor) X(imaging)          \
  X(codec) X(quantize) X(wavelet) X(local_cosine) X(entropy) X(storage)     \
  X(crc32c) X(replication) X(media)

enum class Layer : int {
#define CHAOSBENCH_LAYER_ENUM(name) k_##name,
  CHAOSBENCH_LAYERS(CHAOSBENCH_LAYER_ENUM)
#undef CHAOSBENCH_LAYER_ENUM
};

inline constexpr const char* kLayerNames[] = {
#define CHAOSBENCH_LAYER_NAME(name) #name,
    CHAOSBENCH_LAYERS(CHAOSBENCH_LAYER_NAME)
#undef CHAOSBENCH_LAYER_NAME
};
inline constexpr int kNumLayers =
    static_cast<int>(sizeof(kLayerNames) / sizeof(kLayerNames[0]));

/// Accumulated since the last ResetLayerTotals: per layer, the summed
/// self time of its spans (span duration minus the spans nested in it)
/// and the number of spans (calls into the layer).
struct LayerTotals {
  int64_t self_ns[kNumLayers] = {};
  uint64_t calls[kNumLayers] = {};
};

void ResetLayerTotals();
const LayerTotals& ReadLayerTotals();

/// The entry points in layer_symbols.def that the library does not define
/// (renamed, or re-mangled by a signature change): calls to them are not
/// timed, so their time shows up in the calling layer.
std::vector<const char*> UnwrappedSymbols();

}  // namespace chaosbench

#endif  // CHAOSBENCH_LAYER_SPANS_H_
