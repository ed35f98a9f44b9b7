// Per-layer self time, traced from outside the library. The traced
// harness is linked with -Wl,--wrap=<symbol> for every entry point in
// layer_symbols.def, so a call into one of them from another object file
// lands in __wrap_<symbol> below: it opens a span for the entry point's
// layer, calls the original (__real_<symbol>) and closes the span. A
// span's self time is its duration minus the spans nested in it, so each
// nanosecond of a replay is charged to exactly one layer (or to none,
// which the harness charges to the chaos driver).
//
// The wrappers never name the wrapped functions' types. Under the x86-64
// System V calling convention a function whose arguments are at most
// eight integer-class words and at most eight floating-point values
// receives them in rdi..r9, the first two stack slots and xmm0..xmm7,
// and returns in rax:rdx (a class returned through a hidden pointer
// takes that pointer in rdi and hands it back in rax). The forwarder
// below takes exactly those locations as parameters and returns rax:rdx,
// so one definition passes any such call through unchanged; the limits
// are spelled out at the top of layer_symbols.def. Single-threaded: the
// harness replays on one thread.

#include "layer_spans.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>

namespace chaosbench {
namespace {

struct Frame {
  int layer = 0;
  int64_t start_ns = 0;
  int64_t child_ns = 0;  ///< summed durations of the spans nested in it
};

constexpr int kMaxDepth = 256;
Frame g_stack[kMaxDepth];
int g_depth = 0;
LayerTotals g_totals;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

class Span {
 public:
  explicit Span(Layer layer) {
    if (g_depth == kMaxDepth) std::abort();
    g_stack[g_depth++] = {static_cast<int>(layer), NowNs(), 0};
  }
  ~Span() {
    const Frame& frame = g_stack[--g_depth];
    int64_t duration = NowNs() - frame.start_ns;
    g_totals.self_ns[frame.layer] += duration - frame.child_ns;
    ++g_totals.calls[frame.layer];
    if (g_depth > 0) g_stack[g_depth - 1].child_ns += duration;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

void ResetLayerTotals() { g_totals = LayerTotals{}; }
const LayerTotals& ReadLayerTotals() { return g_totals; }

}  // namespace chaosbench

namespace {

/// rax:rdx, the integer result registers.
struct RawResult {
  uintptr_t rax;
  uintptr_t rdx;
};

}  // namespace

#define CHAOSBENCH_PARAMS                                                \
  uintptr_t a0, uintptr_t a1, uintptr_t a2, uintptr_t a3, uintptr_t a4,  \
      uintptr_t a5, uintptr_t a6, uintptr_t a7, double f0, double f1,    \
      double f2, double f3, double f4, double f5, double f6, double f7
#define CHAOSBENCH_ARGS \
  a0, a1, a2, a3, a4, a5, a6, a7, f0, f1, f2, f3, f4, f5, f6, f7

// A symbol missing from the library (the entry point was renamed, or a
// parameter type changed its mangled name) gets no --wrap option
// (wrap_options.cmake), and __real_<symbol> is weak, so the link still
// succeeds: the wrapper is never called, and UnwrappedSymbols names it.
#define LAYER_SPAN(layer, symbol)                                        \
  extern "C" RawResult __real_##symbol(CHAOSBENCH_PARAMS)                \
      __attribute__((weak));                                             \
  extern "C" RawResult __wrap_##symbol(CHAOSBENCH_PARAMS) {              \
    chaosbench::Span span(chaosbench::Layer::k_##layer);                 \
    return __real_##symbol(CHAOSBENCH_ARGS);                             \
  }
#include "layer_symbols.def"
#undef LAYER_SPAN

namespace {

struct WrappedSymbol {
  const char* name;
  RawResult (*real)(CHAOSBENCH_PARAMS);  ///< null when not in the library
};

const WrappedSymbol kWrappedSymbols[] = {
#define LAYER_SPAN(layer, symbol) {#symbol, &__real_##symbol},
#include "layer_symbols.def"
#undef LAYER_SPAN
};

}  // namespace

std::vector<const char*> chaosbench::UnwrappedSymbols() {
  std::vector<const char*> missing;
  for (const WrappedSymbol& symbol : kWrappedSymbols) {
    if (symbol.real == nullptr) missing.push_back(symbol.name);
  }
  return missing;
}
