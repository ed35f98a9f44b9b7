// Chaos-replay benchmark harness (driven by run.py). Replays seeded
// workload traces against the full mmconf stack through
// workload::ChaosDriver — federated interaction tier over the sharded,
// WAL-replicated database, streams, broadcast fan-out, with net, storage
// and node-loss faults injected — for a fixed wall-clock budget, and
// prints one JSON result line on stdout.
//
//   chaos_replay --workload lecture|consult|browse|mixed --seed N --seconds T
//
// A run first replays the workload's golden traces (generated from a
// fixed seed, whatever --seed is) and prints the digest of their outputs,
// which run.py compares with the digest checked in to
// expected_digests.json. Those replays also warm the process up. It then
// generates a pool of traces from --seed (trace i from seed
// N * 1000000 + i) and replays the pool round-robin until --seconds is
// spent. A replay is correct when its outputs are: every shard crash
// recovered and every follower promoted byte-exactly, every open room
// converged and equal to its action-log replay, no base layer aborted,
// and the report plus metrics snapshot identical to the trace's first
// replay. The driver's virtual-time stall and time-to-consistency budgets
// are service targets that the chaos gate enforces on its own seeds; a
// miss is logged to stderr here but does not fail the replay, because one
// trace in tens of thousands misses by a few tens of milliseconds. The
// golden digest pins the budgets' measured values for the golden traces.
//
// The plain build reports the end-to-end metrics; the traced build
// (CHAOSBENCH_TRACED) reports per-layer self time from layer_spans.cc.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workload/chaos.h"
#include "workload/generator.h"

#ifdef CHAOSBENCH_TRACED
#include "layer_spans.h"
#endif

namespace {

using namespace mmconf;
using WallClock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  workload::ScenarioMix mix;
  size_t rooms;
  size_t clients;
  MicrosT duration_micros;
};

// The chaos gate's four cells, at the gate's sizes (OptionsFor in
// bench/bench_chaos.cc).
constexpr Workload kWorkloads[] = {
    // One lecture room: flash-crowd joins, a hosted broadcast composing a
    // mosaic frame per bandwidth class at every timeline boundary, a
    // speaker handoff and a live migration. Most of its time is the
    // compositor and codec path.
    {"lecture", workload::ScenarioMix::kLecture, 1, 8, 12'000'000},
    // Three consult rooms: dense choice and operation rounds propagated to
    // every member, one stream each — documents, server and reliable
    // transport; no broadcast, so the compositor is bypassed.
    {"consult", workload::ScenarioMix::kConsult, 3, 10, 10'000'000},
    // Five single-viewer browse rooms opening and closing: each builds,
    // stores, fetches and decodes a document and archives its minutes on
    // close, so document handling, storage and WAL shipping carry the
    // replay; no broadcast either.
    {"browse", workload::ScenarioMix::kBrowse, 5, 6, 10'000'000},
    // One room of each family side by side on one tier: the mix the
    // roadmap's profile was taken on.
    {"mixed", workload::ScenarioMix::kMixed, 3, 12, 12'000'000},
};

constexpr uint64_t kTraceSeedStride = 1'000'000;
/// Seed of the golden traces, whose outputs expected_digests.json pins.
constexpr uint64_t kGoldenSeed = 0;
constexpr uint64_t kGoldenTraces = 8;
/// Stack stand-ups timed for setup_s; the median is reported.
constexpr int kSetupRepeats = 31;
/// Distinct traces a run replays, round-robin, until --seconds is spent.
constexpr uint64_t kPoolTraces = 64;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

workload::WorkloadTrace MakeTrace(const Workload& w, uint64_t run_seed,
                                  uint64_t index) {
  workload::GeneratorOptions options;
  options.mix = w.mix;
  options.rooms = w.rooms;
  options.clients = w.clients;
  options.duration_micros = w.duration_micros;
  options.inject_node_loss = true;
  return workload::WorkloadGenerator(run_seed * kTraceSeedStride + index,
                                     options)
      .Generate();
}

/// Every field of the report, for the determinism digest.
std::string ReportText(const workload::ChaosReport& r) {
  std::string text;
  for (size_t value :
       {r.events_total, r.events_applied, r.events_skipped, r.rooms_opened,
        r.rooms_closed, r.migrations, r.migrations_failed, r.shard_crashes,
        r.node_losses, r.promotions, r.streams_opened, r.broadcast_frames,
        r.wire_bytes}) {
    text += std::to_string(value) + ",";
  }
  for (int64_t value : {static_cast<int64_t>(r.end_micros),
                        r.max_stall_micros, r.max_t2c_micros}) {
    text += std::to_string(value) + ",";
  }
  for (const std::string& line : r.skip_samples) text += line + "\n";
  for (const std::string& line : r.invariants.violations) text += line + "\n";
  return text;
}

struct Replay {
  bool ok = false;  ///< Run succeeded and its invariants held
  double wall_s = 0;
  size_t applied = 0;
  uint64_t digest = 0;  ///< report + metrics snapshot
};

/// One replay on a freshly stood-up stack. The wall time covers stand-up,
/// replay, the driver's invariant checks and tear-down. Violations go to
/// stderr.
Replay RunTrace(const workload::WorkloadTrace& trace) {
  workload::ChaosOptions options;
  options.replication_followers = 1;
  obs::MetricsRegistry metrics;
  Result<workload::ChaosReport> report = Status::Internal("not run");
  WallClock::time_point start = WallClock::now();
  {
    workload::ChaosDriver driver(options, &metrics);
    report = driver.Run(trace);
  }
  Replay replay;
  replay.wall_s =
      std::chrono::duration<double>(WallClock::now() - start).count();
  if (!report.ok()) {
    std::fprintf(stderr, "trace seed %" PRIu64 ": %s\n", trace.seed,
                 report.status().ToString().c_str());
    return replay;
  }
  const workload::ChaosReport& r = report.value();
  const workload::InvariantReport& held = r.invariants;
  replay.ok = held.base_layers_intact && held.storage_recovery_exact &&
              held.rooms_converged && held.serialize_converged &&
              held.replication_failover_exact;
  for (const std::string& violation : held.violations) {
    std::fprintf(stderr, "trace seed %" PRIu64 ": %s\n", trace.seed,
                 violation.c_str());
  }
  replay.applied = r.events_applied;
  replay.digest = Fnv1a(Fnv1a(kFnvOffset, ReportText(r)),
                        metrics.Snapshot().ToJson());
  return replay;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

#ifndef CHAOSBENCH_TRACED
/// Median wall time of standing the stack up and tearing it down around
/// an event-free trace: network, sharded WAL database with followers,
/// federation tier, broadcast director, the encoded media pool.
double SetupSeconds(const Workload& w, uint64_t run_seed) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload::WorkloadTrace empty;
    empty.seed = run_seed * kTraceSeedStride + static_cast<uint64_t>(i);
    empty.scenario = w.name;
    samples.push_back(RunTrace(empty).wall_s);
  }
  return Median(samples);
}
#endif

void PrintMetric(bool& first, const std::string& name, double value,
                 const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(), value, unit);
  first = false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload lecture|consult|browse|mixed --seed N "
               "--seconds T\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = -1;
  for (int i = 1; i < argc; ++i) {
    bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      const char* name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, name) == 0) workload = &w;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      return Usage(argv[0]);
    }
  }
  if (workload == nullptr || seconds < 0) return Usage(argv[0]);

  // Golden round, untimed: first-use costs are paid here.
  size_t failed = 0;
  uint64_t golden_digest = kFnvOffset;
  for (uint64_t i = 0; i < kGoldenTraces; ++i) {
    Replay replay = RunTrace(MakeTrace(*workload, kGoldenSeed, i));
    if (!replay.ok) ++failed;
    golden_digest = Fnv1a(golden_digest, std::to_string(replay.digest));
  }

  std::vector<workload::WorkloadTrace> pool;
  for (uint64_t i = 0; i < kPoolTraces; ++i) {
    pool.push_back(MakeTrace(*workload, seed, i));
  }

#ifdef CHAOSBENCH_TRACED
  chaosbench::ResetLayerTotals();
#endif
  // Timed rounds over the pool until the budget is spent; the first round
  // always completes, so every trace has at least one timed replay, and
  // every later replay of a trace must reproduce the first one's digest.
  std::vector<Replay> first(pool.size());
  std::vector<std::vector<double>> walls(pool.size());
  size_t timed_replays = 0;
  WallClock::time_point deadline =
      WallClock::now() + std::chrono::duration_cast<WallClock::duration>(
                             std::chrono::duration<double>(seconds));
  for (bool first_round = true;; first_round = false) {
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!first_round && WallClock::now() >= deadline) break;
      Replay replay = RunTrace(pool[i]);
      if (first_round) first[i] = replay;
      if (replay.digest != first[i].digest) {
        std::fprintf(stderr, "trace seed %" PRIu64 " replayed differently\n",
                     pool[i].seed);
      }
      if (!replay.ok || replay.digest != first[i].digest) ++failed;
      walls[i].push_back(replay.wall_s);
      ++timed_replays;
    }
    if (WallClock::now() >= deadline) break;
  }
#ifdef CHAOSBENCH_TRACED
  chaosbench::LayerTotals totals = chaosbench::ReadLayerTotals();
#endif

  // Per trace, the median of its timed replays; summed over the pool.
  double pool_wall_s = 0;
  double pool_events = 0;
  double pool_sim_s = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    pool_wall_s += Median(walls[i]);
    pool_events += static_cast<double>(first[i].applied);
    // The trace's span, not the run's end: the final settle may idle
    // through seconds of retry backoff that replay no conference time.
    pool_sim_s += static_cast<double>(pool[i].events.back().at) / 1e6;
  }
  if (pool_events == 0) {
    std::fprintf(stderr, "no trace applied an event\n");
    return 1;
  }
  double wall_us_per_event = pool_wall_s * 1e6 / pool_events;

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", "
              "\"failed\": %zu, \"golden_digest\": \"%016" PRIx64 "\", "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", kGoldenTraces + timed_replays,
              failed, golden_digest);
  bool first_metric = true;
#ifdef CHAOSBENCH_TRACED
  // Spans cover every timed replay, so normalize by all of them (a trace
  // applies the same events on every replay: its digest is checked).
  double events = 0;
  double wall_ns = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    events += static_cast<double>(walls[i].size() * first[i].applied);
    for (double wall_s : walls[i]) wall_ns += wall_s * 1e9;
  }
  int64_t layered_ns = 0;
  for (int l = 0; l < chaosbench::kNumLayers; ++l) {
    std::string name = chaosbench::kLayerNames[l];
    layered_ns += totals.self_ns[l];
    PrintMetric(first_metric, name + ".self_us_per_event",
                static_cast<double>(totals.self_ns[l]) / 1e3 / events,
                "us/event");
    PrintMetric(first_metric, name + ".calls_per_event",
                static_cast<double>(totals.calls[l]) / events, "calls/event");
  }
  PrintMetric(first_metric, "driver.self_us_per_event",
              (wall_ns - static_cast<double>(layered_ns)) / 1e3 / events,
              "us/event");
  PrintMetric(first_metric, "traced.wall_us_per_event", wall_us_per_event,
              "us/event");
  std::vector<const char*> unwrapped = chaosbench::UnwrappedSymbols();
  for (const char* symbol : unwrapped) {
    std::fprintf(stderr, "layer_symbols.def: %s is not in the library\n",
                 symbol);
  }
  PrintMetric(first_metric, "unwrapped_symbols",
              static_cast<double>(unwrapped.size()), "count");
#else
  PrintMetric(first_metric, "wall_us_per_event", wall_us_per_event,
              "us/event");
  PrintMetric(first_metric, "sim_s_per_wall_s", pool_sim_s / pool_wall_s,
              "s/s");
  PrintMetric(first_metric, "setup_s", SetupSeconds(*workload, seed), "s");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  PrintMetric(first_metric, "peak_rss_mib",
              static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
#endif
  std::printf("}}\n");
  return 0;
}
