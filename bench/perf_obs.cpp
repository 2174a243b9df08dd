// Observability performance harness (docs/OBSERVABILITY.md §perf,
// docs/PERFORMANCE.md). Two sections, written as BENCH_obs.json and
// summarized on stdout:
//
//   1. overhead — the same M8 ThrotCPUprio run timed with observability off
//      and with everything on (sampler, journal, trace, histograms,
//      profiler). Best of three reps each; the headline number is the
//      percentage slowdown of the fully instrumented run. The CI perf-smoke
//      gate fails the build when it exceeds --max-overhead-pct.
//   2. pool_merge — per-worker profilers through run_many(), merged at join;
//      checks the merged attribution equals the per-job sums.
//
// GPUQOS_FAST=1 shrinks every budget for CI smoke runs. Usage:
//   perf_obs [--out BENCH_obs.json] [--max-overhead-pct PCT]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/jsonio.hpp"
#include "obs/telemetry.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace gpuqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TelemetryOptions full_options(Cycle sample_interval) {
  TelemetryOptions topts;
  topts.sample_interval = sample_interval;
  topts.capture_trace = true;
  topts.capture_journal = true;
  topts.capture_histograms = true;
  topts.capture_log = true;
  topts.capture_profile = true;
  return topts;
}

/// One timed M8 run; `telemetry` null = observability off.
double time_run(const RunScale& scale, Telemetry* telemetry) {
  SimConfig cfg = Presets::scaled();
  RunHooks hooks;
  hooks.telemetry = telemetry;
  const auto t0 = std::chrono::steady_clock::now();
  (void)run_hetero(cfg, mix("M8"), Policy::ThrottleCpuPrio, scale, hooks);
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_obs.json";
  double max_overhead_pct = 0.0;  // 0 = report only, no gate

  cli::OptionSet opts("[--out BENCH_obs.json] [--max-overhead-pct PCT]",
                      "observability overhead harness "
                      "(docs/OBSERVABILITY.md)");
  opts.str("--out", "FILE", "benchmark report destination", &out);
  opts.f64("--max-overhead-pct", "PCT",
           "exit 1 when full-telemetry overhead exceeds PCT (0 = no gate)",
           &max_overhead_pct);
  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);

  const char* fast_env = std::getenv("GPUQOS_FAST");
  const bool fast = fast_env != nullptr && std::strcmp(fast_env, "0") != 0;
  const int reps = 3;

  RunScale scale = RunScale::from_env();
  if (!fast) {
    // Full mode still keeps the run bounded: the comparison needs identical
    // work on both sides, not a long simulation.
    scale.warm_instrs = 100'000;
    scale.measure_instrs = 600'000;
    scale.warm_frames = 2;
    scale.measure_frames = 3;
    scale.warm_min_cycles = 1'000'000;
    scale.max_cycles = 100'000'000;
  }
  const Cycle sample_interval = 100'000;

  // --- 1. Overhead: off vs fully instrumented, best of `reps`.
  std::printf("observability overhead (M8 ThrotCPUprio, best of %d):\n", reps);
  double off_s = 1e30;
  for (int i = 0; i < reps; ++i) off_s = std::min(off_s, time_run(scale, nullptr));
  double on_s = 1e30;
  for (int i = 0; i < reps; ++i) {
    auto telemetry = std::make_unique<Telemetry>(full_options(sample_interval));
    on_s = std::min(on_s, time_run(scale, telemetry.get()));
  }
  const double overhead_pct = off_s > 0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
  std::printf("  off %.3fs, full telemetry %.3fs -> overhead %.2f%%\n", off_s,
              on_s, overhead_pct);

  // --- 2. Per-worker profilers merged at join.
  RunScale tiny;
  tiny.warm_instrs = 20'000;
  tiny.measure_instrs = 50'000;
  tiny.warm_frames = 1;
  tiny.measure_frames = 1;
  tiny.warm_min_cycles = 200'000;
  tiny.max_cycles = 50'000'000;
  const unsigned pool_jobs = 2;
  std::vector<std::unique_ptr<Telemetry>> tels;
  std::vector<std::function<HeteroResult()>> jobs;
  for (unsigned j = 0; j < pool_jobs; ++j) {
    tels.push_back(std::make_unique<Telemetry>(full_options(sample_interval)));
    Telemetry* t = tels.back().get();
    jobs.push_back([&tiny, t] {
      SimConfig jcfg = Presets::scaled();
      jcfg.cpu_cores = 1;
      RunHooks hooks;
      hooks.telemetry = t;
      return run_hetero(jcfg, mix("M1"), Policy::Baseline, tiny, hooks);
    });
  }
  (void)run_many(std::move(jobs));
  std::uint64_t per_job_ticks = 0, per_job_entries = 0;
  for (const auto& t : tels) {
    per_job_ticks += t->profiler()->attributed_ticks();
    for (int p = 0; p < kNumProfPhases; ++p) {
      for (int m = 0; m < kNumProfModules; ++m) {
        per_job_entries += t->profiler()
                               ->slot(static_cast<ProfPhase>(p),
                                      static_cast<ProfModule>(m))
                               .entries;
      }
    }
  }
  Profiler merged;
  for (const auto& t : tels) merged.merge(*t->profiler());
  std::uint64_t merged_entries = 0;
  for (int p = 0; p < kNumProfPhases; ++p) {
    for (int m = 0; m < kNumProfModules; ++m) {
      merged_entries += merged
                            .slot(static_cast<ProfPhase>(p),
                                  static_cast<ProfModule>(m))
                            .entries;
    }
  }
  const bool merge_ok =
      merged.attributed_ticks() == per_job_ticks &&
      merged_entries == per_job_entries &&
      merged.residual_ticks() ==
          static_cast<std::int64_t>(merged.total_ticks()) -
              static_cast<std::int64_t>(merged.attributed_ticks());
  std::printf("pool merge (%u jobs): %s (%llu attributed ticks)\n", pool_jobs,
              merge_ok ? "consistent" : "MISMATCH",
              static_cast<unsigned long long>(merged.attributed_ticks()));

  // --- Report.
  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  os << "{\n  \"overhead\": {\"mix\": \"M8\", \"policy\": \"ThrotCPUprio\", "
     << "\"reps\": " << reps << ", \"off_seconds\": " << json_double(off_s)
     << ", \"full_seconds\": " << json_double(on_s)
     << ", \"overhead_pct\": " << json_double(overhead_pct) << "},\n";
  os << "  \"pool_merge\": {\"jobs\": " << pool_jobs
     << ", \"consistent\": " << (merge_ok ? "true" : "false") << "}\n}\n";
  os.flush();
  if (!os) {
    std::fprintf(stderr, "short write to %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());

  if (!merge_ok) return 1;
  if (max_overhead_pct > 0 && overhead_pct > max_overhead_pct) {
    std::fprintf(stderr,
                 "observability overhead %.2f%% exceeds the %.2f%% gate\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}
