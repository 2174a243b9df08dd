// Sweep-pool scaling harness (docs/PERFORMANCE.md). The same 8-job M8
// policy sweep (one job per Policy, the shape of a real figure harness) runs
// through run_many() at GPUQOS_THREADS = 1, 2, 4, 8. The `sweep_threads`
// section records the wall time and speedup-vs-serial at each setting, the
// host's core count, and per-thread-count agreement: every pooled run must
// produce the exact FPS vector of the serial run (results[i] <- jobs[i], and
// each job owns its engine/RNG/stats), so any divergence fails the harness.
//
// The section splices into BENCH_engine.json (written by perf_engine; run
// that first) rather than a separate file, so the one report carries the
// single-run and the sweep-level scaling story. GPUQOS_FAST=1 shrinks the
// per-job budget for CI smoke runs. Usage:
//   perf_sweep [--out BENCH_engine.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "workloads/spec.hpp"

using namespace gpuqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr Policy kPolicies[] = {
    Policy::Baseline, Policy::Throttle, Policy::ThrottleCpuPrio,
    Policy::Sms09,    Policy::Sms0,     Policy::DynPrio,
    Policy::Helm,     Policy::ForceBypass,
};
constexpr unsigned kJobs = 8;

struct Point {
  unsigned threads = 0;
  double seconds = 0.0;
  std::vector<double> fps;
};

Point run_at(const HeteroMix& m, const RunScale& scale, unsigned threads) {
  const SimConfig cfg = Presets::scaled();
  std::vector<std::function<double()>> work;
  for (Policy p : kPolicies) {
    work.push_back(
        [&cfg, &m, &scale, p] { return run_hetero(cfg, m, p, scale).fps; });
  }
  // Drive the worker count the way a user would: through GPUQOS_THREADS
  // (sweep_thread_count), not the explicit override.
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u", threads);
  setenv("GPUQOS_THREADS", buf, 1);
  Point pt;
  pt.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  pt.fps = run_many(std::move(work));
  pt.seconds = seconds_since(t0);
  return pt;
}

/// Insert (or replace) the named section as the last member of the
/// top-level object in `path`; creates a minimal file when absent. Sections
/// spliced by this harness always sit after perf_engine's, so replacing one
/// on a re-run means erasing from the preceding comma to its closing brace.
bool splice_section(const std::string& path, const std::string& key,
                    const std::string& section) {
  std::string body;
  {
    std::ifstream is(path);
    if (is) {
      std::ostringstream ss;
      ss << is.rdbuf();
      body = ss.str();
    }
  }
  std::size_t close = body.rfind('}');
  if (close == std::string::npos) {
    body = "{\n" + section + "}\n";
  } else {
    const std::size_t start = body.find("\"" + key + "\"");
    if (start != std::string::npos) {
      // Re-run without a fresh perf_engine: drop the old section first —
      // from the comma before the key through the section's own closing
      // brace (sections are written with a two-space-indented "  }").
      std::size_t from = body.rfind(',', start);
      if (from == std::string::npos) from = start;
      std::size_t end = body.find("\n  }", start);
      end = end == std::string::npos ? close : end + 4;
      body.erase(from, end - from);
      close = body.rfind('}');
    }
    body.insert(close, ",\n" + section);
  }
  std::ofstream os(path);
  os << body;
  return static_cast<bool>(os.flush());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_engine.json";
  cli::OptionSet opts("[--out FILE]", "Sweep-pool scaling harness (docs/PERFORMANCE.md); splices\ninto BENCH_engine.json written by perf_engine. GPUQOS_FAST=1\nshrinks budgets.");
  opts.str("--out", "FILE", "report destination (default BENCH_engine.json)",
           &out);
  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);
  if (!positional.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[0],
                 positional.front());
    return 2;
  }

  const char* fast_env = std::getenv("GPUQOS_FAST");
  const bool fast = fast_env != nullptr && std::strcmp(fast_env, "0") != 0;
  RunScale scale;
  scale.warm_instrs = 20'000;
  scale.measure_instrs = fast ? 50'000 : 200'000;
  scale.warm_frames = 1;
  scale.measure_frames = 1;
  scale.warm_min_cycles = 200'000;
  scale.max_cycles = 50'000'000;

  const HeteroMix& m = mix("M8");
  std::printf("sweep scaling harness (%s budgets): %u-job M8 policy sweep\n\n",
              fast ? "fast" : "full", kJobs);

  std::vector<Point> curve;
  for (unsigned t : {1u, 2u, 4u, 8u}) {
    curve.push_back(run_at(m, scale, t));
    const Point& pt = curve.back();
    const double speedup =
        pt.seconds > 0 ? curve.front().seconds / pt.seconds : 0.0;
    std::printf("  GPUQOS_THREADS=%u  %7.2fs  %5.2fx\n", pt.threads,
                pt.seconds, speedup);
    if (pt.fps != curve.front().fps) {
      std::fprintf(stderr,
                   "FAIL: pooled results at %u threads differ from serial\n",
                   pt.threads);
      return 1;
    }
  }

  std::ostringstream sec;
  sec << "  \"sweep_threads\": {\n    \"mix\": \"M8\", \"jobs\": " << kJobs
      << ", \"host_cores\": " << std::thread::hardware_concurrency()
      << ",\n    \"curve\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const Point& pt = curve[i];
    std::snprintf(buf, sizeof buf,
                  "      {\"threads\": %u, \"seconds\": %.3f, "
                  "\"speedup\": %.3f}%s\n",
                  pt.threads, pt.seconds,
                  pt.seconds > 0 ? curve.front().seconds / pt.seconds : 0.0,
                  i + 1 == curve.size() ? "" : ",");
    sec << buf;
  }
  sec << "    ],\n    \"results_identical_across_thread_counts\": true\n"
      << "  }\n";

  if (!splice_section(out, "sweep_threads", sec.str())) {
    std::fprintf(stderr, "cannot update %s\n", out.c_str());
    return 1;
  }
  std::printf("\nspliced \"sweep_threads\" into %s\n", out.c_str());
  return 0;
}
