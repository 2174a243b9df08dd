// Simulation-service performance harness (docs/SERVICE.md). Two claims,
// written as BENCH_serve.json and gated at exit:
//
//   1. warm_cache — a 4-policy M8 sweep submitted as one batch shares one
//      warm snapshot (1 cold + 3 warm forks); the same four jobs submitted
//      as isolated single-job batches on fresh executors each pay the full
//      warm-up. The batched path must be >= --min-speedup faster (1.5x by
//      default; 0 disables the gate). Both sides run single-threaded so the
//      ratio measures the cache, not the pool. Budgets are the harness's
//      own (deep warm-up, short measured window — the regime the warm cache
//      targets; GPUQOS_FAST's shrunken warm-up would understate it).
//   2. dedup — resubmitting the identical batch against the persistent
//      result store must be 100% store hits, simulate nothing, and return
//      byte-identical result containers.
//
// GPUQOS_FAST=1 shrinks the budgets for CI smoke runs. Usage:
//   perf_serve [--out BENCH_serve.json] [--min-speedup X]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "sim/runner.hpp"
#include "svc/exec.hpp"
#include "svc/jobspec.hpp"

using namespace gpuqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<svc::JobSpec> sweep_jobs(const RunScale& scale) {
  std::vector<svc::JobSpec> jobs;
  for (Policy p : {Policy::Baseline, Policy::Throttle, Policy::ThrottleCpuPrio,
                   Policy::DynPrio}) {
    jobs.push_back(svc::hetero_job("M8", to_string(p), scale));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_serve.json";
  std::string store_dir = "perf_serve_store";
  double min_speedup = 1.5;

  cli::OptionSet opts(
      "[--out FILE] [--min-speedup X]",
      "times a 4-policy M8 sweep through the service executor: batched "
      "(shared warm cache)\nvs isolated cold runs, then proves store-dedup "
      "resubmission is simulation-free");
  opts.str("--out", "FILE", "report destination (default BENCH_serve.json)",
           &out);
  opts.str("--store-dir", "DIR",
           "scratch result store for the dedup phase (wiped at start)",
           &store_dir);
  opts.f64("--min-speedup", "X",
           "exit 1 when the batched path is less than X times faster "
           "(default 1.5; 0 = report only)", &min_speedup);
  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);
  if (!positional.empty()) {
    opts.print_help(stderr, argv[0]);
    return 2;
  }

  const char* fast_env = std::getenv("GPUQOS_FAST");
  const bool fast = fast_env != nullptr && std::strcmp(fast_env, "0") != 0;
  RunScale scale;
  scale.warm_instrs = fast ? 50'000 : 200'000;
  scale.warm_frames = fast ? 2 : 4;
  scale.warm_min_cycles = fast ? 4'000'000 : 12'000'000;
  scale.measure_instrs = fast ? 100'000 : 300'000;
  scale.measure_frames = 1;
  scale.max_cycles = 100'000'000;
  const std::vector<svc::JobSpec> jobs = sweep_jobs(scale);
  std::printf("service perf harness: mix M8, %zu policies\n\n", jobs.size());

  // --- 1. Cold reference: each job on its own executor pays the warm-up.
  svc::ExecOptions solo;
  solo.threads = 1;
  const auto t_cold = std::chrono::steady_clock::now();
  std::vector<svc::JobResult> cold;
  for (const svc::JobSpec& job : jobs) {
    svc::Executor exec(solo);
    cold.push_back(exec.run_batch({job}).front());
  }
  const double cold_s = seconds_since(t_cold);

  // --- Warm-cache batch: one executor, one batch, one shared warm-up.
  svc::Executor batch_exec(solo);
  svc::BatchStats warm_stats;
  const auto t_warm = std::chrono::steady_clock::now();
  const std::vector<svc::JobResult> warm =
      batch_exec.run_batch(jobs, {}, &warm_stats);
  const double warm_s = seconds_since(t_warm);
  const double speedup = warm_s > 0 ? cold_s / warm_s : 0.0;

  bool warm_identical = true;
  std::printf("%-14s %12s %12s %10s\n", "policy", "cold FPS", "batched FPS",
              "source");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::printf("%-14s %12.1f %12.1f %10s\n", jobs[i].policy.c_str(),
                cold[i].result.fps, warm[i].result.fps,
                svc::to_string(warm[i].source));
    if (warm[i].bytes != cold[i].bytes) warm_identical = false;
  }
  std::printf("\nisolated %.2fs, batched %.2fs (%.2fx, %llu warm forks)\n",
              cold_s, warm_s, speedup,
              static_cast<unsigned long long>(warm_stats.warm_forks));
  if (!warm_identical) {
    std::fprintf(stderr,
                 "FAIL: batched results differ from isolated cold runs\n");
    return 1;
  }

  // --- 2. Dedup: identical resubmission against the store must not
  // simulate and must return the same bytes.
  std::filesystem::remove_all(store_dir);
  svc::ExecOptions stored = solo;
  stored.store_dir = store_dir;
  svc::Executor store_exec(stored);
  const std::vector<svc::JobResult> first = store_exec.run_batch(jobs);
  const std::uint64_t sims_before = store_exec.sim_runs();
  svc::BatchStats dedup_stats;
  const std::vector<svc::JobResult> second =
      store_exec.run_batch(jobs, {}, &dedup_stats);
  const std::uint64_t sims_delta = store_exec.sim_runs() - sims_before;

  bool dedup_identical = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (second[i].bytes != first[i].bytes) dedup_identical = false;
  }
  std::printf(
      "resubmission: %llu/%zu store hits, %llu simulations, "
      "byte-identical: %s\n",
      static_cast<unsigned long long>(dedup_stats.store_hits), jobs.size(),
      static_cast<unsigned long long>(sims_delta),
      dedup_identical ? "yes" : "NO");
  if (dedup_stats.store_hits != jobs.size() || sims_delta != 0 ||
      !dedup_identical) {
    std::fprintf(stderr, "FAIL: store resubmission was not a pure replay\n");
    return 1;
  }

  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  char buf[512];
  os << "{\n  \"mix\": \"M8\",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "    {\"policy\": \"%s\", \"fps\": %.2f, \"source\": "
                  "\"%s\", \"digest\": \"%s\"}%s\n",
                  jobs[i].policy.c_str(), warm[i].result.fps,
                  svc::to_string(warm[i].source),
                  svc::u64_hex(warm[i].digest).c_str(),
                  i + 1 == jobs.size() ? "" : ",");
    os << buf;
  }
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"cold_seconds\": %.3f,\n  \"batched_seconds\": "
                "%.3f,\n  \"speedup\": %.3f,\n  \"warm_forks\": %llu,\n"
                "  \"resubmit_store_hits\": %llu,\n"
                "  \"resubmit_simulations\": %llu,\n"
                "  \"resubmit_byte_identical\": %s\n}\n",
                cold_s, warm_s, speedup,
                static_cast<unsigned long long>(warm_stats.warm_forks),
                static_cast<unsigned long long>(dedup_stats.store_hits),
                static_cast<unsigned long long>(sims_delta),
                dedup_identical ? "true" : "false");
  os << buf;
  os.flush();
  if (!os) {
    std::fprintf(stderr, "short write to %s (disk full?)\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: batched speedup %.2fx below gate %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
