// Batch executor: the one way to run, dedup and resume a sweep
// (docs/SERVICE.md). The figure harnesses and the benchmarks submit their
// JobSpecs here.
//
// Per job: consult the persistent ResultStore (content address = job_key);
// on a miss, simulate and store. Hetero jobs always execute warm-then-fork —
// warm up under Policy::Baseline, drain, snapshot (shared via WarmCache
// across every policy of the same mix/scale/seed), then fork the measured
// phase under the requested policy. Always forking, even on a cold warm
// cache, keeps results canonical: a cold run, a warm-cache hit, and a store
// hit (including a resubmission after the process was killed) all produce
// byte-identical result containers.
// Standalone jobs (kCpuAlone/kGpuAlone) have no warm phase to share and run
// whole.
//
// Batches run on sim::run_many (GPUQOS_THREADS pool); results keep job
// order. Exact duplicate specs within a batch simulate once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "svc/jobspec.hpp"
#include "svc/store.hpp"
#include "svc/warm_cache.hpp"

namespace gpuqos::svc {

struct ExecOptions {
  /// Result-store directory ("" = no persistence).
  std::string store_dir;
  /// Warm-cache bound in bytes (0 = unbounded).
  std::uint64_t warm_cache_max = 256ull << 20;
  /// Worker threads for run_many (0 = auto / GPUQOS_THREADS).
  unsigned threads = 0;
};

/// How a finished job's bytes were obtained.
enum class JobSource : std::uint8_t {
  kStore,     // persistent store hit — zero simulation
  kWarmFork,  // warm snapshot was cached — only the measured phase ran
  kCold,      // full run (warm-up + measure, or a standalone job)
};

[[nodiscard]] const char* to_string(JobSource s);

struct JobResult {
  JobSpec spec;
  HeteroResult result;
  std::vector<std::uint8_t> bytes;  // encoded result container (result_io)
  std::uint64_t digest = 0;         // result_digest(bytes)
  JobSource source = JobSource::kCold;
};

/// Per-batch execution summary.
struct BatchStats {
  std::uint64_t jobs = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t warm_forks = 0;  // measured-phase-only simulations
  std::uint64_t cold_runs = 0;
  std::uint64_t dup_jobs = 0;  // in-batch duplicates served by copy
};

class Executor {
 public:
  explicit Executor(const ExecOptions& opts);

  /// Called as each job finishes, in completion order, serialized by an
  /// internal mutex (safe to write stdout from it).
  using Progress =
      std::function<void(std::size_t done, std::size_t total, const JobResult&)>;

  /// Execute a batch; results[i] corresponds to jobs[i]. Every spec is
  /// validated before any job starts (an invalid one throws SpecError and
  /// nothing runs); execution errors propagate as the first job's exception
  /// after the pool drains (run_many semantics).
  [[nodiscard]] std::vector<JobResult> run_batch(
      const std::vector<JobSpec>& jobs, const Progress& progress = {},
      BatchStats* stats = nullptr);

  /// Simulations run across every batch (store hits and duplicates excluded).
  [[nodiscard]] std::uint64_t sim_runs() const { return sim_runs_.load(); }

 private:
  [[nodiscard]] JobResult run_one(const JobSpec& spec);

  ExecOptions opts_;
  ResultStore store_;
  WarmCache warm_cache_;
  std::atomic<std::uint64_t> sim_runs_{0};
};

}  // namespace gpuqos::svc
