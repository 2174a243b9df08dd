// Shared plumbing for the per-figure benchmark harnesses.
//
// Several figures are computed from the same simulations (e.g. Figures 9-11
// all need the throttled runs of the six high-FPS mixes), so every cached_*
// helper submits its jobs to one process-wide svc::Executor (svc/exec.hpp):
// jobs are memoized in the content-addressed result store under
// ./gpuqos_bench_cache (override with GPUQOS_BENCH_CACHE or --store-dir),
// and hetero jobs that share a mix fork from one warm snapshot instead of
// re-simulating the warm-up. A killed harness resumes from the store: jobs
// that finished before the kill are read back, not re-simulated. Several
// harnesses may share one store directory. Delete the cache directory after
// changing simulator code.
//
// The prefetch_* helpers submit a whole batch of runs up front, so a harness
// adds one call and its existing serial cached_* loops then hit the store.
#pragma once

#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/runner.hpp"

namespace gpuqos::bench {

/// Parse the shared harness flags (--store-dir, --warm-cache-max, --threads,
/// --help) and install them for the process-wide executor.
/// Call it first in main(); bad flags exit(2), --help exits(0). Harnesses
/// take no positional arguments.
void init_harness(int argc, char** argv, const char* what);

/// RunScale used by every figure harness; honours GPUQOS_FAST.
[[nodiscard]] RunScale bench_scale();

/// Memoized heterogeneous run.
[[nodiscard]] HeteroResult cached_hetero(const SimConfig& cfg,
                                         const HeteroMix& mix, Policy policy,
                                         const RunScale& scale);

/// Memoized standalone GPU run.
[[nodiscard]] HeteroResult cached_gpu_alone(const SimConfig& cfg,
                                            const GpuAppDesc& app,
                                            const RunScale& scale);

/// Memoized standalone CPU IPC (always the one-core configuration).
[[nodiscard]] double cached_cpu_alone(const SimConfig& cfg, int spec_id,
                                      const RunScale& scale);

/// Standalone IPCs for every CPU application of a mix (memoized per app).
[[nodiscard]] std::vector<double> cached_alone_ipcs(const SimConfig& cfg,
                                                    const HeteroMix& mix,
                                                    const RunScale& scale);

/// Run every (mix, policy) heterogeneous job as one executor batch;
/// duplicates dedupe in-batch, jobs sharing a mix share one warm snapshot,
/// and jobs already in the store cost one file read.
void prefetch_hetero(const SimConfig& cfg, const std::vector<HeteroMix>& mixes,
                     const std::vector<Policy>& policies,
                     const RunScale& scale);

/// Warm the store for the standalone-CPU IPCs of every listed mix (the
/// one-core runs behind cached_alone_ipcs), deduped across mixes.
void prefetch_alone_ipcs(const SimConfig& cfg,
                         const std::vector<HeteroMix>& mixes,
                         const RunScale& scale);

/// Warm the store for the standalone-GPU run of every listed mix's GPU
/// application, deduped across mixes sharing an application.
void prefetch_gpu_alone(const SimConfig& cfg,
                        const std::vector<HeteroMix>& mixes,
                        const RunScale& scale);

/// Section II configuration: one CPU core plus the GPU.
[[nodiscard]] SimConfig one_core_config();
/// Section VI configuration: four CPU cores plus the GPU.
[[nodiscard]] SimConfig four_core_config();

void print_header(const std::string& title, const std::string& what);
void print_geomean_row(const char* label, const std::vector<double>& values);

}  // namespace gpuqos::bench
