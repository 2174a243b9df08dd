#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "svc/exec.hpp"
#include "svc/jobspec.hpp"

namespace gpuqos::bench {
namespace {

std::string default_store_dir() {
  const char* env = std::getenv("GPUQOS_BENCH_CACHE");
  return env != nullptr ? env : "gpuqos_bench_cache";
}

/// Executor settings; init_harness fills them from the command line.
svc::ExecOptions g_exec_options;

/// Process-wide executor. Built on first use from whatever init_harness
/// parsed (or the defaults when a harness never called it).
svc::Executor& executor() {
  static svc::Executor e([] {
    svc::ExecOptions opts = g_exec_options;
    if (opts.store_dir.empty()) opts.store_dir = default_store_dir();
    return opts;
  }());
  return e;
}

svc::JobSpec job_base(const SimConfig& cfg) {
  // Every harness configuration is Presets::scaled() (the §II one-core setup
  // is the single-spec W-mix case, which config_for reproduces).
  svc::JobSpec spec;
  spec.preset = "scaled";
  spec.seed = cfg.seed;
  spec.target_fps = cfg.qos.target_fps;
  return spec;
}

svc::JobSpec hetero_spec(const SimConfig& cfg, const HeteroMix& mix,
                         Policy policy, const RunScale& scale) {
  svc::JobSpec spec = job_base(cfg);
  spec.kind = svc::JobKind::kHetero;
  spec.mix_id = mix.id;
  spec.policy = to_string(policy);
  spec.scale = scale;
  return spec;
}

svc::JobSpec cpu_alone_spec(const SimConfig& cfg, int spec_id,
                            const RunScale& scale) {
  svc::JobSpec spec = job_base(cfg);
  spec.kind = svc::JobKind::kCpuAlone;
  spec.spec_id = spec_id;
  spec.scale = scale;
  return spec;
}

svc::JobSpec gpu_alone_spec(const SimConfig& cfg, const GpuAppDesc& app,
                            const RunScale& scale) {
  svc::JobSpec spec = job_base(cfg);
  spec.kind = svc::JobKind::kGpuAlone;
  spec.gpu_app = app.name;
  spec.scale = scale;
  return spec;
}

HeteroResult submit_one(const svc::JobSpec& spec) {
  return executor().run_batch({spec}).front().result;
}

void submit_all(std::vector<svc::JobSpec> jobs) {
  if (jobs.empty()) return;
  (void)executor().run_batch(jobs);
}

}  // namespace

void init_harness(int argc, char** argv, const char* what) {
  cli::OptionSet opts("[--store-dir DIR] [--flags...]", what);
  g_exec_options.store_dir = default_store_dir();
  opts.str("--store-dir", "DIR",
           "persistent result store directory (default: $GPUQOS_BENCH_CACHE, "
           "else ./gpuqos_bench_cache)",
           &g_exec_options.store_dir);
  opts.u64("--warm-cache-max", "BYTES",
           "warm checkpoint cache bound in bytes (0 = unbounded)",
           &g_exec_options.warm_cache_max);
  opts.u32("--threads", "N",
           "executor worker threads (0 = auto / GPUQOS_THREADS)",
           &g_exec_options.threads);

  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);
  if (!positional.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[0],
                 positional.front());
    std::exit(2);
  }
}

RunScale bench_scale() { return RunScale::from_env(); }

SimConfig one_core_config() {
  SimConfig cfg = Presets::scaled();
  cfg.cpu_cores = 1;
  return cfg;
}

SimConfig four_core_config() { return Presets::scaled(); }

HeteroResult cached_hetero(const SimConfig& cfg, const HeteroMix& mix,
                           Policy policy, const RunScale& scale) {
  return submit_one(hetero_spec(cfg, mix, policy, scale));
}

HeteroResult cached_gpu_alone(const SimConfig& cfg, const GpuAppDesc& app,
                              const RunScale& scale) {
  return submit_one(gpu_alone_spec(cfg, app, scale));
}

double cached_cpu_alone(const SimConfig& cfg, int spec_id,
                        const RunScale& scale) {
  const HeteroResult r = submit_one(cpu_alone_spec(cfg, spec_id, scale));
  return r.cpu_ipc.empty() ? 0.0 : r.cpu_ipc[0];
}

std::vector<double> cached_alone_ipcs(const SimConfig& cfg,
                                      const HeteroMix& mix,
                                      const RunScale& scale) {
  std::vector<svc::JobSpec> jobs;
  jobs.reserve(mix.cpu_specs.size());
  for (int id : mix.cpu_specs) jobs.push_back(cpu_alone_spec(cfg, id, scale));
  const std::vector<svc::JobResult> results = executor().run_batch(jobs);
  std::vector<double> out;
  out.reserve(results.size());
  for (const svc::JobResult& r : results) {
    out.push_back(r.result.cpu_ipc.empty() ? 0.0 : r.result.cpu_ipc[0]);
  }
  return out;
}

void prefetch_hetero(const SimConfig& cfg, const std::vector<HeteroMix>& mixes,
                     const std::vector<Policy>& policies,
                     const RunScale& scale) {
  std::vector<svc::JobSpec> jobs;
  jobs.reserve(mixes.size() * policies.size());
  for (const HeteroMix& mix : mixes) {
    for (Policy policy : policies) {
      jobs.push_back(hetero_spec(cfg, mix, policy, scale));
    }
  }
  submit_all(std::move(jobs));
}

void prefetch_alone_ipcs(const SimConfig& cfg,
                         const std::vector<HeteroMix>& mixes,
                         const RunScale& scale) {
  std::vector<svc::JobSpec> jobs;
  for (const HeteroMix& mix : mixes) {
    for (int id : mix.cpu_specs) jobs.push_back(cpu_alone_spec(cfg, id, scale));
  }
  submit_all(std::move(jobs));
}

void prefetch_gpu_alone(const SimConfig& cfg,
                        const std::vector<HeteroMix>& mixes,
                        const RunScale& scale) {
  std::vector<svc::JobSpec> jobs;
  for (const HeteroMix& mix : mixes) {
    jobs.push_back(gpu_alone_spec(cfg, gpu_app(mix.gpu_app), scale));
  }
  submit_all(std::move(jobs));
}

void print_header(const std::string& title, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("==============================================================\n");
}

void print_geomean_row(const char* label, const std::vector<double>& values) {
  std::printf("%-16s %8.3f\n", label, geomean(values));
}

}  // namespace gpuqos::bench
