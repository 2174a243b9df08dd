#include "svc/exec.hpp"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "ckpt/snapshot.hpp"
#include "sim/sweep.hpp"
#include "svc/result_io.hpp"
#include "workloads/gpu_apps.hpp"
#include "workloads/mixes.hpp"

namespace gpuqos::svc {

const char* to_string(JobSource s) {
  switch (s) {
    case JobSource::kStore: return "store";
    case JobSource::kWarmFork: return "warm-fork";
    case JobSource::kCold: return "cold";
  }
  return "?";
}

Executor::Executor(const ExecOptions& opts)
    : opts_(opts), store_(opts.store_dir), warm_cache_(opts.warm_cache_max) {}

JobResult Executor::run_one(const JobSpec& spec) {
  JobResult out;
  out.spec = spec;
  if (auto cached = store_.get(spec)) {
    out.bytes = std::move(*cached);
    out.result = decode_result(spec, out.bytes);
    out.digest = result_digest(out.bytes);
    out.source = JobSource::kStore;
    return out;
  }

  const SimConfig cfg = config_for(spec);
  switch (spec.kind) {
    case JobKind::kHetero: {
      Policy policy = Policy::Baseline;
      (void)policy_from_string(spec.policy, policy);  // run_batch validated it
      const HeteroMix& m = mix(spec.mix_id);
      // Warm once under Baseline (policy-independent by kFork's contract),
      // fork the measured phase under the requested policy. `built` tells us
      // whether this call paid for the warm-up or found it cached.
      bool built = false;
      auto warm = warm_cache_.get_or_build(warm_canonical(spec), [&] {
        built = true;
        return warm_hetero_snapshot(cfg, m, Policy::Baseline, spec.scale);
      });
      RunHooks hooks;
      hooks.resume_data = warm.get();
      hooks.resume_mode = ckpt::RestoreMode::kFork;
      out.result = run_hetero(cfg, m, policy, spec.scale, hooks);
      sim_runs_.fetch_add(1, std::memory_order_relaxed);
      out.source = built ? JobSource::kCold : JobSource::kWarmFork;
      break;
    }
    case JobKind::kCpuAlone: {
      const double ipc = standalone_cpu_ipc(cfg, spec.spec_id, spec.scale);
      out.result.spec_ids = {spec.spec_id};
      out.result.cpu_ipc = {ipc};
      sim_runs_.fetch_add(1, std::memory_order_relaxed);
      out.source = JobSource::kCold;
      break;
    }
    case JobKind::kGpuAlone: {
      out.result = standalone_gpu(cfg, gpu_app(spec.gpu_app), spec.scale);
      sim_runs_.fetch_add(1, std::memory_order_relaxed);
      out.source = JobSource::kCold;
      break;
    }
  }

  out.bytes = encode_result(spec, out.result);
  out.digest = result_digest(out.bytes);
  store_.put(spec, out.bytes);
  return out;
}

std::vector<JobResult> Executor::run_batch(const std::vector<JobSpec>& jobs,
                                           const Progress& progress,
                                           BatchStats* stats) {
  for (const JobSpec& spec : jobs) validate(spec);
  const std::size_t n = jobs.size();

  // In-batch dedup: exact duplicate specs (same canonical line) simulate
  // once; the copies are scattered back after the pool drains.
  std::unordered_map<std::string, std::size_t> first_of;  // canonical -> slot
  std::vector<std::size_t> unique_jobs;  // indexes into `jobs`
  std::vector<std::size_t> slot_of(n);   // jobs[i] -> index into unique_jobs
  for (std::size_t i = 0; i < n; ++i) {
    auto [it, inserted] = first_of.emplace(canonical(jobs[i]), unique_jobs.size());
    if (inserted) unique_jobs.push_back(i);
    slot_of[i] = it->second;
  }

  std::mutex progress_mu;
  std::size_t done = 0;
  std::vector<std::function<JobResult()>> thunks;
  thunks.reserve(unique_jobs.size());
  for (std::size_t u : unique_jobs) {
    thunks.push_back([this, &jobs, &progress, &progress_mu, &done, n, u] {
      JobResult r = run_one(jobs[u]);
      if (progress) {
        std::lock_guard<std::mutex> lock(progress_mu);
        progress(++done, n, r);
      }
      return r;
    });
  }

  std::vector<JobResult> unique = run_many(std::move(thunks), opts_.threads);

  std::vector<JobResult> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_owner = unique_jobs[slot_of[i]] == i;
    out.push_back(unique[slot_of[i]]);  // copy; owners could move, dups can't
    if (!is_owner && progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      progress(++done, n, out.back());
    }
  }

  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->jobs = n;
    stats->dup_jobs = n - unique.size();
    for (const JobResult& r : unique) {
      switch (r.source) {
        case JobSource::kStore: ++stats->store_hits; break;
        case JobSource::kWarmFork: ++stats->warm_forks; break;
        case JobSource::kCold: ++stats->cold_runs; break;
      }
    }
  }
  return out;
}

}  // namespace gpuqos::svc
