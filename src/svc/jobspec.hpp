// Canonical sweep-job description for the simulation service
// (docs/SERVICE.md). A JobSpec names one simulation — the same vocabulary the
// figure harnesses use (preset, mix, policy, RunScale budgets, seed, FPS
// target) — in a form that can act as a content address:
//
//  * canonical(spec)       — one-line key=value rendering with a fixed field
//    order; two specs describing the same simulation always canonicalize to
//    the same bytes, so FNV-1a over it is the dedup key.
//  * warm_canonical(spec)  — the same minus the policy: warm-up state is
//    policy-independent by construction (the executor always warms under
//    Policy::Baseline and forks, see exec.hpp), so jobs differing only in
//    policy share one warm checkpoint cache entry.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/runner.hpp"

namespace gpuqos::svc {

/// Malformed job content (unknown mix, bad policy, bad preset, zero cycle cap).
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class JobKind : std::uint8_t {
  kHetero,    // Table III mix under a policy (run_hetero)
  kCpuAlone,  // one SPEC application, GPU idle (standalone_cpu_ipc)
  kGpuAlone,  // one GPU application, CPUs idle (standalone_gpu)
};

[[nodiscard]] const char* to_string(JobKind k);

struct JobSpec {
  JobKind kind = JobKind::kHetero;
  std::string preset = "scaled";  // "scaled" | "paper" (SimConfig preset)
  std::string mix_id;             // kHetero: "M1".."W14"
  std::string gpu_app;            // kGpuAlone: Table II application name
  int spec_id = 0;                // kCpuAlone: SPEC application id
  std::string policy = "Baseline";  // kHetero only; validated on execution
  RunScale scale;                 // warm/measure budgets
  std::uint64_t seed = 42;
  double target_fps = 40.0;
};

/// Canonical one-line rendering (the dedup identity). Stable across
/// processes and versions; extend only by appending fields.
[[nodiscard]] std::string canonical(const JobSpec& spec);

/// canonical() minus the policy field: the warm-checkpoint cache key.
[[nodiscard]] std::string warm_canonical(const JobSpec& spec);

/// FNV-1a64 of canonical(spec) — the content address in the result store.
[[nodiscard]] std::uint64_t job_key(const JobSpec& spec);
/// `v` as 16 lowercase hex digits (job keys, result digests).
[[nodiscard]] std::string u64_hex(std::uint64_t v);
/// job_key as 16 hex digits (store file names, log lines).
[[nodiscard]] std::string job_key_hex(const JobSpec& spec);

/// Throws SpecError when the spec names an unknown mix/app/policy/preset or
/// carries empty budgets that would hang the simulator.
void validate(const JobSpec& spec);

/// SimConfig the job runs under (preset + seed + FPS target + core count).
[[nodiscard]] SimConfig config_for(const JobSpec& spec);

/// Convenience builder for the common hetero case.
[[nodiscard]] JobSpec hetero_job(const std::string& mix_id,
                                 const std::string& policy,
                                 const RunScale& scale);

}  // namespace gpuqos::svc
