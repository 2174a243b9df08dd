#include "svc/jobspec.hpp"

#include <cstdio>

#include "check/digest.hpp"
#include "workloads/gpu_apps.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"

namespace gpuqos::svc {
namespace {

/// Canonical double rendering: shortest round-trip form, so 40.0 -> "40" in
/// every process that ever hashes a spec.
std::string canon_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_scale(std::string& out, const RunScale& s) {
  out += ";wi=" + std::to_string(s.warm_instrs);
  out += ";mi=" + std::to_string(s.measure_instrs);
  out += ";wf=" + std::to_string(s.warm_frames);
  out += ";mf=" + std::to_string(s.measure_frames);
  out += ";wmc=" + std::to_string(s.warm_min_cycles);
  out += ";cap=" + std::to_string(s.max_cycles);
}

std::string canonical_impl(const JobSpec& spec, bool with_policy) {
  std::string out = "v1;kind=";
  out += to_string(spec.kind);
  out += ";preset=" + spec.preset;
  switch (spec.kind) {
    case JobKind::kHetero:
      out += ";mix=" + spec.mix_id;
      break;
    case JobKind::kCpuAlone:
      out += ";spec=" + std::to_string(spec.spec_id);
      break;
    case JobKind::kGpuAlone:
      out += ";app=" + spec.gpu_app;
      break;
  }
  if (with_policy && spec.kind == JobKind::kHetero) {
    out += ";policy=" + spec.policy;
  }
  out += ";seed=" + std::to_string(spec.seed);
  out += ";tfps=" + canon_f64(spec.target_fps);
  append_scale(out, spec.scale);
  return out;
}

}  // namespace

const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::kHetero: return "hetero";
    case JobKind::kCpuAlone: return "cpu_alone";
    case JobKind::kGpuAlone: return "gpu_alone";
  }
  return "?";
}

std::string canonical(const JobSpec& spec) {
  return canonical_impl(spec, /*with_policy=*/true);
}

std::string warm_canonical(const JobSpec& spec) {
  return "warm;" + canonical_impl(spec, /*with_policy=*/false);
}

std::uint64_t job_key(const JobSpec& spec) {
  Fnv1a64 h;
  h.mix_string(canonical(spec));
  return h.value();
}

std::string u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string job_key_hex(const JobSpec& spec) { return u64_hex(job_key(spec)); }

void validate(const JobSpec& spec) {
  if (spec.preset != "scaled" && spec.preset != "paper") {
    throw SpecError("job: unknown preset '" + spec.preset + "'");
  }
  if (spec.scale.max_cycles == 0) {
    throw SpecError("job: max_cycles must be nonzero");
  }
  switch (spec.kind) {
    case JobKind::kHetero: {
      Policy p;
      if (!policy_from_string(spec.policy, p)) {
        throw SpecError("job: unknown policy '" + spec.policy + "'");
      }
      try {
        (void)mix(spec.mix_id);
      } catch (const std::exception& e) {
        throw SpecError(std::string("job: ") + e.what());
      }
      break;
    }
    case JobKind::kGpuAlone:
      try {
        (void)gpu_app(spec.gpu_app);
      } catch (const std::exception& e) {
        throw SpecError(std::string("job: ") + e.what());
      }
      break;
    case JobKind::kCpuAlone:
      try {
        (void)spec_profile(spec.spec_id);
      } catch (const std::exception& e) {
        throw SpecError(std::string("job: ") + e.what());
      }
      break;
  }
}

SimConfig config_for(const JobSpec& spec) {
  SimConfig cfg = spec.preset == "paper" ? Presets::paper() : Presets::scaled();
  cfg.seed = spec.seed;
  cfg.qos.target_fps = spec.target_fps;
  if (spec.kind == JobKind::kCpuAlone) {
    cfg.cpu_cores = 1;
  } else if (spec.kind == JobKind::kHetero &&
             mix(spec.mix_id).cpu_specs.size() == 1) {
    cfg.cpu_cores = 1;  // W-mixes: the Section II one-core configuration
  }
  return cfg;
}

JobSpec hetero_job(const std::string& mix_id, const std::string& policy,
                   const RunScale& scale) {
  JobSpec spec;
  spec.kind = JobKind::kHetero;
  spec.mix_id = mix_id;
  spec.policy = policy;
  spec.scale = scale;
  return spec;
}

}  // namespace gpuqos::svc
