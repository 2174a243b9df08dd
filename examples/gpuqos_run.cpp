// Command-line driver: run any Table III mix under any policy and print the
// full result (FPS, per-app IPC, weighted speedup vs standalone, key memory
// system statistics). The --trace-out/--stats-json/--sample-interval family
// of flags switches on the observability layer (docs/OBSERVABILITY.md); the
// --ckpt-out/--resume/--ckpt-interval family drives the checkpoint/restore
// subsystem (docs/CHECKPOINT.md). Flags are declared in a cli::OptionSet, so
// --help is generated from the same table that parses them. Batch sweeps
// with a result store go through svc::Executor instead (docs/SERVICE.md).
//
// Usage:
//   gpuqos_run [mix] [policy] [target_fps] [--flags...]
//   gpuqos_run M7 ThrotCPUprio 40
//   gpuqos_run M8 ThrotCPUprio --ckpt-interval 2000000 --ckpt-out m8.snap
//   gpuqos_run M8 ThrotCPUprio --resume m8.snap
// Policies: Baseline Throttled ThrotCPUprio SMS-0.9 SMS-0 DynPrio HeLM
//           ForceBypass
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/context.hpp"
#include "ckpt/state_io.hpp"
#include "common/cli.hpp"
#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace gpuqos;

namespace {

/// Open `path` and run `emit(os)`; returns false (with a message) on failure.
/// The stream state is re-checked after the emit + flush, so a full disk or
/// revoked permission surfaces instead of silently truncating the artifact.
template <typename Emit>
bool write_file(const std::string& path, Emit emit) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  emit(os);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "short write to %s (disk full?)\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out, stats_json_out, samples_out, journal_out;
  std::string prof_out, counters_out;
  std::string digest_out, ckpt_out, resume_path;
  std::uint64_t sample_interval = 0;
  std::uint64_t check_interval = 0;
  std::uint64_t digest_interval = 0;
  std::uint64_t ckpt_interval = 0;
  bool want_check = false;
  unsigned pool_jobs = 1;

  cli::OptionSet opts(
      "[mix M1..M14|W1..W14] [policy] [target_fps] [--flags...]",
      "policies: Baseline Throttled ThrotCPUprio SMS-0.9 SMS-0 "
      "DynPrio HeLM ForceBypass\n"
      "docs: OBSERVABILITY.md (trace/stats/samples/journal), ANALYSIS.md "
      "(check/digest),\n      CHECKPOINT.md (ckpt/resume)");
  opts.str("--trace-out", "FILE", "Chrome trace-event JSON (load in Perfetto)",
           &trace_out);
  opts.str("--stats-json", "FILE",
           "end-of-run StatRegistry + latency histograms", &stats_json_out);
  opts.u64("--sample-interval", "CYCLES",
           "interval sampler period in base cycles", &sample_interval);
  opts.str("--samples-out", "FILE",
           "sampler time-series (.jsonl, default samples.jsonl; needs "
           "--sample-interval)", &samples_out);
  opts.str("--journal-out", "FILE",
           "QoS decision journal (.jsonl, default qos_journal.jsonl)",
           &journal_out);
  opts.str("--prof-out", "FILE",
           "host-time attribution profile (JSON; table also printed)",
           &prof_out);
  opts.str("--counters-out", "FILE",
           "activity-counter export (JSON, stable schema)", &counters_out);
  opts.flag("--check", "run the invariant auditors during the simulation",
            &want_check);
  opts.u64("--check-interval", "CYCLES",
           "audit period in base cycles (default 100000; implies --check)",
           &check_interval);
  opts.str("--digest-out", "FILE",
           "per-module determinism digest stream (tools/digest_diff)",
           &digest_out);
  opts.u64("--digest-interval", "CYCLES",
           "digest sampling period in base cycles (default 100000)",
           &digest_interval);
  opts.u32("--pool", "N",
           "run N identical copies through the parallel sweep pool and "
           "assert their digest streams agree", &pool_jobs);
  opts.str("--ckpt-out", "PATH",
           "write a snapshot here at every --ckpt-interval barrier (or once "
           "at warm-up end when no interval is set)", &ckpt_out);
  opts.u64("--ckpt-interval", "CYCLES",
           "drain-barrier period in base cycles; each barrier overwrites "
           "--ckpt-out with the latest resume point", &ckpt_interval);
  opts.str("--resume", "PATH",
           "restore from a snapshot and continue the run it came from",
           &resume_path);

  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);

  // Without an interval the sampler never ticks, so --samples-out alone
  // would write an empty series; refuse it before anything simulates.
  if (!samples_out.empty() && sample_interval == 0) {
    std::fprintf(stderr, "--samples-out needs --sample-interval\n");
    return 2;
  }
  const bool want_profile = !prof_out.empty();
  const bool want_telemetry = !trace_out.empty() || !stats_json_out.empty() ||
                              sample_interval > 0 || !journal_out.empty() ||
                              want_profile || !counters_out.empty();
  if (sample_interval > 0 && samples_out.empty()) samples_out = "samples.jsonl";
  if (want_telemetry && journal_out.empty()) journal_out = "qos_journal.jsonl";
  if (check_interval > 0) want_check = true;

  // Default to a mix whose GPU comfortably exceeds the target frame rate so
  // the throttle/priority machinery (and its trace spans) actually engages.
  const char* mix_name = positional.size() > 0 ? positional[0] : "M8";
  const char* policy_name =
      positional.size() > 1 ? positional[1] : "ThrotCPUprio";
  Policy policy;
  if (!policy_from_string(policy_name, policy)) {
    std::fprintf(stderr, "unknown policy: %s\n", policy_name);
    return 2;
  }

  SimConfig cfg = Presets::scaled();
  if (positional.size() > 2) {
    double fps = 0.0;
    if (!cli::parse_f64(positional[2], fps) || fps <= 0) {
      std::fprintf(stderr, "invalid target_fps: %s\n", positional[2]);
      return 2;
    }
    cfg.qos.target_fps = fps;
  }

  const HeteroMix* m;
  try {
    m = &mix(mix_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (m->cpu_specs.size() == 1) cfg.cpu_cores = 1;

  const RunScale scale = RunScale::from_env();
  std::printf("mix %s: GPU=%s, CPUs={", m->id.c_str(), m->gpu_app.c_str());
  for (int id : m->cpu_specs) std::printf(" %d", id);
  std::printf(" }, policy=%s, target=%.0f FPS\n\n", to_string(policy).c_str(),
              cfg.qos.target_fps);

  std::unique_ptr<Telemetry> telemetry;
  if (want_telemetry) {
    TelemetryOptions topts;
    topts.sample_interval = sample_interval;
    topts.capture_trace = !trace_out.empty();
    topts.capture_profile = want_profile;
    telemetry = std::make_unique<Telemetry>(topts);
  }

  CheckOptions copts;
  const bool with_check = want_check || !digest_out.empty();
  if (with_check) {
    if (check_interval > 0) {
      copts.audit_interval = check_interval;
    } else if (!want_check) {
      copts.audit_interval = 0;  // --digest-out alone: digests only
    }
    if (!digest_out.empty()) {
      copts.digest_interval = digest_interval > 0 ? digest_interval : 100'000;
    }
  }
  if (pool_jobs > 1 && want_telemetry) {
    std::fprintf(stderr, "--pool cannot be combined with telemetry flags\n");
    return 2;
  }
  if (pool_jobs > 1 &&
      (!ckpt_out.empty() || !resume_path.empty() || ckpt_interval > 0)) {
    std::fprintf(stderr, "--pool cannot be combined with checkpoint flags\n");
    return 2;
  }
  const std::vector<double> alone = standalone_ipcs(cfg, *m, scale);

  std::unique_ptr<CheckContext> check;
  if (with_check && pool_jobs == 1) check = std::make_unique<CheckContext>(copts);

  HeteroResult r;
  if (pool_jobs == 1) {
    RunHooks hooks;
    hooks.telemetry = telemetry.get();
    hooks.check = check.get();
    hooks.resume_path = resume_path;
    hooks.ckpt_out = ckpt_out;
    hooks.ckpt_interval = ckpt_interval;
    try {
      r = run_hetero(cfg, *m, policy, scale, hooks);
    } catch (const ckpt::CkptError& e) {
      std::fprintf(stderr, "checkpoint error: %s\n", e.what());
      return 1;
    }
  } else {
    // Pooled mode: N identical copies of this configuration run concurrently
    // through run_many (worker count from GPUQOS_THREADS). Every job carries
    // its own CheckContext; all digest streams must agree with job 0, which
    // becomes the reported run. tests/sweep_determinism_test.sh diffs this
    // against a serial run with tools/digest_diff.
    std::vector<std::unique_ptr<CheckContext>> checks;
    std::vector<std::function<HeteroResult()>> jobs;
    for (unsigned j = 0; j < pool_jobs; ++j) {
      checks.push_back(with_check ? std::make_unique<CheckContext>(copts)
                                  : nullptr);
      CheckContext* c = checks.back().get();
      jobs.push_back(
          [&cfg, m, policy, &scale, c] {
            RunHooks hooks;
            hooks.check = c;
            return run_hetero(cfg, *m, policy, scale, hooks);
          });
    }
    std::vector<HeteroResult> results = run_many(std::move(jobs));
    if (with_check) {
      const auto stream = [](const CheckContext& c) {
        std::ostringstream os;
        c.write_digests(os);
        return os.str();
      };
      const std::string want = stream(*checks[0]);
      for (unsigned j = 1; j < pool_jobs; ++j) {
        if (stream(*checks[j]) != want) {
          std::fprintf(stderr,
                       "pool job %u produced a digest stream diverging from "
                       "job 0 — pooled execution is not deterministic\n", j);
          return 1;
        }
      }
      std::printf("pool: %u jobs, digest streams identical\n\n", pool_jobs);
    }
    r = results[0];
    check = std::move(checks[0]);
  }

  std::printf("GPU: %.1f FPS (%.0f GPU cycles/frame)%s\n", r.fps,
              r.gpu_frame_cycles, r.hit_cycle_cap ? "  [hit cycle cap]" : "");
  std::printf("estimator: %llu samples, mean error %.2f%%, %llu relearns\n",
              static_cast<unsigned long long>(r.est_samples), r.est_error_pct,
              static_cast<unsigned long long>(r.est_relearns));
  std::printf("\n%-8s %12s %12s %10s\n", "core", "hetero IPC", "alone IPC",
              "ratio");
  for (std::size_t i = 0; i < r.cpu_ipc.size(); ++i) {
    std::printf("%d%-7s %12.3f %12.3f %10.3f\n", m->cpu_specs[i], "",
                r.cpu_ipc[i], alone[i],
                alone[i] > 0 ? r.cpu_ipc[i] / alone[i] : 0.0);
  }
  std::printf("weighted speedup: %.3f (of %zu)\n",
              weighted_speedup(r.cpu_ipc, alone), r.cpu_ipc.size());

  std::printf("\nmemory system (measurement window):\n");
  for (const char* key :
       {"llc.access.cpu", "llc.miss.cpu", "llc.access.gpu", "llc.miss.gpu",
        "dram.read_bytes.cpu", "dram.read_bytes.gpu", "dram.write_bytes.gpu",
        "dram.row_hits", "dram.row_misses", "gpu.gmi_throttled_cycles"}) {
    std::printf("  %-26s %12llu\n", key,
                static_cast<unsigned long long>(r.stat(key)));
  }

  if (telemetry != nullptr) {
    std::printf("\nobservability:\n");
    if (!trace_out.empty() &&
        write_file(trace_out,
                   [&](std::ostream& os) { telemetry->trace().write(os); })) {
      std::printf("  trace          %s (%zu events)\n", trace_out.c_str(),
                  telemetry->trace().size());
    }
    if (!stats_json_out.empty() &&
        write_file(stats_json_out, [&](std::ostream& os) {
          os << "{\"stats\":" << telemetry->stats_json()
             << ",\"latency_histograms\":" << telemetry->histograms_json()
             << "}\n";
        })) {
      std::printf("  stats          %s\n", stats_json_out.c_str());
    }
    if (!samples_out.empty() &&
        write_file(samples_out, [&](std::ostream& os) {
          telemetry->sampler().write_jsonl(os);
        })) {
      std::printf("  time-series    %s (%zu intervals)\n", samples_out.c_str(),
                  telemetry->sampler().samples().size());
    }
    if (!journal_out.empty() &&
        write_file(journal_out, [&](std::ostream& os) {
          telemetry->journal().write_jsonl(os);
        })) {
      std::printf("  qos journal    %s (%zu entries)\n", journal_out.c_str(),
                  telemetry->journal().entries().size());
    }
    if (const Profiler* prof = telemetry->profiler()) {
      if (!prof_out.empty() &&
          write_file(prof_out, [&](std::ostream& os) {
            os << prof->to_json() << "\n";
          })) {
        std::printf("  profile        %s\n", prof_out.c_str());
      }
      std::printf("\n%s", prof->table().c_str());
    }
    if (!counters_out.empty()) {
      const ActivityCounterBank bank = ActivityCounterBank::for_config(cfg);
      if (write_file(counters_out, [&](std::ostream& os) {
            os << bank.values_json(telemetry->counters()) << "\n";
          })) {
        std::printf("  counters       %s (%zu events)\n", counters_out.c_str(),
                    bank.catalog().size());
      }
    }
    // Fig.-8-style prediction-error report straight from the journal: it must
    // agree with the estimator line above (same samples, same math).
    const QosJournal& j = telemetry->journal();
    std::printf(
        "  journal report: %llu predictions, mean error %.2f%% "
        "(|err| %.2f%%), %llu WG transitions, %llu CPU-priority flips\n",
        static_cast<unsigned long long>(j.predictions()),
        j.mean_prediction_error_pct(), j.mean_abs_prediction_error_pct(),
        static_cast<unsigned long long>(j.wg_changes()),
        static_cast<unsigned long long>(j.prio_flips()));
  }

  if (check != nullptr) {
    std::printf("\ncorrectness analysis:\n");
    std::printf("  audits run     %llu (0 violations — a violation aborts)\n",
                static_cast<unsigned long long>(check->audits_run()));
    if (!digest_out.empty() &&
        write_file(digest_out, [&](std::ostream& os) {
          check->write_digests(os);
        })) {
      std::printf("  digest stream  %s (%zu records)\n", digest_out.c_str(),
                  check->digest_records().size());
    }
  }
  return 0;
}
