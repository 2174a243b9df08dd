#include "sim/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>

#include "check/check.hpp"
#include "check/context.hpp"
#include "ckpt/state_io.hpp"
#include "common/units.hpp"
#include "obs/telemetry.hpp"
#include "workloads/spec.hpp"

namespace gpuqos {
namespace {

/// Per-core measurement bookkeeping.
struct CoreWindow {
  std::uint64_t start_committed = 0;
  Cycle start_cycle = 0;
  Cycle done_cycle = kNoCycle;
};

/// Where in the run a snapshot was taken; stored in the "run" section so a
/// resumed process can rebuild the runner's bookkeeping.
enum RunStage : std::uint8_t {
  kStageWarm = 0,      // mid-warm-up
  kStageWarmDone = 1,  // warm-up complete, measurement not yet started
  kStageMeasure = 2,   // mid-measurement
};

std::vector<SpecProfile> profiles_of(const std::vector<int>& ids) {
  std::vector<SpecProfile> out;
  out.reserve(ids.size());
  for (int id : ids) out.push_back(spec_profile(id));
  return out;
}

}  // namespace

RunScale RunScale::from_env() {
  RunScale s;
  const char* fast = std::getenv("GPUQOS_FAST");
  if (fast != nullptr && std::strcmp(fast, "0") != 0) {
    s.warm_instrs = 50'000;
    s.measure_instrs = 300'000;
    s.warm_frames = 2;
    s.measure_frames = 2;
    s.warm_min_cycles = 1'000'000;
    s.max_cycles = 100'000'000;
  }
  return s;
}

double standalone_cpu_ipc(const SimConfig& cfg, int spec_id,
                          const RunScale& scale) {
  HeteroCmp cmp(cfg, Policy::Baseline, {spec_profile(spec_id)}, {}, 1.0);
  Engine& eng = cmp.engine();
  CpuCore& core = cmp.core(0);

  eng.run_until([&] { return core.committed() >= scale.warm_instrs; },
                scale.max_cycles);
  const std::uint64_t c0 = core.committed();
  const Cycle t0 = eng.now();
  eng.run_until([&] { return core.committed() >= c0 + scale.measure_instrs; },
                scale.max_cycles);
  const Cycle elapsed = eng.now() - t0;
  return elapsed > 0
             ? static_cast<double>(core.committed() - c0) /
                   static_cast<double>(elapsed)
             : 0.0;
}

namespace {

HeteroResult run_cmp(const SimConfig& cfg, const std::string& mix_id,
                     const std::vector<int>& spec_ids_in,
                     const GpuAppDesc* app, Policy policy,
                     const RunScale& scale, const RunHooks& hooks) {
  std::vector<SceneFrame> frames;
  double fps_scale = 1.0;
  unsigned measure_frames = 0;
  if (app != nullptr) {
    frames = build_frames(*app, cfg.seed);
    fps_scale = app->fps_scale;
    measure_frames =
        scale.measure_frames > 0 ? scale.measure_frames : app->frames;
  }

  HeteroCmp cmp(cfg, policy, profiles_of(spec_ids_in), std::move(frames),
                fps_scale);
  Telemetry* telemetry = hooks.telemetry;
  CheckContext* check = hooks.check;
  if (telemetry != nullptr) cmp.attach_telemetry(*telemetry);
#ifdef GPUQOS_STRICT_CHECKS
  // Strict builds audit every run: experiments double as regression nets.
  CheckContext strict_check;
  if (check == nullptr) check = &strict_check;
#endif
  if (check != nullptr) cmp.attach_checks(*check);
  if (app != nullptr) cmp.gpu().set_repeat(true);
  Engine& eng = cmp.engine();
  Profiler* prof = telemetry != nullptr ? telemetry->profiler() : nullptr;

  const std::size_t n = cmp.num_cores();
  const bool gpu_active = app != nullptr;

  // --- Snapshot identity: pins any snapshot this run writes, and is what
  // any snapshot this run loads is validated against.
  ckpt::SnapshotMeta live_meta;
  live_meta.mix_id = mix_id;
  live_meta.policy = to_string(policy);
  live_meta.seed = cfg.seed;
  live_meta.cpu_cores = checked_narrow<std::uint32_t>(n);
  live_meta.fps_scale = fps_scale;
  live_meta.cfg_digest = config_digest(cfg);
  live_meta.warm_instrs = scale.warm_instrs;
  live_meta.measure_instrs = scale.measure_instrs;
  live_meta.warm_frames = scale.warm_frames;
  live_meta.measure_frames = scale.measure_frames;
  live_meta.warm_min_cycles = scale.warm_min_cycles;
  live_meta.max_cycles = scale.max_cycles;

  // --- Runner bookkeeping; overwritten below when resuming.
  std::uint8_t stage = kStageWarm;
  Cycle ckpt_interval = hooks.ckpt_interval;
  Cycle next_barrier = ckpt_interval;
  Cycle phase_cap = scale.max_cycles;  // warm-up starts at cycle 0
  std::map<std::string, std::uint64_t> snap;
  std::vector<CoreWindow> windows;
  std::uint64_t frames0 = 0;
  Cycle t0 = 0;
  Cycle gpu_done_cycle = kNoCycle;

  // --- The "run" section: the bookkeeping above, in one walk that both the
  // snapshot writer and the resume reader drive.
  auto visit_run = [&](auto& io) {
    io.u8(stage);
    io.u64(ckpt_interval);
    io.u64(next_barrier);
    io.u64(phase_cap);
    if (stage > kStageMeasure) {
      io.fail("unknown run stage " + std::to_string(stage));
    }
    if (stage != kStageMeasure) return;
    io.map(snap, [&io](std::uint64_t& v) { io.u64(v); });
    io.length(windows);
    io.require(windows.size() == n, "core-window count mismatch");
    for (CoreWindow& cw : windows) {
      io.u64(cw.start_committed);
      io.u64(cw.start_cycle);
      io.u64(cw.done_cycle);
    }
    io.u64(frames0);
    io.u64(t0);
    io.u64(gpu_done_cycle);
  };

  // --- Resume: meta, runner bookkeeping, then every module section. Loads
  // after attach_telemetry/attach_checks so the restored engine can verify
  // the ticker layout matches the instrumentation actually attached.
  const bool resuming =
      hooks.resume_data != nullptr || !hooks.resume_path.empty();
  if (resuming) {
    std::vector<std::uint8_t> bytes =
        hooks.resume_data != nullptr
            ? *hooks.resume_data
            : ckpt::read_snapshot_file(hooks.resume_path);
    ckpt::StateReader r(std::move(bytes));
    if (!r.next_section()) {
      throw ckpt::CkptError("snapshot has no sections");
    }
    ckpt::SnapshotMeta m = ckpt::load_meta(r);
    r.expect_section_end();
    ckpt::validate_meta(m, live_meta, hooks.resume_mode);
    if (!r.next_section() || r.tag() != "run") {
      throw ckpt::CkptError("snapshot is missing the 'run' section");
    }
    visit_run(r);
    r.expect_section_end();
    cmp.load_state(r, hooks.resume_mode);
    if (telemetry != nullptr) telemetry->sampler().rebase(eng.now());
  }

  // --- Snapshot writing: meta, run bookkeeping, then every module. Callers
  // must have drained the simulation (cmp.drain()) first.
  auto write_snapshot = [&](std::vector<std::uint8_t>* memory_out) {
    ckpt::StateWriter w;
    ckpt::save_meta(w, live_meta);
    w.begin_section("run");
    visit_run(w);
    w.end_section();
    cmp.save_state(w);
    if (memory_out != nullptr) {
      *memory_out = w.finish();
    } else {
      ckpt::write_snapshot_file(hooks.ckpt_out, w.finish());
      std::fprintf(stderr, "# ckpt: wrote %s at cycle %llu\n",
                   hooks.ckpt_out.c_str(),
                   static_cast<unsigned long long>(eng.now()));
    }
  };

  // --- Phase driver: run `pred` to completion under the phase cap,
  // drain-barriering (and snapshotting) every `ckpt_interval` cycles.
  // `min_cycle` is the cycle threshold inside `pred`, if any: the engine
  // skips idle gaps without evaluating the predicate, so the threshold must
  // also be a run target to be observed on the cycle it is reached.
  // Returns false when the cap cut the phase short.
  auto run_phase = [&](const std::function<bool()>& pred, Cycle min_cycle) {
    for (;;) {
      if (pred()) return true;
      if (eng.now() >= phase_cap) return false;
      Cycle target = phase_cap;
      if (ckpt_interval > 0 && next_barrier < target) target = next_barrier;
      if (eng.now() < min_cycle && min_cycle < target) target = min_cycle;
      if (target > eng.now()) {
        eng.run_until(
            [&] {
              const bool done = pred();
              return done || eng.now() >= target;
            },
            target - eng.now());
      }
      if (pred()) return true;
      if (ckpt_interval > 0 && eng.now() >= next_barrier) {
        ProfScope ps(prof, ProfModule::Ckpt);
        cmp.drain();
        if (!hooks.ckpt_out.empty()) write_snapshot(nullptr);
        cmp.unfreeze_injectors();
        while (next_barrier <= eng.now()) next_barrier += ckpt_interval;
      }
    }
  };

  // --- Warm-up: every core reaches its warm quota; the GPU completes its
  // warm frames (which also moves the FRPU past its first learning phase).
  if (stage == kStageWarm) {
    auto warm_done = [&] {
      if (eng.now() < scale.warm_min_cycles) return false;
      for (std::size_t i = 0; i < n; ++i) {
        if (cmp.core(i).committed() < scale.warm_instrs) return false;
      }
      if (gpu_active && cmp.gpu().frames_completed() < scale.warm_frames) {
        return false;
      }
      return true;
    };
    run_phase(warm_done, scale.warm_min_cycles);
    stage = kStageWarmDone;
    // Warm-end snapshot: the warm-fork capture, or --ckpt-out without a
    // barrier interval.
    const bool warm_snapshot =
        hooks.warm_capture != nullptr ||
        (ckpt_interval == 0 && !hooks.ckpt_out.empty());
    if (warm_snapshot) {
      ProfScope ps(prof, ProfModule::Ckpt);
      cmp.drain();
      write_snapshot(hooks.warm_capture);
      cmp.unfreeze_injectors();
    }
    if (hooks.warm_capture != nullptr) {
      HeteroResult r;
      r.mix_id = mix_id;
      r.policy = policy;
      r.spec_ids = spec_ids_in;
      if (telemetry != nullptr) {
        telemetry->finalize(eng.now());
        telemetry->capture_stats(cmp.stats());
      }
      if (check != nullptr) check->finalize(eng.now(), cmp.quiesced());
      return r;
    }
  }

  if (stage == kStageWarmDone) {
    if (telemetry != nullptr) {
      telemetry->mark_phase(eng.now(), "measure_start");
      telemetry->sampler().rebase(eng.now());
    }
    if (prof != nullptr) prof->set_phase(ProfPhase::Measure);
    // --- Measurement-window snapshot.
    snap = cmp.stats().counters();
    windows.assign(n, CoreWindow{});
    for (std::size_t i = 0; i < n; ++i) {
      windows[i].start_committed = cmp.core(i).committed();
      windows[i].start_cycle = eng.now();
    }
    frames0 = cmp.gpu().frames_completed();
    t0 = eng.now();
    gpu_done_cycle = kNoCycle;
    phase_cap = eng.now() + scale.max_cycles;
    stage = kStageMeasure;
  } else {
    // Resumed straight into the measured window.
    if (prof != nullptr) prof->set_phase(ProfPhase::Measure);
    if (telemetry != nullptr) telemetry->mark_phase(eng.now(), "resume");
  }

  // --- Measure: each CPU application runs until it commits its quota
  // (recording its own finish time); the run ends when all quotas are met
  // and the GPU has rendered its measured frames.
  auto all_done = [&] {
    bool done = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (windows[i].done_cycle == kNoCycle) {
        if (cmp.core(i).committed() >=
            windows[i].start_committed + scale.measure_instrs) {
          windows[i].done_cycle = eng.now();
        } else {
          done = false;
        }
      }
    }
    if (gpu_active && gpu_done_cycle == kNoCycle) {
      if (cmp.gpu().frames_completed() >= frames0 + measure_frames) {
        gpu_done_cycle = eng.now();
      } else {
        done = false;
      }
    }
    return done;
  };
  const bool completed = run_phase(all_done, /*min_cycle=*/0);

  HeteroResult r;
  r.mix_id = mix_id;
  r.policy = policy;
  r.spec_ids = spec_ids_in;
  r.hit_cycle_cap = !completed;
  for (std::size_t i = 0; i < n; ++i) {
    const Cycle end =
        windows[i].done_cycle != kNoCycle ? windows[i].done_cycle : eng.now();
    const Cycle elapsed = end - windows[i].start_cycle;
    const std::uint64_t committed =
        cmp.core(i).committed() - windows[i].start_committed;
    const std::uint64_t counted =
        std::min<std::uint64_t>(committed, scale.measure_instrs);
    r.cpu_ipc.push_back(elapsed > 0 ? static_cast<double>(counted) /
                                          static_cast<double>(elapsed)
                                    : 0.0);
  }
  if (gpu_active) {
    // Frames are measured up to the cycle the GPU met its quota; the GPU
    // keeps rendering afterwards (repeat mode) purely as contention for any
    // still-running CPU applications.
    const Cycle gend = gpu_done_cycle != kNoCycle ? gpu_done_cycle : eng.now();
    const std::uint64_t gframes =
        gpu_done_cycle != kNoCycle
            ? measure_frames
            : cmp.gpu().frames_completed() - frames0;
    const double secs = cycles_to_seconds(gend - t0);
    r.seconds = secs;
    r.fps = secs > 0 ? static_cast<double>(gframes) / secs / fps_scale : 0.0;
    r.gpu_frame_cycles =
        gframes > 0 ? static_cast<double>(base_to_gpu_cycles(gend - t0)) /
                          static_cast<double>(gframes)
                    : 0.0;
  }
  if (gpu_active) {
    const auto& samples = cmp.frpu().samples();
    double err_sum = 0.0;
    for (const auto& smp : samples) {
      if (smp.actual_cycles > 0) {
        err_sum += (smp.predicted_cycles - smp.actual_cycles) /
                   smp.actual_cycles * 100.0;
      }
    }
    r.est_samples = samples.size();
    r.est_error_pct = samples.empty()
                          ? 0.0
                          : err_sum / static_cast<double>(samples.size());
    r.est_relearns = cmp.frpu().relearn_events();
  }
  for (const auto& [name, value] : cmp.stats().counters()) {
    auto it = snap.find(name);
    const std::uint64_t before = it == snap.end() ? 0 : it->second;
    r.stat_delta[name] = value >= before ? value - before : 0;
  }
  if (telemetry != nullptr) {
    // Close open trace spans and capture the registry before the CMP (which
    // owns the StatRegistry) is destroyed.
    telemetry->finalize(eng.now());
    telemetry->capture_stats(cmp.stats());
  }
  if (check != nullptr) {
    // A run that stopped mid-flight is not quiesced, so the ledger only
    // requires injected >= retired; a drained simulation additionally
    // requires every read to have completed exactly once. An engine with no
    // pending events is not enough: requests can still sit in the DRAM
    // queues, the LLC MSHRs and the GMI queue.
    check->finalize(eng.now(), cmp.quiesced());
  }
  return r;
}

}  // namespace

HeteroResult standalone_gpu(const SimConfig& cfg, const GpuAppDesc& app,
                            const RunScale& scale, const RunHooks& hooks) {
  return run_cmp(cfg, app.name + "-alone", {}, &app, Policy::Baseline, scale,
                 hooks);
}

HeteroResult run_hetero(const SimConfig& cfg, const HeteroMix& mix,
                        Policy policy, const RunScale& scale,
                        const RunHooks& hooks) {
  const GpuAppDesc& app = gpu_app(mix.gpu_app);
  return run_cmp(cfg, mix.id, mix.cpu_specs, &app, policy, scale, hooks);
}

std::vector<std::uint8_t> warm_hetero_snapshot(const SimConfig& cfg,
                                               const HeteroMix& mix,
                                               Policy policy,
                                               const RunScale& scale) {
  std::vector<std::uint8_t> bytes;
  RunHooks hooks;
  hooks.warm_capture = &bytes;
  (void)run_hetero(cfg, mix, policy, scale, hooks);
  return bytes;
}

std::vector<HeteroResult> run_hetero_forked(const SimConfig& cfg,
                                            const HeteroMix& mix,
                                            const std::vector<Policy>& policies,
                                            const RunScale& scale) {
  std::vector<HeteroResult> out;
  if (policies.empty()) return out;
  const std::vector<std::uint8_t> warm =
      warm_hetero_snapshot(cfg, mix, policies.front(), scale);
  out.reserve(policies.size());
  for (Policy p : policies) {
    RunHooks hooks;
    hooks.resume_data = &warm;
    hooks.resume_mode = ckpt::RestoreMode::kFork;
    out.push_back(run_hetero(cfg, mix, p, scale, hooks));
  }
  return out;
}

std::vector<double> standalone_ipcs(const SimConfig& cfg, const HeteroMix& mix,
                                    const RunScale& scale) {
  std::vector<double> out;
  out.reserve(mix.cpu_specs.size());
  for (int id : mix.cpu_specs) out.push_back(standalone_cpu_ipc(cfg, id, scale));
  return out;
}

}  // namespace gpuqos
