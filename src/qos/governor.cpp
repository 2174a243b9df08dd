#include "qos/governor.hpp"

#include "ckpt/state_io.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace gpuqos {

QosGovernor::QosGovernor(Engine& engine, const QosConfig& cfg, Options opts,
                         FrameRateEstimator& frpu, AccessThrottler& atu,
                         GpuPipeline& pipeline, QosSignals& signals,
                         double fps_scale, StatRegistry& stats)
    : cfg_(cfg),
      opts_(opts),
      frpu_(frpu),
      atu_(atu),
      pipeline_(pipeline),
      signals_(signals),
      stats_(stats) {
  // GPU clock is 1 GHz; effective FPS = raw FPS / fps_scale, so the target
  // in GPU cycles per (simulated) frame is 1e9 / (target_fps * fps_scale).
  ct_ = 1.0e9 / (cfg.target_fps * fps_scale);
  signals_.target_fps = cfg.target_fps;
  st_controls_ = stats_.counter_ptr("qos.control_steps");
  st_throttle_on_ = stats_.counter_ptr("qos.control_steps_throttling");

  const Cycle period =
      static_cast<Cycle>(cfg.control_interval_gpu_cycles) * kGpuClockDivider;
  engine.add_ticker(period, /*phase=*/1, [this](Cycle now) {
    control(base_to_gpu_cycles(now));
  });
}

void QosGovernor::control(Cycle gpu_now) {
  ProfScope prof(prof_, ProfModule::Governor);
  ++*st_controls_;
  signals_.gpu_latency_tolerance = pipeline_.latency_tolerance();

  if (!frpu_.predicting()) {
    // Learning phase: hold the current throttle rate and priority signals so
    // the relearned cycles/RTP reflect the regime that will keep running
    // (the ablation flag reverts to releasing the throttle instead).
    if (!cfg_.hold_throttle_in_learning) {
      atu_.disable();
      signals_.cpu_prio_boost = false;
      signals_.gpu_meets_target = false;
    }
    signals_.estimating = false;
    signals_.gpu_urgent = false;
    if (telemetry_ != nullptr) record_control(gpu_now, 0.0);
    return;
  }

  const double cp = frpu_.predicted_frame_cycles(gpu_now);
  signals_.estimating = true;
  // Effective FPS: ct_ cycles/frame corresponds to exactly target_fps.
  signals_.predicted_fps = cp > 0 ? cfg_.target_fps * ct_ / cp : 0.0;
  signals_.gpu_meets_target = cp > 0 && cp <= ct_;
  signals_.frame_progress = frpu_.frame_progress();

  // DynPrio input: urgent when less than 10% of the predicted frame time is
  // left (Jeong et al., DAC 2012).
  const double elapsed = static_cast<double>(frpu_.frame_elapsed(gpu_now));
  signals_.gpu_urgent = cp > 0 && (cp - elapsed) < 0.1 * cp;

  if (opts_.enable_throttle) {
    atu_.update(cp, ct_, frpu_.learned_accesses_per_frame());
    if (atu_.throttling()) ++*st_throttle_on_;
  } else {
    atu_.disable();
  }
  // CPU priority needs headroom: only boost while the GPU is comfortably
  // ahead of the target (the paper leaves a 10 FPS cushion above 30 for the
  // same reason), so the GPU settles just above — not below — the target.
  signals_.cpu_prio_boost =
      opts_.enable_cpu_prio && cp > 0 && cp <= 0.9 * ct_;
  if (atu_.wg() != logged_wg_) {
    GPUQOS_LOG(Info, "ATU WG " << logged_wg_ << " -> " << atu_.wg()
                               << " (CP=" << cp << " CT=" << ct_ << " A="
                               << frpu_.learned_accesses_per_frame() << ")");
    logged_wg_ = atu_.wg();
  }
  if (signals_.cpu_prio_boost != logged_prio_) {
    GPUQOS_LOG(Info, "DRAM CPU priority "
                         << (signals_.cpu_prio_boost ? "on" : "off")
                         << " (CP=" << cp << " CT=" << ct_ << ")");
    logged_prio_ = signals_.cpu_prio_boost;
  }
  if (telemetry_ != nullptr) record_control(gpu_now, cp);
}

void QosGovernor::record_control(Cycle gpu_now, double cp) {
  QosControlRecord rec;
  rec.gpu_now = gpu_now;
  rec.predicting = frpu_.predicting();
  rec.cp = cp;
  rec.ct = ct_;
  rec.accesses = frpu_.learned_accesses_per_frame();
  rec.wg = atu_.wg();
  rec.ng = atu_.ng();
  rec.throttling = atu_.throttling();
  rec.cpu_prio_boost = signals_.cpu_prio_boost;
  telemetry_->on_qos_control(rec);
}

template <class IO>
void QosGovernor::visit_state(IO& io) {
  io.u64(logged_wg_);
  io.boolean(logged_prio_);
  io.boolean(signals_.estimating);
  io.f64(signals_.predicted_fps);
  io.f64(signals_.target_fps);
  io.boolean(signals_.gpu_meets_target);
  io.boolean(signals_.cpu_prio_boost);
  io.f64(signals_.frame_progress);
  io.boolean(signals_.gpu_urgent);
  io.f64(signals_.gpu_latency_tolerance);
}

void QosGovernor::save(ckpt::StateWriter& w) { visit_state(w); }
void QosGovernor::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
