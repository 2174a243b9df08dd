// QoS governor: wires the frame-rate estimator to the access throttler and
// publishes QosSignals for the DRAM schedulers (Section III's three steps).
//
// Every control interval it (1) reads the predicted cycles/frame CP from the
// FRPU, (2) runs the Figure-6 controller with CP, the target CT, and the
// learned accesses/frame A, and (3) raises the CPU-priority signal for the
// DRAM scheduler when the GPU meets the target. When the estimator is in the
// learning phase, everything reverts to baseline behaviour.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/qos_signals.hpp"
#include "common/stats.hpp"
#include "gpu/pipeline.hpp"
#include "qos/atu.hpp"
#include "qos/frpu.hpp"

namespace gpuqos {

class Profiler;
class Telemetry;

class QosGovernor {
 public:
  struct Options {
    bool enable_throttle = true;   // step 2 (ATU)
    bool enable_cpu_prio = true;   // step 3 (DRAM scheduler boost)
  };

  /// `fps_scale` converts simulated frame rate to effective (paper-scale)
  /// FPS; see SimConfig::fps_scale.
  QosGovernor(Engine& engine, const QosConfig& cfg, Options opts,
              FrameRateEstimator& frpu, AccessThrottler& atu,
              GpuPipeline& pipeline, QosSignals& signals, double fps_scale,
              StatRegistry& stats);

  /// Control step; registered as an engine ticker, callable from tests.
  void control(Cycle gpu_now);

  /// Journal every control step's Fig.-6 inputs/outputs (WG transitions,
  /// CPU-priority flips, throttle-window spans) into the telemetry layer.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// Target cycles per frame CT in GPU-clock cycles.
  [[nodiscard]] double target_frame_cycles() const { return ct_; }

  /// Checkpoint the governor's log-edge state plus the shared QosSignals it
  /// owns the writes to (docs/CHECKPOINT.md). CT is derived from config and
  /// not persisted.
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  void record_control(Cycle gpu_now, double cp);

  QosConfig cfg_;  // ckpt:skip: construction parameter
  Options opts_;   // ckpt:skip: construction parameter
  FrameRateEstimator& frpu_;
  AccessThrottler& atu_;
  GpuPipeline& pipeline_;
  QosSignals& signals_;
  double ct_;  // ckpt:skip: CT (target frame cycles), fixed at construction
  StatRegistry& stats_;
  Telemetry* telemetry_ = nullptr;
  Profiler* prof_ = nullptr;
  Cycle logged_wg_ = 0;       // last WG / priority reported via GPUQOS_LOG
  bool logged_prio_ = false;
  std::uint64_t* st_controls_ = nullptr;
  std::uint64_t* st_throttle_on_ = nullptr;
};

}  // namespace gpuqos
