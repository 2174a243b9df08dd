// Telemetry hub: the single object the simulator is instrumented against.
//
// Components hold a raw `Telemetry*` that is null by default, so the
// instrumented hot paths cost one predictable branch when observability is
// disabled (no virtual dispatch, no allocation). When a run wants telemetry,
// the caller constructs a Telemetry, passes it to the runner (or calls
// HeteroCmp::attach_telemetry directly), and reads the collected histograms,
// time-series, Chrome trace, and QoS journal after the run.
#pragma once

#include <cstdint>
#include <string>

#include <map>
#include <memory>

#include "common/types.hpp"
#include "obs/histogram.hpp"
#include "obs/journal.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace gpuqos {

class StatRegistry;

/// Pipeline stages a request's life is decomposed into (per request class).
enum class LatStage : int {
  RingHop = 0,       // ring transit (queueing + hops), per message
  LlcLookup,         // port arbitration + tag lookup at the shared LLC
  MshrWait,          // LLC miss detection -> MSHR granted (deferred queue)
  DramQueue,         // channel enqueue -> CAS issue
  DramService,       // CAS issue -> data burst complete
  LlcMissRoundtrip,  // LLC miss detection -> fill/waiters woken
};
inline constexpr int kNumLatStages = 6;

[[nodiscard]] const char* to_string(LatStage s);

struct TelemetryOptions {
  Cycle sample_interval = 0;  // base cycles between samples; 0 = no sampler
  bool capture_trace = true;
  bool capture_journal = true;
  bool capture_histograms = true;
  bool capture_log = true;  // mirror GPUQOS_LOG lines into the trace
  // Host-time attribution (obs/profiler.hpp): off by default — the scopes
  // then cost one null check per module entry.
  bool capture_profile = false;
};

/// Snapshot of one governor control step (Fig. 6 inputs and outputs).
struct QosControlRecord {
  Cycle gpu_now = 0;
  bool predicting = false;
  double cp = 0.0;             // predicted cycles/frame
  double ct = 0.0;             // target cycles/frame
  std::uint64_t accesses = 0;  // learned LLC accesses/frame (A)
  Cycle wg = 0;
  unsigned ng = 0;
  bool throttling = false;
  bool cpu_prio_boost = false;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions opts = {});
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] const TelemetryOptions& options() const { return opts_; }

  // --- Hot path: stage latency histograms -------------------------------
  void record_latency(LatStage stage, bool gpu, std::uint64_t cycles) {
    if (opts_.capture_histograms) {
      hist_[static_cast<int>(stage)][gpu ? 1 : 0].record(cycles);
    }
  }
  [[nodiscard]] const LatencyHistogram& histogram(LatStage stage,
                                                 bool gpu) const {
    return hist_[static_cast<int>(stage)][gpu ? 1 : 0];
  }
  /// {"ring_hop":{"cpu":{...},"gpu":{...}}, ...}
  [[nodiscard]] std::string histograms_json() const;

  // --- Frame lifecycle (GPU-clock timestamps) ---------------------------
  void on_frame_start(Cycle gpu_now);
  void on_frame_complete(Cycle gpu_now, std::uint64_t frame_index);
  void record_prediction(Cycle gpu_now, std::uint64_t frame, double predicted,
                         double actual);
  void record_relearn(Cycle gpu_now, std::uint64_t total_relearns);

  // --- Governor hook (called once per control interval) -----------------
  void on_qos_control(const QosControlRecord& rec);

  // --- Run phases -------------------------------------------------------
  /// Instant trace event + journal mark (e.g. "measure_start"). Base cycles.
  void mark_phase(Cycle base_now, const std::string& label);
  /// Close any open spans; call once when the simulation ends.
  void finalize(Cycle base_now);

  /// Keep a JSON snapshot of the registry (the HeteroCmp that owns the
  /// registry dies with the run; the snapshot survives in the Telemetry),
  /// plus the raw counter map for the activity-counter export.
  void capture_stats(const StatRegistry& stats);
  [[nodiscard]] const std::string& stats_json() const { return stats_json_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const {
    return counters_;
  }

  /// A GPUQOS_LOG line routed through the telemetry sink (base cycles).
  void on_log(int level, Cycle base_now, const std::string& msg);

  [[nodiscard]] IntervalSampler& sampler() { return sampler_; }
  [[nodiscard]] const IntervalSampler& sampler() const { return sampler_; }
  [[nodiscard]] TraceWriter& trace() { return trace_; }
  [[nodiscard]] const TraceWriter& trace() const { return trace_; }
  [[nodiscard]] QosJournal& journal() { return journal_; }
  [[nodiscard]] const QosJournal& journal() const { return journal_; }
  /// Null unless options().capture_profile; modules scope against it.
  [[nodiscard]] Profiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const Profiler* profiler() const { return profiler_.get(); }

 private:
  TelemetryOptions opts_;
  LatencyHistogram hist_[kNumLatStages][2];  // [stage][cpu=0, gpu=1]
  IntervalSampler sampler_;
  TraceWriter trace_;
  QosJournal journal_;
  std::unique_ptr<Profiler> profiler_;
  std::string stats_json_;
  std::map<std::string, std::uint64_t> counters_;

  // Open-span state.
  bool frame_open_ = false;
  Cycle frame_start_gpu_ = 0;
  bool throttle_open_ = false;
  Cycle throttle_start_gpu_ = 0;
  bool prio_open_ = false;
  Cycle prio_start_gpu_ = 0;
  Cycle last_wg_ = 0;
  bool last_prio_ = false;
};

}  // namespace gpuqos
