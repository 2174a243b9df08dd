#include "obs/telemetry.hpp"

#include <sstream>

#include "common/jsonio.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace gpuqos {

const char* to_string(LatStage s) {
  switch (s) {
    case LatStage::RingHop: return "ring_hop";
    case LatStage::LlcLookup: return "llc_lookup";
    case LatStage::MshrWait: return "mshr_wait";
    case LatStage::DramQueue: return "dram_queue";
    case LatStage::DramService: return "dram_service";
    case LatStage::LlcMissRoundtrip: return "llc_miss_roundtrip";
  }
  return "?";
}

Telemetry::Telemetry(TelemetryOptions opts) : opts_(opts) {
  if (opts_.capture_profile) profiler_ = std::make_unique<Profiler>();
  if (opts_.capture_trace) {
    trace_.name_process("gpuqos simulation");
    trace_.name_thread(TraceWriter::kTidFrames, "GPU frames");
    trace_.name_thread(TraceWriter::kTidThrottle, "ATU throttle windows");
    trace_.name_thread(TraceWriter::kTidPrio, "DRAM CPU-priority mode");
    trace_.name_thread(TraceWriter::kTidControl, "QoS controller");
    trace_.name_thread(TraceWriter::kTidLog, "log");
  }
}

Telemetry::~Telemetry() = default;

std::string Telemetry::histograms_json() const {
  std::ostringstream os;
  os << "{";
  for (int s = 0; s < kNumLatStages; ++s) {
    if (s > 0) os << ",";
    os << "\"" << to_string(static_cast<LatStage>(s)) << "\":{\"cpu\":"
       << hist_[s][0].to_json() << ",\"gpu\":" << hist_[s][1].to_json() << "}";
  }
  os << "}";
  return os.str();
}

void Telemetry::on_frame_start(Cycle gpu_now) {
  frame_open_ = true;
  frame_start_gpu_ = gpu_now;
}

void Telemetry::on_frame_complete(Cycle gpu_now, std::uint64_t frame_index) {
  if (!frame_open_) return;
  frame_open_ = false;
  if (opts_.capture_trace) {
    std::ostringstream args;
    args << "\"frame\":" << frame_index
         << ",\"gpu_cycles\":" << (gpu_now - frame_start_gpu_);
    trace_.complete("frame " + std::to_string(frame_index),
                    TraceWriter::kTidFrames,
                    gpu_to_base_cycles(frame_start_gpu_),
                    gpu_to_base_cycles(gpu_now), args.str());
  }
}

void Telemetry::record_prediction(Cycle gpu_now, std::uint64_t frame,
                                  double predicted, double actual) {
  if (opts_.capture_journal) {
    journal_.record_prediction(gpu_now, frame, predicted, actual);
  }
  if (opts_.capture_trace) {
    trace_.counter("frpu.predicted_cycles", gpu_to_base_cycles(gpu_now),
                   predicted);
    trace_.counter("frpu.actual_cycles", gpu_to_base_cycles(gpu_now), actual);
  }
}

void Telemetry::record_relearn(Cycle gpu_now, std::uint64_t total_relearns) {
  if (opts_.capture_journal) journal_.record_relearn(gpu_now, total_relearns);
  if (opts_.capture_trace) {
    trace_.instant("frpu relearn", TraceWriter::kTidControl,
                   gpu_to_base_cycles(gpu_now));
  }
}

void Telemetry::on_qos_control(const QosControlRecord& rec) {
  const Cycle base_now = gpu_to_base_cycles(rec.gpu_now);

  if (opts_.capture_journal && rec.wg != last_wg_) {
    journal_.record_wg_change(rec.gpu_now, last_wg_, rec.wg, rec.ng, rec.cp,
                              rec.ct, rec.accesses);
  }
  if (opts_.capture_journal && rec.cpu_prio_boost != last_prio_) {
    journal_.record_prio_flip(rec.gpu_now, rec.cpu_prio_boost, rec.cp, rec.ct);
  }

  if (opts_.capture_trace) {
    if (rec.wg != last_wg_) trace_.counter("atu.wg", base_now, double(rec.wg));
    // Throttle-window span: open while WG > 0.
    if (rec.throttling && !throttle_open_) {
      throttle_open_ = true;
      throttle_start_gpu_ = rec.gpu_now;
    } else if (!rec.throttling && throttle_open_) {
      throttle_open_ = false;
      trace_.complete("throttling", TraceWriter::kTidThrottle,
                      gpu_to_base_cycles(throttle_start_gpu_), base_now);
    }
    // CPU-priority span.
    if (rec.cpu_prio_boost && !prio_open_) {
      prio_open_ = true;
      prio_start_gpu_ = rec.gpu_now;
    } else if (!rec.cpu_prio_boost && prio_open_) {
      prio_open_ = false;
      trace_.complete("cpu priority", TraceWriter::kTidPrio,
                      gpu_to_base_cycles(prio_start_gpu_), base_now);
    }
  }

  last_wg_ = rec.wg;
  last_prio_ = rec.cpu_prio_boost;
}

void Telemetry::mark_phase(Cycle base_now, const std::string& label) {
  if (opts_.capture_trace) {
    trace_.instant(label, TraceWriter::kTidControl, base_now);
  }
  if (opts_.capture_journal) {
    journal_.mark(base_to_gpu_cycles(base_now), label);
  }
}

void Telemetry::finalize(Cycle base_now) {
  if (profiler_ != nullptr) profiler_->stop();
  if (!opts_.capture_trace) return;
  if (frame_open_) {
    frame_open_ = false;
    trace_.complete("frame (open)", TraceWriter::kTidFrames,
                    gpu_to_base_cycles(frame_start_gpu_), base_now);
  }
  if (throttle_open_) {
    throttle_open_ = false;
    trace_.complete("throttling", TraceWriter::kTidThrottle,
                    gpu_to_base_cycles(throttle_start_gpu_), base_now);
  }
  if (prio_open_) {
    prio_open_ = false;
    trace_.complete("cpu priority", TraceWriter::kTidPrio,
                    gpu_to_base_cycles(prio_start_gpu_), base_now);
  }
}

void Telemetry::capture_stats(const StatRegistry& stats) {
  stats_json_ = stats.to_json();
  counters_ = stats.counters();
}

void Telemetry::on_log(int level, Cycle base_now, const std::string& msg) {
  if (!opts_.capture_log || !opts_.capture_trace) return;
  std::ostringstream args;
  args << "\"level\":" << level << ",\"message\":\"" << json_escape(msg)
       << "\"";
  trace_.instant("log", TraceWriter::kTidLog, base_now, args.str());
}

}  // namespace gpuqos
