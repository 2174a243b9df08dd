#include "qos/frpu.hpp"

#include <algorithm>
#include <cmath>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

FrameRateEstimator::FrameRateEstimator(const QosConfig& cfg)
    : cfg_(cfg), table_(cfg.rtp_table_entries) {}

void FrameRateEstimator::on_frame_start(const SceneFrame& frame,
                                        Cycle gpu_now) {
  in_frame_ = true;
  frame_start_ = gpu_now;
  num_tiles_ = frame.num_tiles();
  px_per_tile_ = frame.pixels_per_tile();
  tile_updates_.assign(num_tiles_, 0);
  tiles_at_target_ = 0;
  rtps_completed_ = 0;
  rtp_start_ = gpu_now;
  rtp_updates_ = 0;
  rtp_accesses_ = 0;
  frame_updates_ = 0;
  frame_accesses_ = 0;
  cur_frame_rtp_cycles_ = 0;
  mid_frame_prediction_ = 0.0;
  if (phase_ == Phase::Learning) table_.clear();
}

void FrameRateEstimator::on_rt_update(unsigned tile, Cycle gpu_now) {
  if (!in_frame_ || tile >= num_tiles_) return;
  ++rtp_updates_;
  ++frame_updates_;
  const std::uint64_t target =
      static_cast<std::uint64_t>(rtps_completed_ + 1) * px_per_tile_;
  if (++tile_updates_[tile] == target) {
    if (++tiles_at_target_ == num_tiles_) complete_rtp(gpu_now);
  }
}

void FrameRateEstimator::on_llc_access(Cycle gpu_now) {
  (void)gpu_now;
  if (!in_frame_) return;
  ++rtp_accesses_;
  ++frame_accesses_;
}

void FrameRateEstimator::recount_tiles_at_target() {
  const std::uint64_t target =
      static_cast<std::uint64_t>(rtps_completed_ + 1) * px_per_tile_;
  tiles_at_target_ = 0;
  for (std::uint32_t u : tile_updates_) {
    if (u >= target) ++tiles_at_target_;
  }
}

void FrameRateEstimator::complete_rtp(Cycle gpu_now) {
  const Cycle rtp_cycles = gpu_now - rtp_start_;
  if (phase_ == Phase::Learning) {
    table_.record(rtp_updates_, rtp_cycles, num_tiles_, rtp_accesses_);
  }
  cur_frame_rtp_cycles_ += rtp_cycles;
  ++rtps_completed_;
  rtp_start_ = gpu_now;
  rtp_updates_ = 0;
  rtp_accesses_ = 0;
  recount_tiles_at_target();

  // Snapshot the prediction standing at (or just past) mid-frame for the
  // Fig. 8 accuracy measurement.
  if (phase_ == Phase::Prediction && mid_frame_prediction_ == 0.0 &&
      frame_progress() >= 0.5) {
    mid_frame_prediction_ = predicted_frame_cycles(gpu_now);
  }
}

double FrameRateEstimator::frame_progress() const {
  const std::uint32_t n = table_.rtp_count();
  if (n == 0) return 0.0;
  return std::min(1.0, static_cast<double>(rtps_completed_) /
                           static_cast<double>(n));
}

double FrameRateEstimator::predicted_frame_cycles(Cycle gpu_now) const {
  const std::uint32_t n_rtp = table_.rtp_count();
  if (phase_ != Phase::Prediction || n_rtp == 0) return 0.0;
  const double c_avg = table_.avg_cycles_per_rtp();
  const double lambda = frame_progress();
  // Average cycles per RTP observed in the current frame, extended with the
  // cycles accumulating in the in-flight RTP (Equation 2 uses completed-RTP
  // history; including the live RTP keeps the estimate responsive when
  // throttling slows rendering mid-frame).
  double c_inter = c_avg;
  if (rtps_completed_ > 0) {
    const Cycle elapsed = gpu_now - frame_start_;
    c_inter = static_cast<double>(elapsed) /
              static_cast<double>(rtps_completed_);
  }
  // Equation 3.
  return (lambda * c_inter + (1.0 - lambda) * c_avg) *
         static_cast<double>(n_rtp);
}

void FrameRateEstimator::on_frame_complete(Cycle gpu_now) {
  if (!in_frame_) return;
  // Fold a trailing partial RTP into the record (frames whose last pass does
  // not perfectly cover all tiles).
  if (rtp_updates_ > 0 &&
      rtp_updates_ >= px_per_tile_ * num_tiles_ / 2) {
    complete_rtp(gpu_now);
  }
  const double actual = static_cast<double>(gpu_now - frame_start_);

  if (phase_ == Phase::Learning) {
    if (table_.rtp_count() > 0) phase_ = Phase::Prediction;
  } else {
    ++frames_predicted_;
    if (mid_frame_prediction_ > 0.0) {
      samples_.push_back({mid_frame_prediction_, actual});
    }
    // Cross-verification (paper Fig. 4): observed totals vs. learned totals.
    const auto learned_updates =
        static_cast<double>(table_.total_updates());
    const auto learned_accesses =
        static_cast<double>(table_.total_llc_accesses());
    const double du =
        learned_updates > 0
            ? std::abs(static_cast<double>(frame_updates_) - learned_updates) /
                  learned_updates
            : 1.0;
    const double da =
        learned_accesses > 0
            ? std::abs(static_cast<double>(frame_accesses_) -
                       learned_accesses) /
                  learned_accesses
            : 0.0;
    // Cycle divergence matters too: under access throttling the learned
    // cycles/RTP go stale; relearning (with the current throttle held by the
    // governor) re-anchors C_avg so Equation 3 tracks the throttled regime
    // and the Figure-6 controller converges geometrically onto CT.
    const auto learned_cycles = static_cast<double>(table_.total_cycles());
    const double dc =
        cfg_.relearn_on_cycles && learned_cycles > 0
            ? std::abs(actual - learned_cycles) / learned_cycles
            : 0.0;
    if (du > cfg_.relearn_threshold || da > cfg_.relearn_threshold ||
        dc > cfg_.relearn_threshold) {
      phase_ = Phase::Learning;
      ++relearns_;
    }
  }
  in_frame_ = false;
}

FrpuAuditView FrameRateEstimator::check_view(Cycle gpu_now) const {
  FrpuAuditView v;
  v.in_frame = in_frame_;
  v.num_tiles = num_tiles_;
  v.tile_slots = tile_updates_.size();
  v.tiles_at_target = tiles_at_target_;
  v.predicted_cycles = predicting() ? predicted_frame_cycles(gpu_now) : 0.0;
  return v;
}

std::uint64_t FrameRateEstimator::digest() const {
  Fnv1a64 h;
  h.mix_bool(phase_ == Phase::Prediction);
  h.mix(table_.digest());
  h.mix_bool(in_frame_);
  h.mix(frame_start_);
  h.mix(num_tiles_);
  h.mix(px_per_tile_);
  for (std::uint32_t u : tile_updates_) h.mix(u);
  h.mix(tiles_at_target_);
  h.mix(rtps_completed_);
  h.mix(rtp_start_);
  h.mix(rtp_updates_);
  h.mix(rtp_accesses_);
  h.mix(frame_updates_);
  h.mix(frame_accesses_);
  h.mix(cur_frame_rtp_cycles_);
  h.mix_double(mid_frame_prediction_);
  h.mix(samples_.size());
  h.mix(relearns_);
  h.mix(frames_predicted_);
  return h.value();
}

template <class IO>
void FrameRateEstimator::visit_state(IO& io) {
  io.enum_u8(phase_);  // 0 learning, 1 prediction
  io.sub(table_);
  io.boolean(in_frame_);
  io.u64(frame_start_);
  io.u32(num_tiles_);
  io.u64(px_per_tile_);
  io.length(tile_updates_);
  for (std::uint32_t& u : tile_updates_) io.u32(u);
  io.u32(tiles_at_target_);
  io.u32(rtps_completed_);
  io.u64(rtp_start_);
  io.u32(rtp_updates_);
  io.u32(rtp_accesses_);
  io.u64(frame_updates_);
  io.u64(frame_accesses_);
  io.u64(cur_frame_rtp_cycles_);
  io.f64(mid_frame_prediction_);
  io.length(samples_);
  for (EstimationSample& s : samples_) {
    io.f64(s.predicted_cycles);
    io.f64(s.actual_cycles);
  }
  io.u64(relearns_);
  io.u64(frames_predicted_);
}

void FrameRateEstimator::save(ckpt::StateWriter& w) { visit_state(w); }
void FrameRateEstimator::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
