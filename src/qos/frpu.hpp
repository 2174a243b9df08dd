// Frame Rate Prediction Unit (paper Section III-A).
//
// Observes render-target updates, LLC accesses, and frame boundaries from
// the pipeline (via FrameObserver) and alternates between a *learning* phase
// (one full frame recorded into the RTP table) and a *prediction* phase
// (Equations 1-3). Observed data is cross-verified against the learned data;
// divergence beyond a threshold discards the table and relearns (Figure 4).
//
// RTP boundary detection: an RTP is "a batch of updates that covers all
// tiles of the render target", so RTP k completes when every tile has
// received at least k * (pixels per tile) updates.
#pragma once

#include <cstdint>
#include <vector>

#include "check/auditors.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "gpu/scene.hpp"
#include "qos/rtp_table.hpp"

namespace gpuqos {

class FrameRateEstimator : public FrameObserver {
 public:
  enum class Phase { Learning, Prediction };

  struct EstimationSample {
    double predicted_cycles = 0;  // prediction standing at mid-frame
    double actual_cycles = 0;
  };

  explicit FrameRateEstimator(const QosConfig& cfg);

  // FrameObserver
  void on_frame_start(const SceneFrame& frame, Cycle gpu_now) override;
  void on_rt_update(unsigned tile, Cycle gpu_now) override;
  void on_llc_access(Cycle gpu_now) override;
  void on_frame_complete(Cycle gpu_now) override;

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] bool predicting() const { return phase_ == Phase::Prediction; }

  /// Equation 3: predicted cycles for the frame currently being rendered.
  /// Only meaningful while predicting; returns 0 otherwise.
  [[nodiscard]] double predicted_frame_cycles(Cycle gpu_now) const;

  /// Fraction of the current frame rendered (lambda of Equation 2).
  [[nodiscard]] double frame_progress() const;

  /// GPU cycles spent in the current frame so far.
  [[nodiscard]] Cycle frame_elapsed(Cycle gpu_now) const {
    return in_frame_ ? gpu_now - frame_start_ : 0;
  }

  /// The `A` input of the throttling algorithm: learned LLC accesses/frame.
  [[nodiscard]] std::uint64_t learned_accesses_per_frame() const {
    return table_.total_llc_accesses();
  }

  [[nodiscard]] const RtpTable& table() const { return table_; }

  /// One sample per frame completed in the prediction phase (Fig. 8 data).
  [[nodiscard]] const std::vector<EstimationSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint64_t relearn_events() const { return relearns_; }
  [[nodiscard]] std::uint64_t frames_predicted() const {
    return frames_predicted_;
  }

  /// Snapshot for audit_frpu (tile bookkeeping, Eq. 3 output).
  [[nodiscard]] FrpuAuditView check_view(Cycle gpu_now) const;

  /// FNV-1a digest of the estimator state, including the RTP table.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint the estimator, its RTP table, and the Fig.-8 sample log
  /// (docs/CHECKPOINT.md).
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  void complete_rtp(Cycle gpu_now);
  void recount_tiles_at_target();

  QosConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  Phase phase_ = Phase::Learning;
  RtpTable table_;

  // Current-frame tracking.
  bool in_frame_ = false;
  Cycle frame_start_ = 0;
  unsigned num_tiles_ = 0;
  std::uint64_t px_per_tile_ = 0;
  std::vector<std::uint32_t> tile_updates_;
  unsigned tiles_at_target_ = 0;
  std::uint32_t rtps_completed_ = 0;
  Cycle rtp_start_ = 0;
  std::uint32_t rtp_updates_ = 0;
  std::uint32_t rtp_accesses_ = 0;
  std::uint64_t frame_updates_ = 0;
  std::uint64_t frame_accesses_ = 0;
  std::uint64_t cur_frame_rtp_cycles_ = 0;  // cycles in completed RTPs

  // Prediction bookkeeping.
  double mid_frame_prediction_ = 0.0;
  std::vector<EstimationSample> samples_;
  std::uint64_t relearns_ = 0;
  std::uint64_t frames_predicted_ = 0;
};

}  // namespace gpuqos
