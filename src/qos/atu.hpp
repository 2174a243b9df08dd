// Access Throttling Unit (paper Section III-B, Figures 6-7).
//
// Token mechanism: the GPU may issue NG LLC accesses, then its LLC ports are
// disabled for WG GPU cycles. The controller (Figure 6) adapts WG from the
// predicted cycles/frame CP, the target cycles/frame CT, and the learned LLC
// accesses per frame A:
//     if CP > CT:            NG = 1, WG = 0          (GPU too slow: no throttle)
//     else if WG < (CT-CP)/A: WG += 2                (tighten gradually)
#pragma once

#include <cstdint>

#include "check/auditors.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "gpu/memiface.hpp"

namespace gpuqos {

class AccessThrottler : public AccessGate {
 public:
  explicit AccessThrottler(const QosConfig& cfg);

  /// Figure 6 controller step. Inputs in GPU cycles / accesses per frame.
  void update(double cp, double ct, std::uint64_t accesses_per_frame);

  /// Stop throttling entirely (estimator fell back to the learning phase).
  void disable();

  // AccessGate
  [[nodiscard]] bool allow(Cycle gpu_now) override;
  void on_issued(Cycle gpu_now) override;

  [[nodiscard]] Cycle wg() const { return wg_; }
  [[nodiscard]] unsigned ng() const { return ng_; }
  [[nodiscard]] bool throttling() const { return wg_ > 0; }

  /// Snapshot for audit_atu: token accounting plus the grant/issue tallies
  /// that prove the GMI never bypasses the gate.
  [[nodiscard]] AtuAuditView check_view() const;

  /// FNV-1a digest of the throttle state (NG, WG, tokens, window).
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint the token mechanism and grant/issue tallies
  /// (docs/CHECKPOINT.md).
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  QosConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  unsigned ng_;
  Cycle wg_ = 0;
  unsigned tokens_left_;
  Cycle blocked_until_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t issues_ = 0;
  std::uint64_t window_overlaps_ = 0;
};

}  // namespace gpuqos
