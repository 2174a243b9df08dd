#include "qos/atu.hpp"

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

AccessThrottler::AccessThrottler(const QosConfig& cfg)
    : cfg_(cfg), ng_(cfg.ng_init), tokens_left_(cfg.ng_init) {}

void AccessThrottler::update(double cp, double ct,
                             std::uint64_t accesses_per_frame) {
  ng_ = cfg_.ng_init;
  if (cp > ct) {
    // GPU is at or below the target frame rate: give it full bandwidth.
    wg_ = 0;
    blocked_until_ = 0;
    return;
  }
  if (accesses_per_frame == 0) return;
  const double bound = (ct - cp) / static_cast<double>(accesses_per_frame);
  if (static_cast<double>(wg_) < bound) wg_ += cfg_.wg_step;
}

void AccessThrottler::disable() {
  wg_ = 0;
  blocked_until_ = 0;
  tokens_left_ = ng_;
}

bool AccessThrottler::allow(Cycle gpu_now) {
  if (wg_ == 0) {
    ++grants_;
    return true;
  }
  if (gpu_now < blocked_until_) return false;
  if (tokens_left_ == 0) tokens_left_ = ng_;  // blocked window elapsed
  ++grants_;
  return true;
}

void AccessThrottler::on_issued(Cycle gpu_now) {
  ++issues_;
  if (wg_ == 0) return;
  if (tokens_left_ > 0) --tokens_left_;
  if (tokens_left_ == 0) {
    // Arming a new disabled window while the previous one is still running
    // would double-charge the GPU; the auditor flags any occurrence.
    if (blocked_until_ > gpu_now) ++window_overlaps_;
    blocked_until_ = gpu_now + wg_;
  }
}

AtuAuditView AccessThrottler::check_view() const {
  AtuAuditView v;
  v.ng = ng_;
  v.wg = wg_;
  v.tokens_left = tokens_left_;
  v.blocked_until = blocked_until_;
  v.grants = grants_;
  v.issues = issues_;
  v.window_overlaps = window_overlaps_;
  return v;
}

std::uint64_t AccessThrottler::digest() const {
  Fnv1a64 h;
  h.mix(ng_);
  h.mix(wg_);
  h.mix(tokens_left_);
  h.mix(blocked_until_);
  h.mix(grants_);
  h.mix(issues_);
  h.mix(window_overlaps_);
  return h.value();
}

template <class IO>
void AccessThrottler::visit_state(IO& io) {
  io.u32(ng_);
  io.u64(wg_);
  io.u32(tokens_left_);
  io.u64(blocked_until_);
  io.u64(grants_);
  io.u64(issues_);
  io.u64(window_overlaps_);
}

void AccessThrottler::save(ckpt::StateWriter& w) { visit_state(w); }
void AccessThrottler::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
