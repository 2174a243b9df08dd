#include "gpu/memiface.hpp"

#include <utility>

#include "check/check.hpp"
#include "check/context.hpp"
#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "obs/profiler.hpp"

namespace gpuqos {

GpuMemInterface::GpuMemInterface(const GpuConfig& cfg, StatRegistry& stats)
    : cfg_(cfg), stats_(stats), issue_width_(cfg.llc_issue_width) {
  st_issued_ = stats_.counter_ptr("gpu.llc_accesses");
  st_throttled_ = stats_.counter_ptr("gpu.gmi_throttled_cycles");
  st_full_ = stats_.counter_ptr("gpu.gmi_full_rejections");
  st_atu_grants_ = stats_.counter_ptr("qos.atu_token_grants");
  st_atu_denials_ = stats_.counter_ptr("qos.atu_token_denials");
}

bool GpuMemInterface::enqueue(MemRequest&& req) {
  if (queue_.size() >= cfg_.mem_queue_depth) {
    ++*st_full_;
    return false;
  }
  queue_.push_back(std::move(req));
  return true;
}

void GpuMemInterface::tick(Cycle gpu_now) {
  SampledProfScope<16> prof(prof_, ProfModule::GpuMem, prof_decim_);
  GPUQOS_CHECK(sender_, "GMI has no LLC sender wired");
  if (cfg_.llc_issue_interval > 1 && gpu_now % cfg_.llc_issue_interval != 0) {
    return;
  }
  for (unsigned i = 0; i < issue_width_ && !queue_.empty(); ++i) {
    if (gate_ != nullptr && !gate_->allow(gpu_now)) {
      ++*st_throttled_;
      ++*st_atu_denials_;
      return;
    }
    MemRequest req = std::move(queue_.front());
    queue_.pop_front();
    if (gate_ != nullptr) {
      gate_->on_issued(gpu_now);
      ++*st_atu_grants_;
    }
    if (observer_ != nullptr) observer_->on_llc_access(gpu_now);
    if (check_ != nullptr) {
      if (req.is_write) {
        check_->on_inject(CheckContext::Flow::GpuWrite);
      } else {
        check_->on_inject(CheckContext::Flow::GpuRead);
        req.on_complete = check_->guard_retire(std::move(req.on_complete),
                                               CheckContext::Flow::GpuRead);
      }
    }
    ++issued_;
    ++*st_issued_;
    sender_(std::move(req));
  }
}

std::uint64_t GpuMemInterface::digest() const {
  Fnv1a64 h;
  h.mix(queue_.size());
  for (const MemRequest& req : queue_) {
    h.mix(req.addr);
    h.mix_bool(req.is_write);
    h.mix_byte(static_cast<std::uint8_t>(req.gclass));
    h.mix(req.issued_at);
  }
  h.mix(issued_);
  return h.value();
}

template <class IO>
void GpuMemInterface::visit_state(IO& io) {
  io.require(queue_.empty(),
             "gmi has queued requests: the simulation was not drained "
             "before checkpointing");
  io.u64(issued_);
}

void GpuMemInterface::save(ckpt::StateWriter& w) { visit_state(w); }
void GpuMemInterface::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
