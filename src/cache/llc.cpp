#include "cache/llc.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace gpuqos {
namespace {

/// MSHR entries a flooding GPU may never occupy (kept free for CPU misses).
constexpr std::size_t kCpuReservedMshrs = 8;

CacheConfig llc_tag_config(const LlcConfig& cfg) {
  CacheConfig c;
  c.size_bytes = cfg.size_bytes;
  c.ways = cfg.ways;
  c.block_bytes = cfg.block_bytes;
  c.latency = cfg.latency;
  c.srrip = true;  // Table I: two-bit SRRIP
  return c;
}

}  // namespace

SharedLlc::SharedLlc(Engine& engine, const LlcConfig& cfg, StatRegistry& stats)
    : engine_(engine),
      cfg_(cfg),
      stats_(stats),
      tags_(std::make_unique<SetAssocCache>(llc_tag_config(cfg), "llc")),
      mshrs_(cfg.mshrs) {
  st_access_[0] = stats_.counter_ptr("llc.access.cpu");
  st_access_[1] = stats_.counter_ptr("llc.access.gpu");
  st_hit_[0] = stats_.counter_ptr("llc.hit.cpu");
  st_hit_[1] = stats_.counter_ptr("llc.hit.gpu");
  st_miss_[0] = stats_.counter_ptr("llc.miss.cpu");
  st_miss_[1] = stats_.counter_ptr("llc.miss.gpu");
  for (int c = 0; c < 7; ++c) {
    st_gclass_[c] = stats_.counter_ptr(
        "llc.access.gpu." + to_string(static_cast<GpuAccessClass>(c)));
  }
  for (unsigned i = 0; i < 8; ++i) {
    st_cpu_access_.push_back(
        stats_.counter_ptr("llc.access.cpu" + std::to_string(i)));
    st_cpu_miss_.push_back(
        stats_.counter_ptr("llc.miss.cpu" + std::to_string(i)));
  }
  st_port_stall_ = stats_.counter_ptr("llc.port_stall_cycles");
  // Activity counters (obs/counters.hpp): unconditional, so the stats
  // digest is identical with and without observability attached.
  st_fills_ = stats_.counter_ptr("llc.fills");
  st_mshr_alloc_ = stats_.counter_ptr("llc.mshr_allocations");
}

namespace {
// Bump a lazily-created counter through a cached pointer. Creation stays
// on-first-use (an untouched counter must not appear in reports or the stats
// digest), but the string-keyed map lookup is paid once instead of per event.
inline void bump_lazy(std::uint64_t*& slot, StatRegistry& stats,
                      const char* name) {
  if (slot == nullptr) slot = stats.counter_ptr(name);
  ++*slot;
}
}  // namespace

Cycle SharedLlc::reserve_port() {
  const Cycle now = engine_.now();
  if (port_cycle_ < now) {
    port_cycle_ = now;
    port_used_ = 0;
  }
  while (port_used_ >= cfg_.ports) {
    ++port_cycle_;
    port_used_ = 0;
    ++*st_port_stall_;
  }
  ++port_used_;
  return port_cycle_;
}

void SharedLlc::request(MemRequest req) {
  req.addr = tags_->block_base(req.addr);
  const Cycle start = reserve_port();
  const Cycle done = start + cfg_.latency;
  if (telemetry_ != nullptr) {
    telemetry_->record_latency(LatStage::LlcLookup, req.source.is_gpu(),
                               done - engine_.now());
  }
  engine_.schedule(done - engine_.now(),
                   [this, r = std::move(req)]() mutable { do_access(std::move(r)); });
}

void SharedLlc::do_access(MemRequest&& req) {
  SampledProfScope<16> prof(prof_, ProfModule::Llc, prof_decim_);
  const bool gpu = req.source.is_gpu();
  ++*st_access_[gpu];
  if (gpu) {
    ++*st_gclass_[static_cast<int>(req.gclass)];
  } else {
    ++*st_cpu_access_[req.source.index];
  }

  if (req.is_write) {
    // Write-backs are full-line: allocate without fetching from DRAM
    // (paper footnote 6: dirty ROP lines flush to the LLC with no DRAM read).
    if (tags_->lookup(req.addr, /*write=*/true)) {
      ++*st_hit_[gpu];
      return;
    }
    ++*st_miss_[gpu];
    if (!gpu) ++*st_cpu_miss_[req.source.index];
    install(req, /*dirty=*/true);
    return;
  }

  if (tags_->lookup(req.addr, /*write=*/false)) {
    ++*st_hit_[gpu];
    if (req.on_complete) req.on_complete(engine_.now());
    return;
  }
  ++*st_miss_[gpu];
  if (!gpu) ++*st_cpu_miss_[req.source.index];
  handle_read_miss(std::move(req));
}

void SharedLlc::handle_read_miss(MemRequest&& req) {
  const bool gpu = req.source.is_gpu();
  // Stage stamp: first time this miss is seen (deferred re-entries keep the
  // original stamp so MSHR wait covers the whole parked period).
  if (telemetry_ != nullptr && req.miss_at == 0) req.miss_at = engine_.now();
  const std::size_t reserved =
      std::min<std::size_t>(kCpuReservedMshrs, mshrs_.capacity() / 2);
  const bool gpu_quota_hit = gpu && !mshrs_.pending(req.addr) &&
                             gpu_held_mshrs_ + reserved >= mshrs_.capacity();
  if (mshrs_.full_for(req.addr) || gpu_quota_hit) {
    // Structural stall: park the miss until an MSHR frees (stats for this
    // access were already counted exactly once in do_access).
    bump_lazy(st_deferred_reads_, stats_, "llc.deferred_reads");
    (gpu ? deferred_gpu_ : deferred_cpu_).push_back(std::move(req));
    return;
  }

  const bool is_new = mshrs_.allocate(req.addr, std::move(req.on_complete));
  if (is_new) ++*st_mshr_alloc_;
  if (telemetry_ != nullptr) {
    // MSHR acquisition wait: zero when granted immediately, the parked time
    // for misses that sat in a deferred queue (coalesces count too — they
    // stopped waiting for an entry at this point).
    telemetry_->record_latency(LatStage::MshrWait, gpu,
                               engine_.now() - req.miss_at);
  }
  if (!is_new) {
    bump_lazy(st_mshr_coalesced_, stats_, "llc.mshr_coalesced");
    return;
  }

  ++outstanding_reads_;
  if (gpu) ++gpu_held_mshrs_;
  // Build the DRAM request field-by-field and hand `req` itself to the
  // completion closure: the old `to_dram = req; [miss = req]` spelling
  // copied the request (std::function included) twice per miss. `req`'s
  // on_complete was already moved into the MSHR waiter list above; the
  // closure only reads the address/source/stamp fields.
  MemRequest to_dram;
  to_dram.addr = req.addr;
  to_dram.source = req.source;
  to_dram.gclass = req.gclass;
  to_dram.issued_at = req.issued_at;
  to_dram.miss_at = req.miss_at;
  to_dram.on_complete = [this, miss = std::move(req)](Cycle when) mutable {
    (void)when;
    ProfScope prof(prof_, ProfModule::Llc);
    --outstanding_reads_;
    if (telemetry_ != nullptr && miss.miss_at != 0) {
      telemetry_->record_latency(LatStage::LlcMissRoundtrip,
                                 miss.source.is_gpu(),
                                 engine_.now() - miss.miss_at);
    }
    const bool bypass = miss.source.is_gpu() && bypass_ != nullptr &&
                        bypass_->should_bypass(miss);
    if (bypass) {
      bump_lazy(st_fill_bypassed_gpu_, stats_, "llc.fill_bypassed.gpu");
    } else {
      install(miss, /*dirty=*/false);
    }
    for (auto& cb : mshrs_.complete(miss.addr)) {
      if (cb) cb(engine_.now());
    }
    if (miss.source.is_gpu() && gpu_held_mshrs_ > 0) --gpu_held_mshrs_;
    // One MSHR just freed: admit one parked miss, CPU demand first.
    auto& q = !deferred_cpu_.empty() ? deferred_cpu_ : deferred_gpu_;
    if (!q.empty()) {
      MemRequest next = std::move(q.front());
      q.pop_front();
      engine_.schedule(0, [this, r = std::move(next)]() mutable {
        handle_read_miss(std::move(r));
      });
    }
  };
  GPUQOS_CHECK(to_mem_, "read miss with no memory sender wired");
  to_mem_(std::move(to_dram));
}

void SharedLlc::install(const MemRequest& req, bool dirty) {
  ++*st_fills_;
  auto ev = tags_->fill(req.addr, req.source, req.gclass, dirty);
  if (ev) handle_eviction(*ev);
}

LlcAuditView SharedLlc::audit_view(bool deep) const {
  LlcAuditView v;
  v.mshr = mshrs_.audit_view();
  // Every requester that can wait on one block: all CPU cores' outstanding
  // reads plus the full GPU memory queue could coalesce in the worst case.
  // The owner knows neither count, so leave 0 (unchecked) and let
  // attach_checks fill it from the configuration.
  v.deferred_cpu = deferred_cpu_.size();
  v.deferred_gpu = deferred_gpu_.size();
  v.gpu_held_mshrs = gpu_held_mshrs_;
  v.outstanding_reads = outstanding_reads_;
  v.valid_blocks = tags_->valid_blocks();
  v.capacity_blocks = tags_->config().sets() * tags_->config().ways;
  if (deep) v.tag_error = tags_->consistency_error();
  return v;
}

std::uint64_t SharedLlc::digest() const {
  Fnv1a64 h;
  h.mix(tags_->digest());
  h.mix(mshrs_.digest());
  for (const auto* q : {&deferred_cpu_, &deferred_gpu_}) {
    h.mix(q->size());
    for (const MemRequest& r : *q) {
      h.mix(r.addr);
      h.mix_bool(r.source.is_gpu());
      h.mix_byte(r.source.index);
    }
  }
  h.mix(gpu_held_mshrs_);
  h.mix(outstanding_reads_);
  h.mix(port_cycle_);
  h.mix(port_used_);
  return h.value();
}

template <class IO>
void SharedLlc::visit_state(IO& io) {
  io.require(quiescent(),
             "llc has misses in flight: the simulation was not drained "
             "before checkpointing");
  io.sub(*tags_);
  io.u64(gpu_held_mshrs_);
  io.u64(port_cycle_);
  io.u32(port_used_);
}

void SharedLlc::save(ckpt::StateWriter& w) { visit_state(w); }
void SharedLlc::load(ckpt::StateReader& r) { visit_state(r); }

void SharedLlc::handle_eviction(const Eviction& ev) {
  bool dirty = ev.dirty;
  if (ev.owner.is_cpu()) {
    // Inclusive for CPU blocks: the owning core must drop its private copies.
    bump_lazy(st_back_invalidate_, stats_, "llc.back_invalidate");
    if (back_inval_ && back_inval_(ev.owner.index, ev.block_addr)) dirty = true;
  } else {
    bump_lazy(st_gpu_evictions_, stats_, "llc.gpu_evictions");
  }
  if (dirty && to_mem_) {
    MemRequest wb;
    wb.addr = ev.block_addr;
    wb.is_write = true;
    wb.source = ev.owner;
    wb.gclass = ev.gclass;
    wb.issued_at = engine_.now();
    bump_lazy(st_writebacks_, stats_, "llc.writebacks");
    to_mem_(std::move(wb));
  }
}

}  // namespace gpuqos
