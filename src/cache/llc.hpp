// Timed shared last-level cache (Table I): 16-way SRRIP, 10-cycle lookup,
// limited ports, MSHR-based miss handling, inclusive for CPU blocks
// (evictions back-invalidate the owning core) and non-inclusive for GPU
// blocks, with a pluggable bypass policy for GPU read-miss fills (used by the
// HeLM baseline and the Fig. 3 force-bypass experiment).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "check/auditors.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/mem_request.hpp"
#include "common/stats.hpp"

namespace gpuqos {

class Profiler;
class Telemetry;

/// Decides whether a GPU read-miss fill should skip LLC allocation.
class LlcBypassPolicy {
 public:
  virtual ~LlcBypassPolicy() = default;
  virtual bool should_bypass(const MemRequest& req) = 0;
};

class SharedLlc {
 public:
  /// `core` is the CPU core whose private hierarchy must drop the block;
  /// returns true when the core's copy was dirty (the LLC then writes the
  /// line back to DRAM on the core's behalf).
  using BackInvalidate = std::function<bool(unsigned core, Addr addr)>;
  using MemSender = std::function<void(MemRequest&&)>;

  SharedLlc(Engine& engine, const LlcConfig& cfg, StatRegistry& stats);

  void set_mem_sender(MemSender sender) { to_mem_ = std::move(sender); }
  void set_back_invalidate(BackInvalidate cb) { back_inval_ = std::move(cb); }
  void set_bypass_policy(LlcBypassPolicy* policy) { bypass_ = policy; }
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// A request arriving at the LLC ring stop. Reads carry `on_complete`;
  /// writes (write-backs from L2 / GPU cache flushes) are posted.
  void request(MemRequest req);

  [[nodiscard]] const SetAssocCache& tags() const { return *tags_; }
  [[nodiscard]] std::uint64_t outstanding_reads() const {
    return outstanding_reads_;
  }

  /// Snapshot for the LLC/MSHR invariant auditors (src/check). `deep` also
  /// runs the O(cache) tag-store consistency scan.
  [[nodiscard]] LlcAuditView audit_view(bool deep) const;

  /// FNV-1a digest of tags, MSHRs, deferred queues, and port state.
  [[nodiscard]] std::uint64_t digest() const;

  /// True when no miss is in flight or parked: the state a barrier drain
  /// must reach before the LLC can be checkpointed.
  [[nodiscard]] bool quiescent() const {
    return mshrs_.empty() && deferred_cpu_.empty() &&
           deferred_gpu_.empty() && outstanding_reads_ == 0;
  }

  /// Checkpoint tags and port state (docs/CHECKPOINT.md). MSHR entries hold
  /// completion closures, so save() requires quiescent() — guaranteed by the
  /// barrier drain.
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  void start_lookup(MemRequest&& req);
  void do_access(MemRequest&& req);
  void handle_read_miss(MemRequest&& req);
  void install(const MemRequest& req, bool dirty);
  void handle_eviction(const Eviction& ev);
  [[nodiscard]] Cycle reserve_port();

  Engine& engine_;
  LlcConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  StatRegistry& stats_;
  std::unique_ptr<SetAssocCache> tags_;
  MshrTable mshrs_;  // ckpt:skip: drained at the checkpoint barrier
  // Read misses parked on MSHR pressure. CPU misses drain first, and GPU
  // misses may hold at most (capacity - kCpuReservedMshrs) entries, so a
  // flooding GPU cannot starve CPU demand misses at the LLC.
  std::deque<MemRequest> deferred_cpu_;  // ckpt:skip: drained at the barrier
  std::deque<MemRequest> deferred_gpu_;  // ckpt:skip: drained at the barrier
  std::size_t gpu_held_mshrs_ = 0;
  MemSender to_mem_;            // ckpt:skip digest:skip: wiring callback
  BackInvalidate back_inval_;   // ckpt:skip digest:skip: wiring callback
  LlcBypassPolicy* bypass_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  Profiler* prof_ = nullptr;
  // Sampled-profiling decimation counter (obs/profiler.hpp).
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  Cycle port_cycle_ = 0;
  unsigned port_used_ = 0;
  std::uint64_t outstanding_reads_ = 0;  // ckpt:skip: zero at the barrier

  // Cached hot-path counters (see StatRegistry::counter_ptr).
  std::uint64_t* st_access_[2] = {};       // [cpu, gpu]
  std::uint64_t* st_hit_[2] = {};
  std::uint64_t* st_miss_[2] = {};
  std::uint64_t* st_gclass_[7] = {};       // GPU access class breakdown
  // Per-core counter pointer caches; the counters themselves live in (and
  // are checkpointed by) StatRegistry.
  std::vector<std::uint64_t*> st_cpu_access_;  // ckpt:skip digest:skip
  std::vector<std::uint64_t*> st_cpu_miss_;    // ckpt:skip digest:skip
  std::uint64_t* st_port_stall_ = nullptr;
  std::uint64_t* st_deferred_reads_ = nullptr;
  std::uint64_t* st_mshr_coalesced_ = nullptr;
  std::uint64_t* st_fill_bypassed_gpu_ = nullptr;
  std::uint64_t* st_back_invalidate_ = nullptr;
  std::uint64_t* st_gpu_evictions_ = nullptr;
  std::uint64_t* st_writebacks_ = nullptr;
  // Activity counters (obs/counters.hpp): registered eagerly so the export
  // schema is stable and digests match with or without observability.
  std::uint64_t* st_fills_ = nullptr;
  std::uint64_t* st_mshr_alloc_ = nullptr;
};

}  // namespace gpuqos
