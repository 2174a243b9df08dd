// One DDR3 channel: banks, shared data bus, read queue (policy-scheduled) and
// write queue with watermark-based draining.
//
// Event-driven idling: a channel given its ticker id (set_ticker) parks after
// a tick whose pick finds nothing to issue. With both queues empty it parks
// until enqueue() wakes it; otherwise, when the pick has no side effects
// (pick_write, and read policies whose IDramScheduler::pick_is_pure() holds),
// it parks until the earliest ready_at among the banks of the queue it
// serves, since no tick can issue before. Bank, bus and queue state only
// change in tick() or enqueue(), so the skipped ticks are no-ops.
#pragma once

#include <cstdint>
#include <memory>

#include "check/auditors.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/stats.hpp"
#include "dram/bank.hpp"
#include "dram/scheduler.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;
class Telemetry;

class Channel {
 public:
  Channel(Engine& engine, const DramConfig& cfg, unsigned index,
          StatRegistry& stats);

  /// Policy is owned by the controller (shared across channels is allowed for
  /// stateless policies; stateful ones get one instance per channel).
  void set_scheduler(IDramScheduler* sched) { sched_ = sched; }
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  void set_profiler(Profiler* prof) { prof_ = prof; }
  /// The id of the engine ticker that calls tick(); enables parking.
  void set_ticker(Engine::TickerId id) { ticker_ = id; }

  /// While attached, every enqueue/completion feeds the conservation ledger
  /// (Flow::DramRead / Flow::DramWrite: injected = retired exactly once).
  void set_check(CheckContext* check) { check_ = check; }

  /// Enqueue a request already mapped to this channel (bank/row decoded).
  void enqueue(DramQueueEntry entry);

  /// Advance one DRAM command cycle.
  void tick();

  [[nodiscard]] std::size_t read_queue_depth() const { return reads_.size(); }
  [[nodiscard]] std::size_t write_queue_depth() const { return writes_.size(); }
  [[nodiscard]] bool idle() const {
    return reads_.empty() && writes_.empty() && in_service_ == 0;
  }

  /// Snapshot for audit_channel. `read_bound` is typically the LLC MSHR pool
  /// feeding this controller; 0 disables a bound.
  [[nodiscard]] ChannelAuditView audit_view(std::size_t read_bound,
                                            std::size_t write_bound,
                                            Cycle starvation_bound) const;

  /// FNV-1a digest of queues, banks, bus reservation, and service state.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint bank/bus state (docs/CHECKPOINT.md). Queued entries hold
  /// completion closures, so save() requires idle() — guaranteed by the
  /// barrier drain (the write queue drains once the read queue empties).
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  void service_cas(DramQueueEntry&& entry, Bank& bank);
  [[nodiscard]] std::int64_t pick_write(Cycle now) const;
  /// After a tick whose pick of `q` returned -1: skip the ticks that cannot
  /// issue either.
  void park_idle(const DramQueue& q, bool pick_is_pure);

  Engine& engine_;
  DramConfig cfg_;       // ckpt:skip digest:skip: construction parameter
  ScaledTiming timing_;  // ckpt:skip digest:skip: derived from cfg_
  unsigned index_;       // ckpt:skip digest:skip: construction identity
  StatRegistry& stats_;
  std::vector<Bank> banks_;
  DramQueue reads_;   // ckpt:skip: drained at the barrier
  DramQueue writes_;  // ckpt:skip: drained at the barrier
  IDramScheduler* sched_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  Profiler* prof_ = nullptr;
  // Sampled-profiling decimation counter (obs/profiler.hpp).
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  Engine::TickerId ticker_ = Engine::kNoTicker;  // ckpt:skip digest:skip: wiring
  CheckContext* check_ = nullptr;
  Cycle bus_free_at_ = 0;
  bool draining_writes_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t in_service_ = 0;  // ckpt:skip: zero at the barrier

  std::uint64_t* st_row_hits_ = nullptr;
  std::uint64_t* st_row_misses_ = nullptr;
  std::uint64_t* st_bytes_[2][2] = {};  // [write][gpu]
  std::uint64_t* st_reads_ = nullptr;
  std::uint64_t* st_writes_ = nullptr;
  std::uint64_t* st_read_lat_ = nullptr;
  std::uint64_t* st_read_lat_src_[2] = {};  // [gpu]
  std::uint64_t* st_reads_src_[2] = {};
  // Per-channel activity counters (obs/counters.hpp): DDR command mix for
  // the power proxy. Registered eagerly; bumped unconditionally.
  std::uint64_t* st_act_ = nullptr;   // "dram.ch<i>.act"
  std::uint64_t* st_pre_ = nullptr;   // "dram.ch<i>.pre"
  std::uint64_t* st_rd_ = nullptr;    // "dram.ch<i>.rd"
  std::uint64_t* st_wr_ = nullptr;    // "dram.ch<i>.wr"

  friend class DramController;
};

}  // namespace gpuqos
