// Interval-model out-of-order CPU core.
//
// The core commits up to `commit_width` instructions per cycle from a
// synthetic stream. Loads that miss the private hierarchy become outstanding
// LLC requests; commit stalls when (a) a dependent load is unresolved,
// (b) the reorder window past the oldest outstanding miss is exhausted, or
// (c) L2 MSHRs are full. This captures the latency/bandwidth sensitivity the
// paper's policies act on without simulating a full pipeline.
//
// Event-driven stalls: a core given its ticker id (set_ticker) parks after
// a tick that ends in an L2-hit penalty, a dependent-miss stall or a
// ROB-full stall, since every tick until that stall ends would only bump
// its stall counter. It wakes on its own at the end of an L2-hit penalty,
// on the completion of the blocking miss, or on the completion of any
// demand miss (a ROB-full stall: the next tick compacts outstanding_,
// which the digest folds). The skipped ticks' stalls are added lazily by a
// StatRegistry settle hook before any counter read. An MSHR-full stall
// keeps ticking: each attempt touches the L1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/mem_request.hpp"
#include "common/stats.hpp"
#include "cpu/stream.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;

class CpuCore {
 public:
  using MemPort = std::function<void(MemRequest&&)>;

  CpuCore(Engine& engine, const CpuCoreConfig& cfg, unsigned index,
          std::unique_ptr<CpuStream> stream, StatRegistry& stats);
  ~CpuCore();
  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  void set_mem_port(MemPort port) { port_ = std::move(port); }

  /// While attached, every LLC read this core issues feeds the conservation
  /// ledger (Flow::CpuRead), with duplicate-completion detection.
  void set_check(CheckContext* check) { check_ = check; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// Advance one CPU cycle (registered as a period-1 ticker by HeteroCmp; or
  /// called directly by tests).
  void tick(Cycle now);

  /// The id of the engine ticker that calls tick(). Call once; from then on
  /// the core parks through its stalls (see the header comment).
  void set_ticker(Engine::TickerId id);

  /// Drop `addr` from the private hierarchy (LLC back-invalidation).
  /// Returns true when a dirty copy existed (the LLC then owns writing it
  /// back to DRAM).
  bool back_invalidate(Addr addr);

  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] unsigned index() const { return index_; }
  [[nodiscard]] std::uint64_t outstanding_misses() const {
    return outstanding_.size();
  }
  /// Structural ceiling on this core's in-flight LLC reads (demand misses
  /// plus stream prefetches) — the conservation ledger's CpuRead bound.
  [[nodiscard]] std::uint64_t max_reads_in_flight() const {
    return cfg_.l2_mshrs + kMaxPrefetchInFlight;
  }
  [[nodiscard]] const SetAssocCache& l1d() const { return *l1d_; }
  [[nodiscard]] const SetAssocCache& l2() const { return *l2_; }

  /// FNV-1a digest of the core's architectural state (commit count, stall
  /// bookkeeping, private caches, outstanding misses, prefetch trackers).
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint barrier support (docs/CHECKPOINT.md): a frozen core's tick()
  /// returns immediately — no commits, no new misses, no stat bumps — while
  /// in-flight completions still land (they only mark outstanding_ entries
  /// done and fill caches). Freezing all injectors lets the engine drain.
  /// A parked core settles and wakes first, so frozen cycles never count as
  /// stalls.
  void freeze() {
    if (park_ != Park::None) unpark();
    frozen_ = true;
  }
  void unfreeze() { frozen_ = false; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// True when no LLC read of this core is still in flight.
  [[nodiscard]] bool quiescent() const {
    if (prefetches_in_flight_ > 0) return false;
    for (const Miss& m : outstanding_) {
      if (!m.done) return false;
    }
    return true;
  }

  /// Checkpoint the architectural state; requires quiescent(). load()
  /// targets a freshly-constructed core with the same configuration.
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);

  struct Miss {
    std::uint64_t seq;   // committed-instruction count at issue
    bool done = false;
  };
  /// Why a parked core is parked; names the stall counter its skipped ticks
  /// owe.
  enum class Park : std::uint8_t { None, Fixed, Dependent, Rob };

  /// Attempt to execute the pending memory op; false on a structural or
  /// dependency stall (commit cannot proceed this cycle).
  bool execute_mem_op(Cycle now);
  void send_llc_read(Addr block, Cycle now);
  void send_llc_write(Addr block, Cycle now);
  [[nodiscard]] bool rob_full() const;
  void l2_insert(Addr block, bool dirty, Cycle now);
  /// After a stall-ending tick at `now`: skip the ticks the stall makes
  /// no-ops (no-op without a ticker id).
  void park(Park why, Cycle now);
  /// Add the stalls of the ticks skipped so far to the parked counter.
  void settle_stalls();
  /// Settle, then resume ticking at the first slot not yet passed.
  void unpark();

  Engine& engine_;
  CpuCoreConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  unsigned index_;     // ckpt:skip digest:skip: construction identity
  std::unique_ptr<CpuStream> stream_;
  StatRegistry& stats_;
  MemPort port_;  // ckpt:skip digest:skip: wiring callbacks to the LLC
  CheckContext* check_ = nullptr;

  std::unique_ptr<SetAssocCache> l1d_;
  std::unique_ptr<SetAssocCache> l2_;

  MicroOp pending_{};
  bool has_pending_ = false;
  // Checkpoint barrier: tick() is a no-op while set, managed around save().
  bool frozen_ = false;  // ckpt:skip digest:skip: barrier flag
  std::uint32_t gap_left_ = 0;

  std::uint64_t committed_ = 0;
  Cycle resume_at_ = 0;                  // short fixed-latency stalls
  std::vector<Miss> outstanding_;        // in-flight LLC reads
  std::int64_t blocking_miss_ = -1;      // seq of the awaited miss, or -1
  // digest:skip: resolved-entry count awaiting compaction, derived from
  // outstanding_ (whose per-entry done flags are digested).
  unsigned done_misses_ = 0;  // digest:skip

  // Stream prefetcher: detects ascending block streams on L2 misses and
  // runs ahead, hiding DRAM latency for streaming workloads the way the L2
  // prefetchers of real cores do.
  struct StreamTracker {
    Addr next = 0;
    bool valid = false;
  };
  static constexpr unsigned kStreamTrackers = 4;
  static constexpr unsigned kPrefetchDegree = 4;
  static constexpr unsigned kMaxPrefetchInFlight = 12;
  StreamTracker trackers_[kStreamTrackers] = {};
  unsigned tracker_rr_ = 0;
  unsigned prefetches_in_flight_ = 0;  // ckpt:skip: zero at the barrier
  void maybe_prefetch(Addr miss_block, Cycle now);

  std::string stat_prefix_;  // ckpt:skip digest:skip: diagnostic label
  // Parking is host-side scheduling: a parked core's architectural state is
  // exactly that of one ticking through its stall, and freeze() unparks it
  // before any barrier.
  Engine::TickerId ticker_ = Engine::kNoTicker;  // ckpt:skip digest:skip: wiring
  Park park_ = Park::None;      // ckpt:skip digest:skip: host-side schedule
  Cycle settled_through_ = 0;   // ckpt:skip digest:skip: host-side schedule
  Profiler* prof_ = nullptr;
  // Host-side decimation counter for the sampled profiler scope; never
  // touches simulated state.
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  std::uint64_t* st_stall_fixed_ = nullptr;
  std::uint64_t* st_stall_dep_ = nullptr;
  std::uint64_t* st_stall_rob_ = nullptr;
  std::uint64_t* st_stall_struct_ = nullptr;
  std::uint64_t* st_llc_reads_ = nullptr;
  std::uint64_t* st_llc_writes_ = nullptr;
  std::uint64_t* st_read_lat_ = nullptr;
  std::uint64_t* st_prefetches_ = nullptr;
  std::uint64_t* st_committed_ = nullptr;  // activity counter
};

}  // namespace gpuqos
