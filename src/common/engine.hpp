// Cycle-driven simulation engine.
//
// The engine owns the base clock (CPU cycles). Components interact two ways:
//  * Tickers: registered callbacks invoked every `period` base cycles with a
//    fixed phase — used by CPU cores (period 1), the GPU pipeline (period 4),
//    and the DRAM channels (period 4). A ticker whose next ticks would be
//    no-ops may park itself and be woken later (see "Parking" below).
//  * Events: one-shot callbacks scheduled `delay` cycles in the future — used
//    for message delivery, cache lookup completion, and DRAM data return.
//
// Events scheduled for the same cycle run in scheduling order (stable), and
// all events of a cycle run before that cycle's tickers. Tickers due on the
// same cycle fire in registration order (HeteroCmp registers the GPU memory
// interface before the pipeline so it ticks first), and a zero-delay event
// scheduled by a ticker runs after every ticker of that cycle.
//
// Internals (docs/PERFORMANCE.md has the full story; engine_ref.hpp keeps the
// original priority-queue implementation as a semantic oracle):
//  * Near-future events (delay < kWheelSize) go straight into a 256-bucket
//    timing wheel — one bucket per cycle, append-ordered, so same-cycle FIFO
//    ordering is free and draining a cycle is a linear vector walk instead of
//    log(n) heap pops.
//  * Far-future events wait in a (when, seq) min-heap and are refilled into
//    the wheel as the horizon reaches them — eagerly by the run loop, and on
//    demand by schedule() when the far heap intrudes into the horizon (the
//    clock can jump via idle skip-ahead) — so bucket append order always
//    equals global (when, seq) order.
//  * Event callbacks are SmallFn, not std::function: payloads up to 104 bytes
//    (a MemRequest-capturing closure) live inline in the event node — zero
//    heap traffic per event in steady state, since buckets recycle capacity.
//  * Tickers carry a precomputed absolute `next_fire` cycle instead of being
//    modulo-tested every cycle, and the engine caches the minimum across
//    tickers, so a no-ticker cycle costs one comparison.
//  * run_for/run_until skip ahead over provably idle gaps (no due event, no
//    due ticker) instead of stepping through them. The run_until predicate
//    is not evaluated inside a skipped gap, and parked tickers make gaps
//    common even with period-1 cores, so a predicate with a cycle threshold
//    must also make that cycle a run target (max_cycles) or it may observe
//    an overshoot. A predicate over simulated state is exact: state only
//    changes on stepped cycles, and the predicate runs after every one.
//
// Parking (docs/PERFORMANCE.md, "Event-driven cores and DRAM channels"):
//  * park(id, until), called from ticker `id`'s own callback, skips its slots
//    before `until` (kNoCycle: until woken). wake(id) re-arms it at its first
//    slot that has not yet passed: the current cycle when called from the
//    leading event phase or from a ticker registered before it, otherwise
//    its next slot. slot_horizon(id) is the last cycle whose slot for `id`
//    has passed, fired or skipped — what a parked component needs to count
//    its skipped ticks lazily.
//  * Parking only moves a ticker's next_fire; no wake-up schedules an event,
//    so seq_ and the engine digest are those of a never-parking run. save()
//    writes every ticker's next awake slot, so a snapshot holds the same
//    schedule too; only the host-side ticks_run_ count differs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/smallfn.hpp"
#include "common/types.hpp"

namespace gpuqos {

namespace ckpt {
class StateWriter;
class StateReader;
}  // namespace ckpt

class Engine {
 public:
  /// Inline capacity covers a closure capturing a MemRequest plus a pointer;
  /// larger (or potentially-throwing) payloads fall back to the heap.
  using Action = SmallFn<void(), 104>;
  using TickFn = SmallFn<void(Cycle)>;
  using TickerId = std::size_t;
  /// Ticker id of a component never given one (it never parks).
  static constexpr TickerId kNoTicker = ~TickerId{0};

  static constexpr std::uint32_t kWheelBits = 8;
  static constexpr Cycle kWheelSize = Cycle{1} << kWheelBits;
  static constexpr Cycle kWheelMask = kWheelSize - 1;

  Engine() : buckets_(kWheelSize) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedule `fn` to run `delay` cycles from now (delay 0 = later this cycle
  /// if scheduled from an event, or next event phase if from a ticker).
  void schedule(Cycle delay, Action fn);

  /// Register a periodic ticker. Tickers fire on cycles where
  /// (cycle % period) == phase; same-cycle tickers in registration order.
  TickerId add_ticker(Cycle period, Cycle phase, TickFn fn);

  /// From ticker `id`'s own callback: skip its slots before `until`
  /// (kNoCycle = until woken). Only a ticker whose skipped ticks would be
  /// no-ops may park, and it must count anything those ticks would have
  /// counted itself (slot_horizon).
  void park(TickerId id, Cycle until);

  /// Re-arm ticker `id` at its first slot that has not yet passed. A no-op
  /// for a ticker that is awake.
  void wake(TickerId id);

  /// Last cycle whose slot for ticker `id` has passed (fired or skipped), or
  /// kNoCycle when none has.
  [[nodiscard]] Cycle slot_horizon(TickerId id) const;

  /// Advance one cycle: run due events, then tickers.
  void step();

  /// Run until `pred` returns true or `max_cycles` elapse. Returns cycles run.
  /// Idle gaps are skipped without re-evaluating `pred` (see header comment).
  Cycle run_until(const std::function<bool()>& pred, Cycle max_cycles);

  /// Run a fixed number of cycles (idle gaps skipped, end cycle exact).
  void run_for(Cycle cycles);

  [[nodiscard]] std::size_t pending_events() const {
    return near_count_ + far_.size();
  }

  /// Cycle of the earliest pending event, or kNoCycle if none.
  [[nodiscard]] Cycle next_event_cycle() const;

  /// Total events executed / ticker callbacks fired since construction
  /// (perf accounting for bench/perf_engine; not part of the digest).
  [[nodiscard]] std::uint64_t events_run() const { return events_run_; }
  [[nodiscard]] std::uint64_t ticks_run() const { return ticks_run_; }

  /// FNV-1a digest of the engine clock and queue state (determinism
  /// auditing). Event payloads are closures, so the schedule *shape* folds
  /// in: clock, sequence counter, near/far queue sizes, next-due cycle, and
  /// per-bucket occupancy of the timing wheel.
  [[nodiscard]] std::uint64_t digest() const;

  /// Serialize the clock and ticker phases (docs/CHECKPOINT.md). Event
  /// payloads are closures and cannot be serialized, so save() requires the
  /// engine to be drained (pending_events() == 0) — HeteroCmp's barrier
  /// drain guarantees this. Each ticker is saved at its next awake slot, so
  /// a parked ticker restores awake.
  void save(ckpt::StateWriter& w) const;

  /// Restore into a freshly-constructed engine whose tickers have already
  /// been registered. The ticker list must match the saved one (same count,
  /// same periods in registration order); a mismatch means the resumed run
  /// attached different instrumentation and is rejected with CkptError.
  void load(ckpt::StateReader& r);

 private:
  struct EventNode {
    std::uint64_t seq;
    Action fn;
  };
  struct FarEvent {
    Cycle when;
    std::uint64_t seq;
    Action fn;
    // min-heap via std::push_heap/pop_heap with std::greater-style compare
    bool operator>(const FarEvent& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  struct Ticker {
    Cycle period;
    Cycle phase;
    Cycle next_fire;  // absolute cycle of the next firing (later if parked)
    TickFn fn;

    /// First slot at or after cycle `c`.
    [[nodiscard]] Cycle slot_at_or_after(Cycle c) const {
      const Cycle rem = c % period;
      return c + (phase >= rem ? phase - rem : period - (rem - phase));
    }
  };
  /// cursor_ value for the trailing event phase: every slot of now_ passed.
  static constexpr std::size_t kPastTickers = ~std::size_t{0};

  /// First slot of ticker `id` that has not yet passed.
  [[nodiscard]] Cycle open_slot(TickerId id) const;

  /// Move far events whose cycle entered the wheel horizon into buckets.
  void refill_wheel();
  /// Run every event in the current cycle's bucket (including ones appended
  /// mid-drain by zero-delay schedules), then release the bucket.
  void drain_bucket();
  /// Fire tickers due at now_ in registration order and recompute the
  /// cached minimum next_fire (wake() keeps it exact mid-loop).
  void fire_tickers();
  /// One full cycle at now_ (events, tickers, trailing events), then advance.
  void step_cycle();

  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_run_ = 0;  // digest:skip: perf accounting only
  std::uint64_t ticks_run_ = 0;   // digest:skip: perf accounting only
  // Wheel/heap contents are digested (in-flight events must match between
  // runs) but never serialized: save() requires the quiescent barrier.
  std::size_t near_count_ = 0;                   // ckpt:skip: zero at barrier
  std::vector<std::vector<EventNode>> buckets_;  // ckpt:skip: wheel, drained
  std::vector<FarEvent> far_;                    // ckpt:skip: heap, drained
  // Ticker registrations differ between instrumented and plain runs, so they
  // are excluded from the digest; their schedule is recomputed on load.
  std::vector<Ticker> tickers_;     // digest:skip: instrumentation varies
  Cycle min_next_fire_ = kNoCycle;  // ckpt:skip digest:skip: cached minimum
  // Position within now_: tickers below it have passed their slot (0 =
  // leading event phase, kPastTickers = trailing). Always 0 between cycles,
  // where save() and digest() run.
  std::size_t cursor_ = 0;  // ckpt:skip digest:skip: transient position
};

}  // namespace gpuqos
