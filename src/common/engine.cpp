#include "common/engine.hpp"

#include <algorithm>
#include <utility>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

void Engine::schedule(Cycle delay, Action fn) {
  const Cycle when = now_ + delay;
  if (delay < kWheelSize) {
    // Direct insert: the bucket for `when` can only hold events of `when`
    // (it was drained when the wheel last passed it). Appending preserves
    // global (when, seq) order only if every far event for `when` (all of
    // which carry smaller seqs) is already in the bucket — normally true
    // because the run loop refills each cycle, but now_ can also advance by
    // an idle skip-ahead, so top up the wheel if the far heap intrudes into
    // the horizon. One compare in the common case.
    if (!far_.empty() && far_.front().when <= now_ + kWheelMask) {
      refill_wheel();
    }
    buckets_[when & kWheelMask].push_back(EventNode{seq_++, std::move(fn)});
    ++near_count_;
  } else {
    far_.push_back(FarEvent{when, seq_++, std::move(fn)});
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
}

Engine::TickerId Engine::add_ticker(Cycle period, Cycle phase, TickFn fn) {
  Ticker t{period, phase % period, 0, std::move(fn)};
  t.next_fire = t.slot_at_or_after(now_);
  min_next_fire_ = std::min(min_next_fire_, t.next_fire);
  tickers_.push_back(std::move(t));
  return tickers_.size() - 1;
}

Cycle Engine::open_slot(TickerId id) const {
  return tickers_[id].slot_at_or_after(id < cursor_ ? now_ + 1 : now_);
}

void Engine::park(TickerId id, Cycle until) {
  Ticker& t = tickers_[id];
  // fire_tickers advanced next_fire before the callback, so the ticker's
  // own next slot is the floor; fire_tickers folds the result afterwards.
  t.next_fire = until == kNoCycle
                    ? kNoCycle
                    : std::max(t.next_fire, t.slot_at_or_after(until));
}

void Engine::wake(TickerId id) {
  Ticker& t = tickers_[id];
  const Cycle slot = open_slot(id);
  if (slot >= t.next_fire) return;  // awake
  t.next_fire = slot;
  // Mid-loop, fire_tickers folds every ticker it has yet to visit itself
  // (and fires one woken for now_); folding such a ticker here would pin
  // the minimum to a slot the loop is about to consume.
  if (cursor_ == 0 || id < cursor_) {
    min_next_fire_ = std::min(min_next_fire_, slot);
  }
}

Cycle Engine::slot_horizon(TickerId id) const {
  const Cycle open = open_slot(id);
  const Cycle period = tickers_[id].period;
  return open >= period ? open - period : kNoCycle;
}

void Engine::refill_wheel() {
  const Cycle horizon = now_ + kWheelMask;  // wheel now covers [now_, horizon]
  while (!far_.empty() && far_.front().when <= horizon) {
    std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
    FarEvent ev = std::move(far_.back());
    far_.pop_back();
    buckets_[ev.when & kWheelMask].push_back(
        EventNode{ev.seq, std::move(ev.fn)});
    ++near_count_;
  }
}

void Engine::drain_bucket() {
  auto& bucket = buckets_[now_ & kWheelMask];
  // Index loop, size re-read each iteration: an action may schedule a
  // zero-delay event, which appends to this same bucket and (matching the
  // original engine's "run everything due" loop) still runs this cycle.
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    // Move out before calling: the action may grow the bucket (reallocating)
    // while this node is live.
    Action fn = std::move(bucket[i].fn);
    fn();
    ++events_run_;
  }
  near_count_ -= bucket.size();
  bucket.clear();  // keeps capacity — steady state does no allocation
}

void Engine::fire_tickers() {
  min_next_fire_ = kNoCycle;
  for (std::size_t i = 0; i < tickers_.size(); ++i) {
    Ticker& t = tickers_[i];
    if (t.next_fire == now_) {
      // Advance first so the callback may park() over the next slot.
      t.next_fire += t.period;
      cursor_ = i + 1;
      t.fn(now_);
      ++ticks_run_;
    }
    min_next_fire_ = std::min(min_next_fire_, t.next_fire);
  }
}

void Engine::step_cycle() {
  refill_wheel();
  drain_bucket();
  if (min_next_fire_ == now_) fire_tickers();
  // Zero-delay events scheduled by tickers still belong to this cycle.
  cursor_ = kPastTickers;
  drain_bucket();
  ++now_;
  cursor_ = 0;
}

void Engine::step() { step_cycle(); }

Cycle Engine::next_event_cycle() const {
  if (near_count_ > 0) {
    for (Cycle k = 0; k < kWheelSize; ++k) {
      if (!buckets_[(now_ + k) & kWheelMask].empty()) return now_ + k;
    }
  }
  return far_.empty() ? kNoCycle : far_.front().when;
}

Cycle Engine::run_until(const std::function<bool()>& pred, Cycle max_cycles) {
  const Cycle start = now_;
  const Cycle end = start + max_cycles;
  while (now_ < end) {
    if (pred()) break;
    refill_wheel();
    if (buckets_[now_ & kWheelMask].empty() && min_next_fire_ > now_) {
      // Idle cycle: nothing can run until the next event or ticker. Jump
      // there (capped at `end`) without burning a loop iteration per cycle.
      const Cycle target =
          std::min({end, min_next_fire_, next_event_cycle()});
      now_ = target;
      continue;
    }
    step_cycle();
  }
  return now_ - start;
}

void Engine::run_for(Cycle cycles) {
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    refill_wheel();
    if (buckets_[now_ & kWheelMask].empty() && min_next_fire_ > now_) {
      now_ = std::min({end, min_next_fire_, next_event_cycle()});
      continue;
    }
    step_cycle();
  }
}

std::uint64_t Engine::digest() const {
  Fnv1a64 h;
  h.mix(now_);
  h.mix(seq_);
  h.mix(near_count_);
  h.mix(far_.size());
  // Ticker count is deliberately NOT folded: audit/digest/telemetry tickers
  // vary with instrumentation flags, and a digest must compare equal across
  // a --check run and a plain --digest-out run of the same simulation.
  h.mix(next_event_cycle());
  // Wheel occupancy: (slot, size) for each populated bucket, walked in cycle
  // order from now_ so the fold is a function of queue *state*, not of where
  // the wheel happens to be positioned modulo 256.
  for (Cycle k = 0; k < kWheelSize; ++k) {
    const auto& b = buckets_[(now_ + k) & kWheelMask];
    if (!b.empty()) {
      h.mix(k);
      h.mix(b.size());
      h.mix(b.front().seq);
    }
  }
  return h.value();
}

void Engine::save(ckpt::StateWriter& w) const {
  if (pending_events() != 0) {
    throw ckpt::CkptError(
        "engine save() with events still pending: the simulation was not "
        "drained before checkpointing");
  }
  w.u64(now_);
  w.u64(seq_);
  w.u64(events_run_);
  w.u64(ticks_run_);
  w.u64(tickers_.size());
  for (TickerId id = 0; id < tickers_.size(); ++id) {
    w.u64(tickers_[id].period);
    w.u64(open_slot(id));  // a parked ticker is saved awake
  }
}

void Engine::load(ckpt::StateReader& r) {
  if (pending_events() != 0) {
    r.fail("engine load() target already has scheduled events");
  }
  now_ = r.u64();
  seq_ = r.u64();
  events_run_ = r.u64();
  ticks_run_ = r.u64();
  const std::uint64_t count = r.u64();
  if (count != tickers_.size()) {
    r.fail("ticker count mismatch (snapshot has " + std::to_string(count) +
           ", this run registered " + std::to_string(tickers_.size()) +
           "); a resumed run must attach the same instrumentation "
           "(telemetry/check intervals, policy, mix) as the run that "
           "produced the snapshot");
  }
  min_next_fire_ = kNoCycle;
  for (auto& t : tickers_) {
    const Cycle period = r.u64();
    const Cycle next_fire = r.u64();
    if (period != t.period) {
      r.fail("ticker period mismatch (snapshot has " + std::to_string(period) +
             ", this run registered " + std::to_string(t.period) +
             "); tickers must be registered in the same order with the same "
             "periods as the run that produced the snapshot");
    }
    t.phase = next_fire % period;
    t.next_fire = next_fire;
    min_next_fire_ = std::min(min_next_fire_, next_fire);
  }
}

}  // namespace gpuqos
