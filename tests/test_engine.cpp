#include "common/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/engine_ref.hpp"
#include "common/rng.hpp"
#include "common/smallfn.hpp"

namespace gpuqos {
namespace {

TEST(Engine, EventsFireAtScheduledCycle) {
  Engine e;
  Cycle fired = kNoCycle;
  e.schedule(5, [&] { fired = e.now(); });
  e.run_for(10);
  EXPECT_EQ(fired, 5u);
}

TEST(Engine, SameCycleEventsRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(3, [&] { order.push_back(1); });
  e.schedule(3, [&] { order.push_back(2); });
  e.schedule(3, [&] { order.push_back(3); });
  e.run_for(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 4) e.schedule(2, chain);
  };
  e.schedule(0, chain);
  e.run_for(10);
  EXPECT_EQ(count, 4);
}

TEST(Engine, ZeroDelayFromEventRunsSameCycle) {
  Engine e;
  Cycle inner = kNoCycle;
  e.schedule(2, [&] { e.schedule(0, [&] { inner = e.now(); }); });
  e.run_for(3);
  EXPECT_EQ(inner, 2u);
}

TEST(Engine, TickerPeriodAndPhase) {
  Engine e;
  std::vector<Cycle> fires;
  e.add_ticker(4, 1, [&](Cycle c) { fires.push_back(c); });
  e.run_for(12);
  EXPECT_EQ(fires, (std::vector<Cycle>{1, 5, 9}));
}

TEST(Engine, TickerEveryCycle) {
  Engine e;
  int n = 0;
  e.add_ticker(1, 0, [&](Cycle) { ++n; });
  e.run_for(7);
  EXPECT_EQ(n, 7);
}

TEST(Engine, EventsBeforeTickersWithinCycle) {
  Engine e;
  std::vector<int> order;
  e.add_ticker(1, 0, [&](Cycle c) {
    if (c == 2) order.push_back(2);
  });
  e.schedule(2, [&] { order.push_back(1); });
  e.run_for(4);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ZeroDelayFromTickerRunsSameCycle) {
  Engine e;
  Cycle fired = kNoCycle;
  e.add_ticker(1, 0, [&](Cycle c) {
    if (c == 3 && fired == kNoCycle) {
      e.schedule(0, [&] { fired = e.now(); });
    }
  });
  e.run_for(5);
  EXPECT_EQ(fired, 3u);
}

TEST(Engine, RunUntilStopsOnPredicate) {
  Engine e;
  int ticks = 0;
  e.add_ticker(1, 0, [&](Cycle) { ++ticks; });
  const Cycle ran = e.run_until([&] { return ticks >= 5; }, 100);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, RunUntilHonorsCap) {
  Engine e;
  const Cycle ran = e.run_until([] { return false; }, 37);
  EXPECT_EQ(ran, 37u);
}

// ---------------------------------------------------------------------------
// Timing-wheel specifics: the wheel holds the next kWheelSize cycles; longer
// delays spill to the far heap and must refill in (when, seq) order.

TEST(EngineWheel, FarFutureSpillFiresInWhenOrder) {
  Engine e;
  std::vector<std::pair<Cycle, int>> trace;
  // All far beyond the wheel horizon, scheduled out of cycle order.
  e.schedule(5000, [&] { trace.emplace_back(e.now(), 2); });
  e.schedule(300, [&] { trace.emplace_back(e.now(), 0); });
  e.schedule(1000, [&] { trace.emplace_back(e.now(), 1); });
  e.schedule(7, [&] { trace.emplace_back(e.now(), -1); });  // near: direct
  e.run_for(6000);
  const std::vector<std::pair<Cycle, int>> want{
      {7, -1}, {300, 0}, {1000, 1}, {5000, 2}};
  EXPECT_EQ(trace, want);
}

TEST(EngineWheel, SameCycleStableAcrossNearFarBoundary) {
  Engine e;
  std::vector<int> order;
  // First lands in the far heap (delay 300 > wheel size); after advancing,
  // the second targets the same absolute cycle through the near path.
  e.schedule(300, [&] { order.push_back(1); });
  e.run_for(200);
  e.schedule(100, [&] { order.push_back(2); });
  e.run_for(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // schedule (seq) order
}

TEST(EngineWheel, ManySameCycleEventsStayStableThroughSpill) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    e.schedule(1000, [&order, i] { order.push_back(i); });
  }
  e.run_for(1100);
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineWheel, SkipAheadPreservesEventAndTickerSchedule) {
  // Sparse workload: run_for may jump over idle gaps. The observable
  // schedule must match the reference engine stepping every cycle.
  auto drive = [](auto& e) {
    std::vector<std::pair<Cycle, int>> trace;
    e.add_ticker(700, 13, [&e, &trace](Cycle c) {
      trace.emplace_back(c, -1);
      if (c < 4000) {
        e.schedule(911, [&e, &trace] { trace.emplace_back(e.now(), 1); });
      }
    });
    e.schedule(2500, [&e, &trace] { trace.emplace_back(e.now(), 2); });
    e.run_for(6000);
    return trace;
  };
  Engine fast;
  ReferenceEngine ref;
  EXPECT_EQ(drive(fast), drive(ref));
  EXPECT_EQ(fast.now(), ref.now());
}

TEST(EngineWheel, PendingEventsCountsNearAndFar) {
  Engine e;
  e.schedule(3, [] {});
  e.schedule(1000, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  EXPECT_EQ(e.next_event_cycle(), 3u);
  e.run_for(10);
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_EQ(e.next_event_cycle(), 1000u);
}

TEST(EngineWheel, DigestReflectsQueueState) {
  Engine a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.schedule(5, [] {});
  EXPECT_NE(a.digest(), b.digest());  // pending event is part of the digest
  b.schedule(5, [] {});
  EXPECT_EQ(a.digest(), b.digest());
  a.schedule(1000, [] {});  // far-heap occupancy too
  EXPECT_NE(a.digest(), b.digest());
}

// ---------------------------------------------------------------------------
// Differential check: a seeded random workload must unfold identically on
// the production engine and on the frozen pre-overhaul ReferenceEngine.

struct WorkloadRun {
  std::vector<std::pair<Cycle, int>> trace;
  // Parking ticker: slots it skipped (Engine, derived from slot_horizon) and
  // slots on which it fired without work to do (never, on Engine).
  std::uint64_t skipped = 0;
  std::uint64_t noop_fires = 0;
};

template <typename E>
WorkloadRun random_workload_trace() {
  constexpr bool kParks = std::is_same_v<E, Engine>;
  E e;
  Rng rng(0xC0FFEE);
  WorkloadRun run;
  auto& trace = run.trace;
  int next_id = 0;

  // The parking ticker P (period 2, registered between the other two) goes
  // to sleep over random spans, or until woken. On Engine it parks; on the
  // ReferenceEngine it keeps firing and does nothing while asleep — the
  // never-parking behaviour parking must reproduce exactly.
  constexpr Cycle kParkPeriod = 2;
  std::size_t parker = 0;
  bool asleep = false;
  Cycle sleep_until = kNoCycle;
  Cycle settled = 0;  // Engine: last slot counted in `skipped`
  auto settle = [&](Cycle horizon) {
    run.skipped += (horizon - settled) / kParkPeriod;
    settled = horizon;
  };
  auto wake = [&](int tag) {
    if (!asleep) return;
    trace.emplace_back(e.now(), tag);
    asleep = false;
    if constexpr (kParks) {
      settle(e.slot_horizon(parker));
      e.wake(parker);
    }
  };

  // Period-1 ticker as in the real sims, registered first. On cycles where
  // the period-3 ticker also fires it schedules a zero-delay event, which
  // pins the ticker ordering contract: same-cycle tickers fire in
  // registration order, and zero-delay work from a ticker runs only after
  // every ticker of that cycle. It wakes P from a ticker registered before
  // P, and its zero-delay events wake P from the trailing event phase —
  // also on cycles where no ticker after P fires.
  e.add_ticker(1, 0, [&](Cycle c) {
    trace.emplace_back(c, -2);
    if (c % 3 == 1) {
      e.schedule(0, [&e, &trace, &wake] {
        trace.emplace_back(e.now(), -3);
        if (e.now() % 4 == 1) wake(-7);
      });
    } else if (c % 6 == 3) {
      e.schedule(0, [&wake] { wake(-9); });
    }
    if (c % 11 == 5) wake(-5);
  });
  auto parker_tick = [&](Cycle c) {
    if (asleep) {
      if (sleep_until == kNoCycle || c < sleep_until) {
        ++run.noop_fires;
        return;
      }
      asleep = false;  // the span ran out; this slot is a real tick
      if constexpr (kParks) settle(c - kParkPeriod);
    }
    trace.emplace_back(c, -4);
    if (c < 3500 && rng.bernoulli(0.3)) {
      asleep = true;
      sleep_until = rng.bernoulli(0.5) ? kNoCycle : c + 1 + rng.next_below(60);
      if constexpr (kParks) {
        settled = c;
        e.park(parker, sleep_until);
      }
    }
  };
  if constexpr (kParks) {
    parker = e.add_ticker(kParkPeriod, 1, parker_tick);
  } else {
    e.add_ticker(kParkPeriod, 1, parker_tick);
  }
  // Registered after P: wakes it from a later ticker, and its events (delay
  // 0 included) wake it from both event phases.
  e.add_ticker(3, 1, [&](Cycle c) {
    trace.emplace_back(c, -1);
    if (c < 3000 && rng.bernoulli(0.7)) {
      const int id = next_id++;
      // Delays straddle the wheel horizon so near, boundary, and far paths
      // all see traffic.
      const Cycle d = rng.next_below(700);
      e.schedule(d, [&e, &trace, &wake, id] {
        trace.emplace_back(e.now(), id);
        if (id % 5 == 0) wake(-6);
      });
    }
    if (c % 7 == 3) wake(-8);
  });
  e.run_for(4000);
  if constexpr (kParks) {
    if (asleep) settle(e.slot_horizon(parker));
  }
  return run;
}

TEST(EngineDifferential, RandomWorkloadMatchesReferenceEngine) {
  const WorkloadRun fast = random_workload_trace<Engine>();
  const WorkloadRun ref = random_workload_trace<ReferenceEngine>();
  ASSERT_EQ(fast.trace.size(), ref.trace.size());
  EXPECT_EQ(fast.trace, ref.trace);
  // Cycle 1: period-1 ticker, parking ticker, period-3 ticker, then the
  // zero-delay event.
  const std::vector<std::pair<Cycle, int>> head{
      {0, -2}, {1, -2}, {1, -4}, {1, -1}, {1, -3}};
  ASSERT_GE(fast.trace.size(), head.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), fast.trace.begin()));
  // Every slot the parked ticker skipped is one the reference fired for
  // nothing, and the parked ticker itself never fired for nothing.
  EXPECT_EQ(fast.noop_fires, 0u);
  EXPECT_GT(ref.noop_fires, 100u);
  EXPECT_EQ(fast.skipped, ref.noop_fires);
}

// ---------------------------------------------------------------------------
// SmallFn: the engine's non-allocating callable.

TEST(SmallFn, InvokesInlineAndHeapCallables) {
  SmallFn<int(int), 16> small([](int x) { return x + 1; });
  EXPECT_EQ(small(41), 42);

  struct Big {
    char pad[128] = {};
    int operator()(int x) { return x * 2; }
  };
  SmallFn<int(int), 16> big(Big{});  // larger than the buffer: heap path
  EXPECT_EQ(big(21), 42);
}

TEST(SmallFn, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  SmallFn<void(), 64> a([counter] { ++*counter; });
  SmallFn<void(), 64> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
}

TEST(SmallFn, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(7);
  SmallFn<int(), 64> f([p = std::move(owned)] { return *p; });
  EXPECT_EQ(f(), 7);
}

}  // namespace
}  // namespace gpuqos
