#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "common/qos_signals.hpp"
#include "common/rng.hpp"
#include "dram/bank.hpp"
#include "dram/frfcfs.hpp"
#include "sched/cpu_prio.hpp"
#include "sched/dynprio.hpp"
#include "sched/sms.hpp"

namespace gpuqos {
namespace {

ScaledTiming timing() {
  return ScaledTiming::from(DramTiming{}, kDramClockDivider);
}

TEST(Bank, RowHitFasterThanConflict) {
  const ScaledTiming t = timing();
  Bank hit_bank, conflict_bank;
  hit_bank.begin_activate(5, 0, t);
  conflict_bank.begin_activate(9, 0, t);
  // Warm CAS so tRAS accounting is comparable; measure the second access.
  const Cycle now = 400;
  // Row hit: CAS can go as soon as the bank is ready.
  EXPECT_TRUE(hit_bank.is_row_hit(5));
  const Cycle hit_done = hit_bank.cas(false, now, t);
  // Conflict: needs precharge + activate first.
  conflict_bank.begin_activate(5, now, t);
  EXPECT_GT(conflict_bank.ready_at(), now + t.tRP);
  const Cycle conflict_done =
      conflict_bank.cas(false, conflict_bank.ready_at(), t);
  EXPECT_LT(hit_done, conflict_done);
}

TEST(Bank, ActivateRespectsTras) {
  const ScaledTiming t = timing();
  Bank b;
  b.begin_activate(1, 0, t);
  const Cycle first_ready = b.ready_at();
  // Immediately conflicting activate must wait out tRAS from the first
  // activate before precharging.
  b.begin_activate(2, first_ready, t);
  EXPECT_GE(b.ready_at(), t.tRAS + t.tRP + t.tRCD);
}

TEST(Bank, ReadLatencyIsClPlusBurst) {
  const ScaledTiming t = timing();
  Bank b;
  b.begin_activate(0, 0, t);
  const Cycle cas_at = b.ready_at();
  const Cycle done = b.cas(false, cas_at, t);
  EXPECT_EQ(done - cas_at, t.tCL + t.tBurst);
}

TEST(Bank, WriteRecoveryDelaysNextCas) {
  const ScaledTiming t = timing();
  Bank b;
  b.begin_activate(0, 0, t);
  const Cycle cas_at = b.ready_at();
  (void)b.cas(true, cas_at, t);
  EXPECT_GE(b.ready_at(), cas_at + t.tBurst + t.tWTR);
}

TEST(FrFcfs, PrefersIssuableRowHit) {
  // Bank 1 has row 7 open and is ready; bank 0 is closed.
  const std::vector<Bank> bank_state{Bank{}, Bank::for_test(true, 7, 0)};
  const BankView banks(bank_state);
  FrFcfsScheduler sched;
  DramQueue q;
  DramQueueEntry a;
  a.id = 1;
  a.bank = 0;
  a.row = 3;
  a.arrival = 0;
  DramQueueEntry b;
  b.id = 2;
  b.bank = 1;
  b.row = 7;
  b.arrival = 5;
  q.push_back(a);
  q.push_back(b);
  EXPECT_EQ(sched.pick(q, banks, 10), 2);  // row hit wins over older conflict
}

TEST(FrFcfs, StarvationCapPromotesOldest) {
  const std::vector<Bank> bank_state{Bank{}, Bank::for_test(true, 7, 0)};
  const BankView banks(bank_state);
  FrFcfsScheduler sched(/*starvation_cap=*/100);
  DramQueue q;
  DramQueueEntry a;
  a.id = 1;
  a.bank = 0;
  a.row = 3;
  a.arrival = 0;
  DramQueueEntry b;
  b.id = 2;
  b.bank = 1;
  b.row = 7;
  b.arrival = 5;
  q.push_back(a);
  q.push_back(b);
  EXPECT_EQ(sched.pick(q, banks, 200), 1);  // aged past the cap
}

TEST(FrFcfs, SkipsBusyBanks) {
  // Bank 0 has row 1 open but is mid-activate until cycle 1000; bank 1 is
  // free. Each source class has a row hit waiting on the busy bank.
  const std::vector<Bank> bank_state{Bank::for_test(true, 1, 1000), Bank{}};
  const BankView banks(bank_state);
  DramQueue q;
  DramQueueEntry a;
  a.id = 1;
  a.bank = 0;
  a.row = 1;  // row hit but bank busy
  a.req.source = SourceId::gpu();
  DramQueueEntry b;
  b.id = 2;
  b.bank = 1;
  b.row = 9;  // conflict on a free bank
  DramQueueEntry c;
  c.id = 3;
  c.bank = 0;
  c.row = 1;  // row hit but bank busy
  q.push_back(a);
  q.push_back(b);
  q.push_back(c);
  // With bank 1 busy too, no queued request's bank is ready until cycle 500.
  const std::vector<Bank> all_busy{Bank::for_test(true, 1, 1000),
                                   Bank::for_test(false, 0, 500)};

  // Every policy that declares a pure pick, in every QoS signal state, must
  // skip the busy bank, and return -1 exactly while no queued request's bank
  // is ready: a DRAM channel parks on that (dram/channel.hpp).
  QosSignals sig;
  FrFcfsScheduler frfcfs;
  CpuPriorityScheduler cpu_prio(&sig);
  DynPrioScheduler dynprio(&sig);
  for (unsigned bits = 0; bits < 16; ++bits) {
    sig.cpu_prio_boost = (bits & 1u) != 0;
    sig.estimating = (bits & 2u) != 0;
    sig.gpu_urgent = (bits & 4u) != 0;
    sig.gpu_meets_target = (bits & 8u) != 0;
    for (IDramScheduler* sched :
         std::initializer_list<IDramScheduler*>{&frfcfs, &cpu_prio, &dynprio}) {
      SCOPED_TRACE("signal bits " + std::to_string(bits));
      EXPECT_TRUE(sched->pick_is_pure());
      EXPECT_EQ(sched->pick(q, banks, 10), 2);
      EXPECT_EQ(sched->pick(q, BankView(all_busy), 10), -1);
      EXPECT_EQ(sched->pick(q, BankView(all_busy), 499), -1);
      EXPECT_EQ(sched->pick(q, BankView(all_busy), 500), 2);
    }
  }
}

// A channel that parks while idle (set_ticker) must be indistinguishable
// from one ticking every DRAM cycle: the same channel and stats digests on
// every cycle, read after the channel's tick (a later ticker) and before it
// (a leading-phase event), and the same completions.
struct ChannelRig {
  using Seen = std::tuple<Cycle, int, std::uint64_t, std::uint64_t>;
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  std::unique_ptr<IDramScheduler> sched;
  Channel ch;
  std::vector<Seen> seen;
  std::function<void()> probe_event;
  std::uint64_t completed = 0;
  Rng rng{11};

  ChannelRig(std::unique_ptr<IDramScheduler> s, bool parks)
      : sched(std::move(s)), ch(engine, cfg, 0, stats) {
    ch.set_scheduler(sched.get());
    const Engine::TickerId id =
        engine.add_ticker(kDramClockDivider, 0, [this](Cycle) { ch.tick(); });
    if (parks) ch.set_ticker(id);
    // Registered after the channel: also enqueues straight from a ticker,
    // so wake-ups come from both event phases and from a later ticker.
    engine.add_ticker(1, 0, [this](Cycle now) {
      seen.emplace_back(now, 1, ch.digest(), stats.digest());
      traffic(now);
    });
    probe_event = [this] {
      seen.emplace_back(engine.now(), 0, ch.digest(), stats.digest());
      engine.schedule(1, probe_event);
    };
    engine.schedule(0, probe_event);
  }

  void enqueue(unsigned bank, std::uint64_t row, SourceId source,
               bool is_write) {
    DramQueueEntry e;
    e.bank = bank;
    e.row = row;
    e.req.is_write = is_write;
    e.req.source = source;
    e.req.addr = (row << 20) | (bank << 12);
    if (!is_write) e.req.on_complete = [this](Cycle) { ++completed; };
    ch.enqueue(std::move(e));
  }

  void enqueue() {
    const auto bank =
        static_cast<unsigned>(rng.next_below(cfg.banks_per_channel));
    const std::uint64_t row = rng.next_below(4);  // hits and conflicts
    const bool is_write = rng.bernoulli(0.35);
    enqueue(bank, row, rng.bernoulli(0.5) ? SourceId::gpu() : SourceId::cpu(1),
            is_write);
  }

  void traffic(Cycle now) {
    // Scripted first: the GPU's forming SMS batch ages out while every
    // queued request waits on busy bank 0, then a same-row GPU read
    // arrives. It must start a new batch, so an SMS channel may not skip
    // those ticks even though no pick can succeed in them.
    if (now == 0) enqueue(0, 5, SourceId::cpu(1), false);
    if (now == 50) enqueue(0, 7, SourceId::gpu(), false);
    if (now == 297) enqueue(0, 7, SourceId::gpu(), false);
    // Then bursts separated by idle gaps: empty queues, busy banks, write
    // drains.
    if (now > 0 && now % 3000 == 0) {
      const std::uint64_t burst = 1 + rng.next_below(80);
      for (std::uint64_t i = 0; i < burst; ++i) {
        // Most arrive in the leading event phase of a later cycle; some
        // arrive from this ticker, or from this cycle's trailing phase.
        const std::uint64_t how = rng.next_below(8);
        if (how == 0) {
          enqueue();
        } else if (how == 1) {
          engine.schedule(0, [this] { enqueue(); });
        } else {
          engine.schedule(1 + rng.next_below(1500), [this] { enqueue(); });
        }
      }
    }
  }
};

void expect_parked_channel_matches(
    const std::function<std::unique_ptr<IDramScheduler>()>& make) {
  ChannelRig ref(make(), /*parks=*/false);
  ChannelRig parked(make(), /*parks=*/true);
  ref.engine.run_for(60'000);
  parked.engine.run_for(60'000);
  ASSERT_EQ(ref.seen.size(), parked.seen.size());
  for (std::size_t i = 0; i < ref.seen.size(); ++i) {
    ASSERT_EQ(ref.seen[i], parked.seen[i])
        << "first divergence at cycle " << std::get<0>(ref.seen[i])
        << (std::get<1>(ref.seen[i]) == 0 ? " (event phase)" : " (ticker)");
  }
  EXPECT_GT(ref.completed, 100u);
  EXPECT_EQ(ref.completed, parked.completed);
  EXPECT_GT(ref.stats.counter("dram.writes"), 100u);
  EXPECT_LT(parked.engine.ticks_run(), ref.engine.ticks_run());
}

TEST(Channel, ParkedChannelMatchesTickingChannelUnderFrFcfs) {
  expect_parked_channel_matches(
      [] { return std::make_unique<FrFcfsScheduler>(); });
}

TEST(Channel, ParkedChannelMatchesTickingChannelUnderSms) {
  expect_parked_channel_matches([] {
    return std::make_unique<SmsScheduler>(SmsScheduler::Params{}, Rng(5));
  });
}

TEST(Controller, AddressMappingIsConsistent) {
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  DramController dram(engine, cfg, stats, [](unsigned) {
    return std::make_unique<FrFcfsScheduler>();
  });
  // Consecutive blocks interleave across channels.
  EXPECT_NE(dram.channel_of(0), dram.channel_of(64));
  EXPECT_EQ(dram.channel_of(0), dram.channel_of(128));
  // Blocks within one row share bank and row.
  const Addr a = 0x100000;
  EXPECT_EQ(dram.bank_of(a), dram.bank_of(a + 128));
  EXPECT_EQ(dram.row_of(a), dram.row_of(a + 128));
  // Rows differ eventually.
  bool row_changed = false;
  for (Addr off = 0; off < 64 * MiB; off += 1 * MiB) {
    if (dram.row_of(a + off) != dram.row_of(a)) row_changed = true;
  }
  EXPECT_TRUE(row_changed);
}

TEST(Controller, ReadCompletesWithPlausibleLatency) {
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  DramController dram(engine, cfg, stats, [](unsigned) {
    return std::make_unique<FrFcfsScheduler>();
  });
  Cycle done = kNoCycle;
  MemRequest req;
  req.addr = 0x4000;
  req.is_write = false;
  req.source = SourceId::cpu(0);
  req.on_complete = [&](Cycle c) { done = c; };
  dram.request(std::move(req));
  engine.run_for(2000);
  ASSERT_NE(done, kNoCycle);
  // Cold access: activate (tRCD) + CAS (tCL) + burst, all x4 base cycles,
  // plus up to one DRAM tick of alignment.
  const ScaledTiming t = timing();
  EXPECT_GE(done, t.tRCD + t.tCL + t.tBurst);
  EXPECT_LE(done, t.tRP + t.tRCD + t.tCL + t.tBurst + 16);
  EXPECT_TRUE(dram.idle());
}

TEST(Controller, RowHitStreamBeatsRandomAccesses) {
  auto run = [](bool sequential) {
    Engine engine;
    StatRegistry stats;
    DramConfig cfg;
    cfg.channels = 1;
    DramController dram(engine, cfg, stats, [](unsigned) {
      return std::make_unique<FrFcfsScheduler>();
    });
    Rng rng(3);
    int done = 0;
    for (int i = 0; i < 64; ++i) {
      MemRequest req;
      req.addr = sequential ? static_cast<Addr>(i) * 64
                            : rng.next_below(1 << 20) * 64;
      req.is_write = false;
      req.source = SourceId::cpu(0);
      req.on_complete = [&](Cycle) { ++done; };
      dram.request(std::move(req));
    }
    const Cycle t = engine.run_until([&] { return done == 64; }, 200000);
    return t;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Controller, WriteDrainServesWrites) {
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  cfg.channels = 1;
  DramController dram(engine, cfg, stats, [](unsigned) {
    return std::make_unique<FrFcfsScheduler>();
  });
  for (int i = 0; i < 60; ++i) {
    MemRequest req;
    req.addr = static_cast<Addr>(i) * 64;
    req.is_write = true;
    req.source = SourceId::gpu();
    dram.request(std::move(req));
  }
  engine.run_until([&] { return dram.idle(); }, 500000);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(stats.counter("dram.writes"), 60u);
}

}  // namespace
}  // namespace gpuqos
