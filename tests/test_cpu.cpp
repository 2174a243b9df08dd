#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "cpu/stream.hpp"
#include "workloads/spec.hpp"

namespace gpuqos {
namespace {

SpecProfile simple_profile() {
  SpecProfile p;
  p.name = "test";
  p.mem_op_fraction = 0.25;
  p.store_fraction = 0.2;
  p.dependent_fraction = 0.3;
  p.llc_apki = 10.0;
  p.stream_fraction = 0.2;
  p.llc_ws_bytes = 256 * KiB;
  p.hot_bytes = 8 * KiB;
  p.stream_bytes = 4 * MiB;
  return p;
}

TEST(CpuStream, Deterministic) {
  CpuStream a(simple_profile(), 0x1000000, Rng(5));
  CpuStream b(simple_profile(), 0x1000000, Rng(5));
  for (int i = 0; i < 500; ++i) {
    const MicroOp x = a.next(), y = b.next();
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.gap, y.gap);
    EXPECT_EQ(x.is_store, y.is_store);
  }
}

TEST(CpuStream, MemOpFractionApproximatelyHolds) {
  CpuStream s(simple_profile(), 0, Rng(6));
  std::uint64_t instrs = 0;
  const int ops = 20000;
  for (int i = 0; i < ops; ++i) instrs += s.next().gap + 1;
  const double frac = static_cast<double>(ops) / static_cast<double>(instrs);
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(CpuStream, StoreFractionApproximatelyHolds) {
  CpuStream s(simple_profile(), 0, Rng(7));
  int stores = 0;
  const int ops = 20000;
  for (int i = 0; i < ops; ++i) stores += s.next().is_store ? 1 : 0;
  EXPECT_NEAR(stores / static_cast<double>(ops), 0.2, 0.02);
}

TEST(CpuStream, LlcApkiTargetRealized) {
  // Count accesses landing outside the hot set per kilo-instruction; this
  // should track the profile's llc_apki.
  SpecProfile p = simple_profile();
  CpuStream s(p, 0, Rng(8));
  std::uint64_t instrs = 0;
  std::uint64_t llc_blocks = 0;
  Addr last_stream_block = ~0ull;
  for (int i = 0; i < 200000; ++i) {
    const MicroOp op = s.next();
    instrs += op.gap + 1;
    const Addr block = op.addr / 64 * 64;
    const bool in_stream = op.addr < p.stream_bytes;
    const bool in_llc_ws =
        op.addr >= p.stream_bytes && op.addr < p.stream_bytes + p.llc_ws_bytes;
    if (in_stream) {
      if (block != last_stream_block) ++llc_blocks;  // one fetch per block
      last_stream_block = block;
    } else if (in_llc_ws) {
      ++llc_blocks;
    }
  }
  const double apki =
      static_cast<double>(llc_blocks) * 1000.0 / static_cast<double>(instrs);
  EXPECT_NEAR(apki, p.llc_apki, p.llc_apki * 0.2);
}

TEST(CpuStream, StoresAreNeverDependent) {
  CpuStream s(simple_profile(), 0, Rng(9));
  for (int i = 0; i < 5000; ++i) {
    const MicroOp op = s.next();
    if (op.is_store) {
      EXPECT_FALSE(op.dependent);
    }
  }
}

/// Core with a perfect (always-hit after fill) memory behind it. With
/// `parks`, the core gets its ticker id and parks through its stalls.
struct CoreHarness {
  Engine engine;
  StatRegistry stats;
  CpuCoreConfig cfg;
  CpuCore core;
  std::vector<MemRequest> reqs;
  Cycle mem_latency = 50;

  explicit CoreHarness(const SpecProfile& p, CpuCoreConfig c = CpuCoreConfig{},
                       bool parks = false)
      : cfg(c),
        core(engine, cfg, 0, std::make_unique<CpuStream>(p, 0x1000000, Rng(4)),
             stats) {
    core.set_mem_port([this](MemRequest&& r) {
      if (r.on_complete) {
        auto cb = std::move(r.on_complete);
        engine.schedule(mem_latency, [cb, this] { cb(engine.now()); });
      }
      reqs.push_back(MemRequest{r.addr, r.is_write, r.source, r.gclass,
                                r.issued_at, r.miss_at, nullptr});
    });
    const Engine::TickerId id =
        engine.add_ticker(1, 0, [this](Cycle now) { core.tick(now); });
    if (parks) core.set_ticker(id);
  }
};

TEST(CpuCore, CommitsAtWidthWithCacheHits) {
  SpecProfile p = simple_profile();
  p.llc_apki = 0.0;       // everything in the hot set
  p.stream_fraction = 0;  // no streaming
  p.hot_bytes = 4 * KiB;  // fits L1
  CoreHarness h(p);
  h.engine.run_for(20000);
  const double ipc = static_cast<double>(h.core.committed()) / 20000.0;
  EXPECT_GT(ipc, 1.5);  // near-width commit once warm
}

TEST(CpuCore, MemoryLatencySlowsDependentLoads) {
  SpecProfile p = simple_profile();
  p.dependent_fraction = 1.0;
  p.llc_apki = 40.0;
  p.llc_ws_bytes = 2 * MiB;  // misses private caches

  CoreHarness fast(p);
  fast.mem_latency = 20;
  fast.engine.run_for(50000);

  CoreHarness slow(p);
  slow.mem_latency = 400;
  slow.engine.run_for(50000);

  EXPECT_GT(fast.core.committed(), slow.core.committed() * 2);
}

TEST(CpuCore, GeneratesLlcTraffic) {
  CoreHarness h(simple_profile());
  h.engine.run_for(100000);
  EXPECT_GT(h.reqs.size(), 0u);
  EXPECT_GT(h.stats.counter("cpu0.llc_reads"), 0u);
}

TEST(CpuCore, PrefetcherCoversStreams) {
  SpecProfile p = simple_profile();
  p.stream_fraction = 0.9;
  p.llc_apki = 30.0;
  CoreHarness h(p);
  h.engine.run_for(200000);
  EXPECT_GT(h.stats.counter("cpu0.prefetches"), 0u);
}

TEST(CpuCore, BackInvalidateDropsPrivateCopies) {
  SpecProfile p = simple_profile();
  p.llc_apki = 0.0;
  p.stream_fraction = 0.0;
  p.hot_bytes = 4 * KiB;
  CoreHarness h(p);
  h.engine.run_for(5000);
  // The hot set is cached privately; find one resident block.
  const Addr base = 0x1000000 + p.stream_bytes + p.llc_ws_bytes;
  bool found = false;
  for (Addr a = base; a < base + p.hot_bytes; a += 64) {
    if (h.core.l1d().probe(a)) {
      (void)h.core.back_invalidate(a);
      EXPECT_FALSE(h.core.l1d().probe(a));
      EXPECT_FALSE(h.core.l2().probe(a));
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CpuCore, MshrLimitBoundsOutstanding) {
  SpecProfile p = simple_profile();
  p.llc_apki = 200.0;  // everything misses
  p.llc_ws_bytes = 32 * MiB;
  p.dependent_fraction = 0.0;
  CpuCoreConfig cfg;
  cfg.l2_mshrs = 4;
  CoreHarness h(p, cfg);
  h.mem_latency = 5000;  // keep misses outstanding
  h.engine.run_for(20000);
  EXPECT_LE(h.core.outstanding_misses(), 5u);  // 4 live + compaction slack
}

// A parked core must be indistinguishable from one ticking through its
// stalls: the same core and stats digests on every cycle, read after the
// core's tick (a later ticker) and before it (a leading-phase event), across
// dependent-miss, L2-hit, ROB-full and MSHR-full phases and a freeze.
TEST(CpuCore, ParkedCoreMatchesTickingCoreEveryCycle) {
  SpecProfile p = simple_profile();
  p.dependent_fraction = 0.5;   // dependent-miss stalls and L2-hit penalties
  p.llc_apki = 40.0;            // enough misses to fill the ROB and the MSHRs
  p.llc_ws_bytes = 1 * MiB;     // misses the private caches
  p.hot_bytes = 16 * KiB;       // misses the L1, hits the L2
  CpuCoreConfig cfg;
  // Small caches keep the per-cycle digests cheap.
  cfg.l1d = CacheConfig{4 * KiB, 4, 64, 2, false};
  cfg.l2 = CacheConfig{32 * KiB, 8, 64, 3, false};
  cfg.l2_mshrs = 4;
  cfg.rob_size = 64;

  using Seen = std::tuple<Cycle, int, std::uint64_t, std::uint64_t>;
  struct Rig {
    CoreHarness h;
    std::vector<Seen> seen;
    std::function<void()> probe_event;
    Rig(const SpecProfile& prof, const CpuCoreConfig& c, bool parks)
        : h(prof, c, parks) {
      h.engine.add_ticker(1, 0, [this](Cycle now) {
        seen.emplace_back(now, 1, h.core.digest(), h.stats.digest());
      });
      probe_event = [this] {
        seen.emplace_back(h.engine.now(), 0, h.core.digest(),
                          h.stats.digest());
        h.engine.schedule(1, probe_event);
      };
      h.engine.schedule(0, probe_event);
    }
    void run(Cycle latency, Cycle cycles) {
      h.mem_latency = latency;
      h.engine.run_for(cycles);
    }
  };
  Rig ref(p, cfg, /*parks=*/false);
  Rig parked(p, cfg, /*parks=*/true);
  for (Rig* r : {&ref, &parked}) {
    r->run(/*latency=*/400, 12000);  // long misses: ROB-full, MSHR-full
    r->run(/*latency=*/30, 8000);    // short misses: dependent, L2 hits
    for (int i = 0; i < 8; ++i) {
      r->run(/*latency=*/300, 700);
      r->h.core.freeze();  // a barrier drain, between cycles
      r->run(/*latency=*/300, 150);
      r->h.core.unfreeze();
    }
  }

  ASSERT_EQ(ref.seen.size(), parked.seen.size());
  for (std::size_t i = 0; i < ref.seen.size(); ++i) {
    ASSERT_EQ(ref.seen[i], parked.seen[i])
        << "first divergence at cycle " << std::get<0>(ref.seen[i])
        << (std::get<1>(ref.seen[i]) == 0 ? " (event phase)" : " (ticker)");
  }
  EXPECT_EQ(ref.h.stats.counters(), parked.h.stats.counters());
  for (const char* stall : {"cpu0.stall_fixed", "cpu0.stall_dependent",
                            "cpu0.stall_rob", "cpu0.stall_structural"}) {
    EXPECT_GT(ref.h.stats.counter(stall), 0u) << stall << " never happened";
  }
  // The parked core skipped most of its ticks (the probe ticker fires
  // every cycle in both rigs).
  EXPECT_LT(parked.h.engine.ticks_run(),
            ref.h.engine.ticks_run() * 3 / 4);
}

TEST(SpecProfiles, AllMixIdsHaveProfiles) {
  for (int id : {401, 403, 410, 429, 433, 434, 437, 450, 462, 470, 471, 481,
                 482}) {
    EXPECT_NO_THROW({
      const SpecProfile& p = spec_profile(id);
      EXPECT_EQ(p.spec_id, id);
      EXPECT_GT(p.mem_op_fraction, 0.0);
      EXPECT_GT(p.llc_apki, 0.0);
    });
  }
  EXPECT_THROW((void)spec_profile(999), std::out_of_range);
  EXPECT_EQ(spec_ids().size(), 13u);
}

}  // namespace
}  // namespace gpuqos
