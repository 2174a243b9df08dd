#include <gtest/gtest.h>

#include "sched/bypass.hpp"
#include "sched/cpu_prio.hpp"
#include "sched/dynprio.hpp"
#include "sched/helm.hpp"
#include "sched/sms.hpp"

namespace gpuqos {
namespace {

// All banks closed and immediately ready — the neutral state every policy
// test wants. Converts to the (now concrete) BankView schedulers consume.
class OpenBanks {
 public:
  operator BankView() const { return BankView(banks_); }  // NOLINT

 private:
  std::vector<Bank> banks_ = std::vector<Bank>(8);
};

DramQueueEntry entry(std::uint64_t id, SourceId src, unsigned bank = 0,
                     std::uint64_t row = 0, Cycle arrival = 0) {
  DramQueueEntry e;
  e.id = id;
  e.req.source = src;
  e.bank = bank;
  e.row = row;
  e.arrival = arrival;
  return e;
}

TEST(CpuPrio, BehavesLikeFrFcfsWithoutBoost) {
  QosSignals sig;
  sig.cpu_prio_boost = false;
  CpuPriorityScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::gpu()));
  q.push_back(entry(2, SourceId::cpu(0)));
  EXPECT_EQ(sched.pick(q, banks, 10), 1);  // oldest first
}

TEST(CpuPrio, PrefersCpuWhenBoosted) {
  QosSignals sig;
  sig.cpu_prio_boost = true;
  CpuPriorityScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::gpu()));
  q.push_back(entry(2, SourceId::cpu(0)));
  EXPECT_EQ(sched.pick(q, banks, 10), 2);
}

TEST(CpuPrio, FallsBackToGpuWhenNoCpuRequests) {
  QosSignals sig;
  sig.cpu_prio_boost = true;
  CpuPriorityScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::gpu()));
  EXPECT_EQ(sched.pick(q, banks, 10), 1);
}

TEST(DynPrio, EqualPriorityWithoutEstimate) {
  QosSignals sig;
  sig.estimating = false;
  DynPrioScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::gpu()));
  q.push_back(entry(2, SourceId::cpu(0)));
  EXPECT_EQ(sched.pick(q, banks, 10), 1);
}

TEST(DynPrio, GpuFirstWhenUrgent) {
  QosSignals sig;
  sig.estimating = true;
  sig.gpu_urgent = true;
  DynPrioScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::cpu(0)));
  q.push_back(entry(2, SourceId::gpu()));
  EXPECT_EQ(sched.pick(q, banks, 10), 2);
}

TEST(DynPrio, CpuFirstWhenGpuComfortablyAhead) {
  QosSignals sig;
  sig.estimating = true;
  sig.gpu_urgent = false;
  sig.gpu_meets_target = true;
  DynPrioScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::gpu()));
  q.push_back(entry(2, SourceId::cpu(0)));
  EXPECT_EQ(sched.pick(q, banks, 10), 2);
}

TEST(DynPrio, EqualPriorityWhenGpuLags) {
  QosSignals sig;
  sig.estimating = true;
  sig.gpu_urgent = false;
  sig.gpu_meets_target = false;
  DynPrioScheduler sched(&sig);
  OpenBanks banks;
  DramQueue q;
  q.push_back(entry(1, SourceId::gpu()));
  q.push_back(entry(2, SourceId::cpu(0)));
  EXPECT_EQ(sched.pick(q, banks, 10), 1);  // plain FR-FCFS: oldest
}

TEST(Sms, FormsPerSourceBatchesAndDrainsInOrder) {
  SmsScheduler::Params params;
  params.shortest_first_prob = 1.0;  // deterministic shortest-first
  params.batch_timeout = 10;
  SmsScheduler sched(params, Rng(1));
  OpenBanks banks;
  DramQueue q;
  // GPU batch of 3 same-row requests; CPU batch of 1.
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto e = entry(i, SourceId::gpu(), 0, 7, 0);
    sched.on_enqueue(e);
    q.push_back(e);
  }
  auto c = entry(10, SourceId::cpu(0), 1, 3, 0);
  sched.on_enqueue(c);
  q.push_back(c);

  // Batches close by timeout; shortest (CPU, size 1) goes first.
  const std::int64_t first = sched.pick(q, banks, 100);
  EXPECT_EQ(first, 10);
  sched.on_issue(c);
  q.erase_id(10);

  // Then the GPU batch drains in FIFO order.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::int64_t id = sched.pick(q, banks, 100);
    EXPECT_EQ(id, static_cast<std::int64_t>(i));
    auto e = q.front();
    sched.on_issue(e);
    q.pop_front();
  }
}

TEST(Sms, WaitsWhileBatchesForm) {
  SmsScheduler::Params params;
  params.batch_timeout = 1000;
  SmsScheduler sched(params, Rng(2));
  OpenBanks banks;
  DramQueue q;
  auto e = entry(1, SourceId::gpu(), 0, 7, 0);
  sched.on_enqueue(e);
  q.push_back(e);
  // Batch still forming (not closed, no timeout): SMS delays service.
  EXPECT_EQ(sched.pick(q, banks, 10), -1);
  // Each pick closes stale batches, so a DRAM channel must not skip SMS's
  // idle picks.
  EXPECT_FALSE(sched.pick_is_pure());
  // After the timeout the batch closes and is served.
  EXPECT_EQ(sched.pick(q, banks, 2000), 1);
}

TEST(Sms, RowChangeClosesBatch) {
  SmsScheduler::Params params;
  params.shortest_first_prob = 1.0;
  SmsScheduler sched(params, Rng(3));
  OpenBanks banks;
  DramQueue q;
  auto a = entry(1, SourceId::gpu(), 0, 7, 0);
  sched.on_enqueue(a);
  q.push_back(a);
  auto b = entry(2, SourceId::gpu(), 0, 9, 1);  // different row
  sched.on_enqueue(b);
  q.push_back(b);
  // The first batch closed on the row change; it is served immediately.
  EXPECT_EQ(sched.pick(q, banks, 5), 1);
}

TEST(Sms, RoundRobinModeAlternatesSources) {
  SmsScheduler::Params params;
  params.shortest_first_prob = 0.0;  // SMS-0: always round-robin
  params.batch_timeout = 0;
  SmsScheduler sched(params, Rng(4));
  OpenBanks banks;
  DramQueue q;
  auto c0 = entry(1, SourceId::cpu(0), 0, 1, 0);
  auto c1 = entry(2, SourceId::cpu(1), 1, 2, 0);
  sched.on_enqueue(c0);
  sched.on_enqueue(c1);
  q.push_back(c0);
  q.push_back(c1);
  const std::int64_t first = sched.pick(q, banks, 10);
  ASSERT_TRUE(first == 1 || first == 2);
  DramQueueEntry served = first == 1 ? c0 : c1;
  sched.on_issue(served);
  q.erase_id(served.id);
  const std::int64_t second = sched.pick(q, banks, 20);
  EXPECT_NE(second, first);
}

TEST(Helm, BypassesShaderSourcedReadsWhenTolerant) {
  QosSignals sig;
  sig.gpu_latency_tolerance = 0.5;
  HelmBypassPolicy helm(&sig, 0.10);
  MemRequest tex;
  tex.source = SourceId::gpu();
  tex.gclass = GpuAccessClass::Texture;
  EXPECT_TRUE(helm.should_bypass(tex));

  sig.gpu_latency_tolerance = 0.05;  // not tolerant
  EXPECT_FALSE(helm.should_bypass(tex));
}

TEST(Helm, NeverBypassesRopOrCpuTraffic) {
  QosSignals sig;
  sig.gpu_latency_tolerance = 1.0;
  HelmBypassPolicy helm(&sig);
  MemRequest depth;
  depth.source = SourceId::gpu();
  depth.gclass = GpuAccessClass::Depth;
  EXPECT_FALSE(helm.should_bypass(depth));
  MemRequest color;
  color.source = SourceId::gpu();
  color.gclass = GpuAccessClass::Color;
  EXPECT_FALSE(helm.should_bypass(color));
  MemRequest cpu;
  cpu.source = SourceId::cpu(0);
  EXPECT_FALSE(helm.should_bypass(cpu));
}

TEST(ForceBypass, BypassesEveryGpuRead) {
  ForceBypassPolicy fb;
  MemRequest r;
  r.source = SourceId::gpu();
  for (auto g : {GpuAccessClass::Texture, GpuAccessClass::Depth,
                 GpuAccessClass::Color, GpuAccessClass::Vertex}) {
    r.gclass = g;
    EXPECT_TRUE(fb.should_bypass(r));
  }
  r.is_write = true;
  EXPECT_FALSE(fb.should_bypass(r));
  r.is_write = false;
  r.source = SourceId::cpu(1);
  EXPECT_FALSE(fb.should_bypass(r));
}

}  // namespace
}  // namespace gpuqos
