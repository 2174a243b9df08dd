// End-to-end integration tests on the assembled heterogeneous CMP. Budgets
// are deliberately tiny; these verify wiring and directional behaviour, not
// paper-scale numbers (the bench/ harnesses do that).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/context.hpp"
#include "common/jsonio.hpp"
#include "common/units.hpp"
#include "obs/telemetry.hpp"
#include "sim/hetero_cmp.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "workloads/spec.hpp"

namespace gpuqos {
namespace {

RunScale tiny_scale() {
  RunScale s;
  s.warm_instrs = 20'000;
  s.measure_instrs = 100'000;
  s.warm_frames = 1;
  s.measure_frames = 1;
  s.warm_min_cycles = 200'000;
  s.max_cycles = 60'000'000;
  return s;
}

TEST(Integration, StandaloneCpuProducesPlausibleIpc) {
  const SimConfig cfg = Presets::scaled();
  const double ipc = standalone_cpu_ipc(cfg, 401, tiny_scale());
  EXPECT_GT(ipc, 0.2);
  EXPECT_LT(ipc, 4.0);
}

TEST(Integration, StandaloneGpuRendersFrames) {
  const SimConfig cfg = Presets::scaled();
  const auto r = standalone_gpu(cfg, gpu_app("UT2004"), tiny_scale());
  EXPECT_FALSE(r.hit_cycle_cap);
  EXPECT_GT(r.fps, 0.0);
  EXPECT_GT(r.gpu_frame_cycles, 0.0);
  EXPECT_GT(r.stat("gpu.fragments"), 0u);
}

TEST(Integration, HeterogeneousRunDegradesCpu) {
  const SimConfig cfg = Presets::scaled();
  const RunScale s = tiny_scale();
  const HeteroMix& m = mix("W13");
  SimConfig one = cfg;
  one.cpu_cores = 1;
  const double alone = standalone_cpu_ipc(one, m.cpu_specs[0], s);
  const auto h = run_hetero(one, m, Policy::Baseline, s);
  ASSERT_EQ(h.cpu_ipc.size(), 1u);
  EXPECT_LT(h.cpu_ipc[0], alone);  // contention must cost something
  EXPECT_GT(h.cpu_ipc[0], 0.0);
}

TEST(Integration, ThrottlingReducesGpuBandwidthAndHelpsCpu) {
  const SimConfig cfg = Presets::scaled();
  RunScale s = tiny_scale();
  s.warm_frames = 8;  // let the controller converge
  s.measure_frames = 5;
  s.measure_instrs = 400'000;
  const HeteroMix& m = mix("M13");  // UT2004: far above 40 FPS
  const auto base = run_hetero(cfg, m, Policy::Baseline, s);
  const auto thr = run_hetero(cfg, m, Policy::Throttle, s);
  ASSERT_FALSE(base.hit_cycle_cap);
  ASSERT_FALSE(thr.hit_cycle_cap);
  // GPU slowed toward the target...
  EXPECT_LT(thr.fps, base.fps);
  // ...its DRAM bandwidth demand dropped...
  const double base_bw =
      static_cast<double>(base.stat("dram.read_bytes.gpu")) / base.seconds;
  const double thr_bw =
      static_cast<double>(thr.stat("dram.read_bytes.gpu")) / thr.seconds;
  EXPECT_LT(thr_bw, base_bw);
  // ...and the CPU mix sped up.
  double base_sum = 0, thr_sum = 0;
  for (double v : base.cpu_ipc) base_sum += v;
  for (double v : thr.cpu_ipc) thr_sum += v;
  EXPECT_GT(thr_sum, base_sum);
}

TEST(Integration, EstimatorProducesSamplesInHeteroRun) {
  const SimConfig cfg = Presets::scaled();
  RunScale s = tiny_scale();
  s.warm_frames = 3;
  s.measure_frames = 3;
  const auto r = run_hetero(cfg, mix("M12"), Policy::Baseline, s);
  EXPECT_GT(r.est_samples, 0u);
  EXPECT_LT(std::abs(r.est_error_pct), 50.0);
}

class PolicySmokeTest : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicySmokeTest, RunsToCompletionWithSaneOutputs) {
  const SimConfig cfg = Presets::scaled();
  const auto r = run_hetero(cfg, mix("M8"), GetParam(), tiny_scale());
  EXPECT_FALSE(r.hit_cycle_cap);
  EXPECT_GT(r.fps, 0.0);
  ASSERT_EQ(r.cpu_ipc.size(), 4u);
  for (double ipc : r.cpu_ipc) {
    EXPECT_GT(ipc, 0.0);
    EXPECT_LT(ipc, 4.0);
  }
  EXPECT_GT(r.stat("dram.reads"), 0u);
  EXPECT_GT(r.stat("llc.access.gpu"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySmokeTest,
    ::testing::Values(Policy::Baseline, Policy::Throttle,
                      Policy::ThrottleCpuPrio, Policy::Sms09, Policy::Sms0,
                      Policy::DynPrio, Policy::Helm, Policy::ForceBypass),
    [](const ::testing::TestParamInfo<Policy>& pinfo) {
      std::string n = to_string(pinfo.param);
      std::erase_if(n, [](char c) { return c == '-' || c == '.'; });
      return n;
    });

TEST(Integration, ForceBypassLeavesNoGpuReadFills) {
  const SimConfig cfg = Presets::scaled();
  const auto r = run_hetero(cfg, mix("W8"), Policy::ForceBypass, tiny_scale());
  EXPECT_GT(r.stat("llc.fill_bypassed.gpu"), 0u);
}

TEST(Integration, DeterministicAcrossRuns) {
  const SimConfig cfg = Presets::scaled();
  const RunScale s = tiny_scale();
  const auto a = run_hetero(cfg, mix("M10"), Policy::Baseline, s);
  const auto b = run_hetero(cfg, mix("M10"), Policy::Baseline, s);
  EXPECT_DOUBLE_EQ(a.fps, b.fps);
  ASSERT_EQ(a.cpu_ipc.size(), b.cpu_ipc.size());
  for (std::size_t i = 0; i < a.cpu_ipc.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cpu_ipc[i], b.cpu_ipc[i]);
  }
  EXPECT_EQ(a.stat("dram.reads"), b.stat("dram.reads"));
}

TEST(Integration, TextureShareOfGpuLlcTrafficIsSubstantial) {
  // Paper Section IV: texture accesses are ~25% of GPU LLC accesses; our
  // scenes should keep texture traffic a first-class but not exclusive
  // component.
  const SimConfig cfg = Presets::scaled();
  const auto r = run_hetero(cfg, mix("M5"), Policy::Baseline, tiny_scale());
  const double tex = static_cast<double>(r.stat("llc.access.gpu.texture"));
  const double all = static_cast<double>(r.stat("llc.access.gpu"));
  ASSERT_GT(all, 0.0);
  EXPECT_GT(tex / all, 0.10);
  EXPECT_LT(tex / all, 0.90);
}

// The end-of-run ledger check may demand that every read has retired only
// when nothing is in flight anywhere. An engine with no pending events is
// not enough: requests can still wait in the DRAM queues, the LLC MSHRs and
// the GMI queue, as they do at the end of these runs.
TEST(Integration, LedgerFindsNoLeakWhileRequestsAreStillQueued) {
  SimConfig cfg = Presets::scaled();
  cfg.cpu_cores = 1;  // W-mixes: the one-core configuration
  RunScale s;
  s.warm_instrs = 20'000;
  s.measure_instrs = 60'000;
  s.warm_frames = 1;
  s.measure_frames = 1;
  s.warm_min_cycles = 300'000;
  s.max_cycles = 60'000'000;
  for (Policy p : {Policy::DynPrio, Policy::ForceBypass}) {
    CheckOptions opts;
    opts.abort_on_violation = false;
    CheckContext check(opts);
    RunHooks hooks;
    hooks.check = &check;
    (void)run_hetero(cfg, mix("W1"), p, s, hooks);
    for (const CheckViolation& v : check.violations()) {
      ADD_FAILURE() << to_string(p) << ": [" << v.auditor << "] @" << v.cycle
                    << ": " << v.message;
    }
  }
}

// The engine skips idle gaps without evaluating run predicates, and parked
// cores make such gaps common, so the warm-up's cycle threshold has to be a
// run target: warm-up must end exactly at a warm_min_cycles that falls
// between the GPU and DRAM ticker slots (every 4 cycles).
TEST(Integration, WarmUpEndsExactlyAtAnOffSlotMinCycle) {
  const SimConfig cfg = Presets::scaled();
  RunScale s;
  s.warm_instrs = 1'000;  // met long before the cycle threshold
  s.warm_frames = 0;
  s.measure_instrs = 10'000;
  s.measure_frames = 1;
  s.max_cycles = 60'000'000;
  for (Cycle min_cycle : {Cycle{300'002}, Cycle{300'003}}) {
    s.warm_min_cycles = min_cycle;
    TelemetryOptions topts;
    topts.capture_journal = false;
    topts.capture_histograms = false;
    Telemetry tel(topts);
    RunHooks hooks;
    hooks.telemetry = &tel;
    (void)run_hetero(cfg, mix("M8"), Policy::ThrottleCpuPrio, s, hooks);
    std::ostringstream trace;
    tel.trace().write(trace);
    const std::string mark =
        "{\"name\":\"measure_start\",\"ph\":\"i\",\"ts\":";
    const std::size_t at = trace.str().find(mark);
    ASSERT_NE(at, std::string::npos);
    const std::string want =
        mark + json_double(cycles_to_seconds(min_cycle) * 1e6) + ",";
    EXPECT_EQ(trace.str().substr(at, want.size()), want)
        << "warm-up did not end at cycle " << min_cycle;
  }
}

TEST(HeteroCmp, ConstructsAllPolicyWirings) {
  const SimConfig cfg = Presets::scaled();
  for (Policy p : {Policy::Baseline, Policy::Throttle, Policy::ThrottleCpuPrio,
                   Policy::Sms09, Policy::Sms0, Policy::DynPrio, Policy::Helm,
                   Policy::ForceBypass}) {
    HeteroCmp cmp(cfg, p, {spec_profile(401)}, {}, 1.0);
    EXPECT_EQ(cmp.num_cores(), 1u);
    EXPECT_EQ(cmp.policy(), p);
    cmp.engine().run_for(1000);  // no crash, makes progress
    EXPECT_GT(cmp.core(0).committed(), 0u);
  }
}

}  // namespace
}  // namespace gpuqos
