// Observability layer: histograms, sampler, trace writer, journal, and the
// telemetry hub threaded through a small heterogeneous run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/journal.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "workloads/mixes.hpp"

namespace gpuqos {
namespace {

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogram, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(LatencyHistogram, SingleSampleReturnsThatSampleForAllPercentiles) {
  LatencyHistogram h;
  h.record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 37.0) << "p=" << p;
  }
}

TEST(LatencyHistogram, BucketBoundaries) {
  // Bucket 0 holds zero; bucket b holds [2^(b-1), 2^b).
  LatencyHistogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket_count(3), 1u);  // 4..7
  EXPECT_EQ(LatencyHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_lo(3), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_hi(3), 8u);
}

TEST(LatencyHistogram, OverflowBucketCollapsesHugeValues) {
  LatencyHistogram h;
  const std::uint64_t huge = 1ull << 62;
  h.record(huge);
  h.record(huge + 5);
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_EQ(h.max(), huge + 5);
  // Percentiles stay within the observed range even for the overflow bucket.
  EXPECT_GE(h.percentile(99), static_cast<double>(huge));
  EXPECT_LE(h.percentile(99), static_cast<double>(huge + 5));
}

TEST(LatencyHistogram, PercentilesOrderedAndClamped) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.percentile(50);
  const double p90 = h.percentile(90);
  const double p99 = h.percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // With a log-bucketed histogram p50 is only bucket-accurate: the true
  // median 500 lives in bucket [512,1024) together with ~half the mass.
  EXPECT_NEAR(p50, 500.0, 300.0);
  EXPECT_GT(p99, 900.0);
}

TEST(LatencyHistogram, ClearResets) {
  LatencyHistogram h;
  h.record(10);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(LatencyHistogram, ToJsonHasAllKeys) {
  LatencyHistogram h;
  h.record(8);
  const std::string j = h.to_json();
  for (const char* key :
       {"\"count\"", "\"mean\"", "\"min\"", "\"max\"", "\"p50\"", "\"p90\"",
        "\"p99\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
}

// ------------------------------------------------------------------ sampler

TEST(IntervalSampler, DeltasAgainstPreviousSnapshot) {
  StatRegistry stats;
  IntervalSampler s;
  s.bind(&stats);
  s.rebase(0);

  stats.add("x", 10);
  s.sample(100);
  stats.add("x", 5);
  stats.add("y", 2);
  s.sample(200);

  ASSERT_EQ(s.samples().size(), 2u);
  EXPECT_EQ(s.samples()[0].cycle, 100u);
  EXPECT_EQ(s.samples()[0].dt, 100u);
  EXPECT_EQ(s.samples()[0].deltas.at("x"), 10u);
  EXPECT_EQ(s.samples()[1].deltas.at("x"), 5u);
  EXPECT_EQ(s.samples()[1].deltas.at("y"), 2u);
  // Unchanged counters are omitted from the delta map.
  EXPECT_EQ(s.samples()[1].deltas.count("z"), 0u);
}

TEST(IntervalSampler, RebaseExcludesWarmupActivity) {
  StatRegistry stats;
  IntervalSampler s;
  s.bind(&stats);

  stats.add("warm", 1000);  // warm-up noise
  s.rebase(5000);
  stats.add("warm", 3);
  s.sample(6000);

  ASSERT_EQ(s.samples().size(), 1u);
  EXPECT_EQ(s.samples()[0].dt, 1000u);
  EXPECT_EQ(s.samples()[0].deltas.at("warm"), 3u);  // not 1003
}

TEST(IntervalSampler, UnboundSamplerIsDisabledNoOp) {
  IntervalSampler s;  // never bound: telemetry without --sample-interval
  s.rebase(100);
  s.sample(200);
  EXPECT_TRUE(s.samples().empty());
}

TEST(IntervalSampler, GaugesEvaluatedEachSample) {
  StatRegistry stats;
  IntervalSampler s;
  s.bind(&stats);
  double g = 1.5;
  s.add_gauge("g", [&g] { return g; });
  s.rebase(0);
  s.sample(10);
  g = 2.5;
  s.sample(20);
  EXPECT_DOUBLE_EQ(s.samples()[0].gauges.at("g"), 1.5);
  EXPECT_DOUBLE_EQ(s.samples()[1].gauges.at("g"), 2.5);
}

TEST(IntervalSampler, JsonlOneObjectPerLine) {
  StatRegistry stats;
  IntervalSampler s;
  s.bind(&stats);
  s.rebase(0);
  stats.add("n", 1);
  s.sample(10);
  s.sample(20);
  std::ostringstream os;
  s.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"cycle\":10,\"dt\":10,"), std::string::npos);
  EXPECT_NE(out.find("\"n\":1"), std::string::npos);
  // Two lines, each a JSON object.
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
}

// -------------------------------------------------------------------- trace

TEST(TraceWriter, EmitsChromeTraceKeys) {
  TraceWriter t;
  t.name_process("sim");
  t.name_thread(TraceWriter::kTidFrames, "frames");
  t.complete("frame 0", TraceWriter::kTidFrames, 4000, 8000, "\"frame\":0");
  t.instant("mark", TraceWriter::kTidControl, 4000);
  t.counter("atu.wg", 4000, 2.0);
  std::ostringstream os;
  t.write(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  for (const char* key : {"\"ph\"", "\"ts\"", "\"pid\"", "\"name\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  // 4000 base cycles at 4 GHz = 1 us.
  EXPECT_NE(j.find("\"ts\":1"), std::string::npos);
}

// ------------------------------------------------------------------ journal

TEST(QosJournal, PredictionErrorMatchesFig08Math) {
  QosJournal j;
  j.record_prediction(100, 0, 110.0, 100.0);  // +10%
  j.record_prediction(200, 1, 90.0, 100.0);   // -10%
  j.record_prediction(300, 2, 120.0, 100.0);  // +20%
  EXPECT_EQ(j.predictions(), 3u);
  EXPECT_NEAR(j.mean_prediction_error_pct(), 20.0 / 3.0, 1e-9);
  EXPECT_NEAR(j.mean_abs_prediction_error_pct(), 40.0 / 3.0, 1e-9);
}

TEST(QosJournal, ZeroActualSamplesSkipped) {
  QosJournal j;
  j.record_prediction(100, 0, 50.0, 0.0);  // no realized frame yet
  EXPECT_DOUBLE_EQ(j.mean_prediction_error_pct(), 0.0);
}

TEST(QosJournal, JsonlRecordsDecisions) {
  QosJournal j;
  j.record_wg_change(10, 0, 2, 100, 9.0e5, 1.0e6, 5000);
  j.record_prio_flip(20, true, 8.0e5, 1.0e6);
  j.record_relearn(30, 1);
  j.mark(40, "measure_start");
  EXPECT_EQ(j.wg_changes(), 1u);
  EXPECT_EQ(j.prio_flips(), 1u);
  std::ostringstream os;
  j.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"type\":\"wg\""), std::string::npos);
  EXPECT_NE(out.find("\"prev_wg\":0"), std::string::npos);
  EXPECT_NE(out.find("\"wg\":2"), std::string::npos);
  EXPECT_NE(out.find("\"a\":5000"), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"cpu_prio\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"relearn\""), std::string::npos);
  EXPECT_NE(out.find("measure_start"), std::string::npos);
}

// ---------------------------------------------------- end-to-end telemetry

TEST(Telemetry, HotPathGuardedByOptions) {
  TelemetryOptions opts;
  opts.capture_histograms = false;
  Telemetry t(opts);
  t.record_latency(LatStage::RingHop, /*gpu=*/false, 10);
  EXPECT_EQ(t.histogram(LatStage::RingHop, false).count(), 0u);
}

TEST(Telemetry, HeteroRunPopulatesAllSinks) {
  // A short M8-style run (GPU ahead of target => throttle engages).
  SimConfig cfg = Presets::scaled();
  const HeteroMix& m = mix("M8");
  RunScale scale;
  scale.warm_instrs = 20'000;
  scale.measure_instrs = 100'000;
  scale.warm_frames = 2;
  scale.measure_frames = 2;
  scale.warm_min_cycles = 500'000;
  scale.max_cycles = 60'000'000;

  TelemetryOptions opts;
  opts.sample_interval = 100'000;
  Telemetry tel(opts);
  RunHooks hooks;
  hooks.telemetry = &tel;
  const HeteroResult r =
      run_hetero(cfg, m, Policy::ThrottleCpuPrio, scale, hooks);

  // Histograms: every stage saw traffic from both classes except MSHR/DRAM
  // stages which at minimum saw GPU traffic.
  EXPECT_GT(tel.histogram(LatStage::RingHop, false).count(), 0u);
  EXPECT_GT(tel.histogram(LatStage::RingHop, true).count(), 0u);
  EXPECT_GT(tel.histogram(LatStage::LlcLookup, true).count(), 0u);
  EXPECT_GT(tel.histogram(LatStage::DramQueue, true).count(), 0u);
  EXPECT_GT(tel.histogram(LatStage::DramService, true).count(), 0u);
  EXPECT_GT(tel.histogram(LatStage::LlcMissRoundtrip, true).count(), 0u);

  // Sampler streamed at least two intervals.
  EXPECT_GE(tel.sampler().samples().size(), 2u);

  // Trace has the metadata plus at least one frame span.
  EXPECT_GT(tel.trace().size(), 6u);

  // Journal predictions reproduce the runner's fig08-style estimator error.
  EXPECT_EQ(tel.journal().predictions(), r.est_samples);
  EXPECT_NEAR(tel.journal().mean_prediction_error_pct(), r.est_error_pct,
              1e-9);

  // Stats were captured before the CMP died.
  EXPECT_NE(tel.stats_json().find("\"counters\""), std::string::npos);
  EXPECT_NE(tel.stats_json().find("llc.access.gpu"), std::string::npos);
}

// ----------------------------------------------------------------- profiler

std::uint64_t total_entries(const Profiler& p) {
  std::uint64_t n = 0;
  for (int ph = 0; ph < kNumProfPhases; ++ph) {
    for (int m = 0; m < kNumProfModules; ++m) {
      n += p.slot(static_cast<ProfPhase>(ph), static_cast<ProfModule>(m))
               .entries;
    }
  }
  return n;
}

TEST(Profiler, NestedScopesAttributeSelfTimeOnce) {
  Profiler p;
  p.start();
  {
    ProfScope outer(&p, ProfModule::Llc);
    ProfScope inner(&p, ProfModule::Dram);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 10'000; ++i) sink = sink + 1;
  }
  p.stop();
  const std::uint64_t llc =
      p.slot(ProfPhase::Warm, ProfModule::Llc).self_ticks;
  const std::uint64_t dram =
      p.slot(ProfPhase::Warm, ProfModule::Dram).self_ticks;
  // The busy loop ran inside the inner (Dram) scope; the outer (Llc) frame
  // keeps only its entry/exit slack after the child subtraction.
  EXPECT_GT(dram, 0u);
  EXPECT_LT(llc, dram);
  // Exact scopes nest inside the run window, so nothing is over-attributed.
  EXPECT_GE(p.residual_ticks(), 0);
  EXPECT_EQ(p.attributed_ticks(), llc + dram);
}

TEST(Profiler, PhaseSplitsAttribution) {
  Profiler p;
  p.start();
  { ProfScope s(&p, ProfModule::Ring); }
  p.set_phase(ProfPhase::Measure);
  { ProfScope s(&p, ProfModule::Ring); }
  { ProfScope s(&p, ProfModule::Ring); }
  p.stop();
  EXPECT_EQ(p.slot(ProfPhase::Warm, ProfModule::Ring).entries, 1u);
  EXPECT_EQ(p.slot(ProfPhase::Measure, ProfModule::Ring).entries, 2u);
}

TEST(Profiler, SampledScopeExtrapolatesEntries) {
  Profiler p;
  p.start();
  std::uint32_t decim = 0;
  for (int i = 0; i < 64; ++i) {
    SampledProfScope<16> s(&p, ProfModule::CpuCore, decim);
  }
  p.stop();
  // 64 calls at stride 16: 4 timed entries extrapolated x16 back to 64.
  EXPECT_EQ(p.slot(ProfPhase::Warm, ProfModule::CpuCore).entries, 64u);
}

TEST(Profiler, SampledOvershootReportsNegativeResidual) {
  Profiler p;
  p.start();
  std::uint32_t decim = 0;  // 0: this entry is the timed one of 16
  {
    SampledProfScope<16> s(&p, ProfModule::CpuCore, decim);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 1'000'000; ++i) sink = sink + 1;
  }
  p.stop();
  // One timed entry extrapolated x16 claims far more than the window held;
  // the residual reports that overshoot instead of being clamped to zero.
  EXPECT_GT(p.attributed_ticks(), p.total_ticks());
  EXPECT_LT(p.residual_ticks(), 0);

  // The table's engine row: name, warm%, measure%, total%, seconds, entries.
  const std::string table = p.table();
  const std::size_t row = table.find("\n  engine ");
  ASSERT_NE(row, std::string::npos) << table;
  std::istringstream is(table.substr(row));
  std::string name;
  double warm = 0, measure = 0, total = 0, secs = 0;
  ASSERT_TRUE(is >> name >> warm >> measure >> total >> secs) << table;
  EXPECT_EQ(name, "engine");
  EXPECT_LT(total, 0.0) << table;
  EXPECT_LT(secs, 0.0) << table;
  EXPECT_NE(p.to_json().find("\"engine_residual_ticks\":-"),
            std::string::npos);
}

TEST(Profiler, NullProfilerScopesAreNoOps) {
  std::uint32_t decim = 0;
  ProfScope a(nullptr, ProfModule::Llc);
  SampledProfScope<16> b(nullptr, ProfModule::CpuCore, decim);
  // decim is untouched when no profiler is attached: the hot path stays
  // byte-for-byte identical with observability off.
  EXPECT_EQ(decim, 0u);
}

TEST(Profiler, MergeAddsSlotsAndWindows) {
  Profiler a, b;
  a.start();
  { ProfScope s(&a, ProfModule::Llc); }
  a.stop();
  b.start();
  { ProfScope s(&b, ProfModule::Llc); }
  { ProfScope s(&b, ProfModule::Dram); }
  b.stop();

  Profiler merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(total_entries(merged), total_entries(a) + total_entries(b));
  EXPECT_EQ(merged.attributed_ticks(),
            a.attributed_ticks() + b.attributed_ticks());
  EXPECT_LE(merged.attributed_ticks(), merged.total_ticks());
}

TEST(Profiler, TableAndJsonIncludeEveryModule) {
  Profiler p;
  p.start();
  { ProfScope s(&p, ProfModule::Governor); }
  p.stop();
  const std::string table = p.table();
  const std::string json = p.to_json();
  for (int m = 0; m < kNumProfModules; ++m) {
    EXPECT_NE(table.find(to_string(static_cast<ProfModule>(m))),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"engine_residual_ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"governor\""), std::string::npos);
}

TEST(Profiler, HeteroRunAttributesHostTime) {
  SimConfig cfg = Presets::scaled();
  RunScale scale;
  scale.warm_instrs = 20'000;
  scale.measure_instrs = 100'000;
  scale.warm_frames = 2;
  scale.measure_frames = 2;
  scale.warm_min_cycles = 500'000;
  scale.max_cycles = 60'000'000;

  TelemetryOptions opts;
  opts.capture_profile = true;
  Telemetry tel(opts);
  RunHooks hooks;
  hooks.telemetry = &tel;
  (void)run_hetero(cfg, mix("M8"), Policy::ThrottleCpuPrio, scale, hooks);

  const Profiler* p = tel.profiler();
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->running());  // finalize() closed the run window
  EXPECT_EQ(p->residual_ticks(), static_cast<std::int64_t>(p->total_ticks()) -
                                     static_cast<std::int64_t>(
                                         p->attributed_ticks()));
  EXPECT_GT(p->attributed_ticks(), 0u);
  // Every simulated module saw at least one scope in each phase.
  for (ProfModule m : {ProfModule::CpuCore, ProfModule::GpuPipeline,
                       ProfModule::GpuMem, ProfModule::Llc, ProfModule::Ring,
                       ProfModule::Dram}) {
    EXPECT_GT(p->slot(ProfPhase::Warm, m).entries, 0u) << to_string(m);
    EXPECT_GT(p->slot(ProfPhase::Measure, m).entries, 0u) << to_string(m);
  }
  EXPECT_GT(p->slot(ProfPhase::Measure, ProfModule::Governor).entries, 0u);
  EXPECT_GT(p->wall_seconds(), 0.0);
}

// --------------------------------------------------------- activity counters

TEST(ActivityCounterBank, CatalogIsStableForShape) {
  const ActivityCounterBank bank(2, 2);
  const ActivityCounterBank again(2, 2);
  ASSERT_EQ(bank.catalog().size(), again.catalog().size());
  for (std::size_t i = 0; i < bank.catalog().size(); ++i) {
    EXPECT_EQ(bank.catalog()[i].stat, again.catalog()[i].stat);
  }
  // Shape scaling: per-channel and per-core entries expand.
  const ActivityCounterBank wider(4, 4);
  EXPECT_GT(wider.catalog().size(), bank.catalog().size());
}

TEST(ActivityCounterBank, AbsentKeysRenderAsZero) {
  const ActivityCounterBank bank(1, 1);
  const std::string json = bank.values_json({});
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dram.ch0.act\":0"), std::string::npos);
  EXPECT_NE(json.find("\"cpu0.committed_instrs\":0"), std::string::npos);
}

TEST(ActivityCounterBank, HeteroRunBumpsCoreCatalogEntries) {
  SimConfig cfg = Presets::scaled();
  RunScale scale;
  scale.warm_instrs = 20'000;
  scale.measure_instrs = 100'000;
  scale.warm_frames = 2;
  scale.measure_frames = 2;
  scale.warm_min_cycles = 500'000;
  scale.max_cycles = 60'000'000;

  Telemetry tel;
  RunHooks hooks;
  hooks.telemetry = &tel;
  (void)run_hetero(cfg, mix("M8"), Policy::ThrottleCpuPrio, scale, hooks);

  const auto& counters = tel.counters();
  const ActivityCounterBank bank = ActivityCounterBank::for_config(cfg);
  // The core activity events must all have fired in a real hetero run.
  for (const char* stat :
       {"dram.ch0.act", "dram.ch0.rd", "dram.ch1.act", "llc.fills",
        "llc.mshr_allocations", "ring.hops", "gpu.fragments",
        "gpu.tiles_retired", "qos.atu_token_grants",
        "cpu0.committed_instrs"}) {
    const auto it = counters.find(stat);
    ASSERT_NE(it, counters.end()) << stat;
    EXPECT_GT(it->second, 0u) << stat;
  }
  // And the committed-instruction counter agrees with the architectural one.
  // (The counter is registered by the core itself, so this is an identity
  // check on the instrumentation, not a tautology.)
  std::uint64_t catalog_stats = 0;
  for (const auto& c : bank.catalog()) {
    if (counters.count(c.stat) > 0) ++catalog_stats;
  }
  EXPECT_GT(catalog_stats, bank.catalog().size() / 2);
}

TEST(ActivityCounterBank, MonotoneAcrossCheckpointResume) {
  // Counter values at the warm-up snapshot must never exceed the values the
  // resumed run finishes with: StatRegistry counters are checkpointed, so
  // activity accumulates monotonically across save/restore.
  SimConfig cfg = Presets::scaled();
  RunScale scale;
  scale.warm_instrs = 20'000;
  scale.measure_instrs = 100'000;
  scale.warm_frames = 2;
  scale.measure_frames = 2;
  scale.warm_min_cycles = 500'000;
  scale.max_cycles = 60'000'000;

  std::vector<std::uint8_t> warm;
  Telemetry warm_tel;
  {
    RunHooks hooks;
    hooks.telemetry = &warm_tel;
    hooks.warm_capture = &warm;
    (void)run_hetero(cfg, mix("M8"), Policy::ThrottleCpuPrio, scale, hooks);
  }
  Telemetry full_tel;
  {
    RunHooks hooks;
    hooks.telemetry = &full_tel;
    hooks.resume_data = &warm;
    (void)run_hetero(cfg, mix("M8"), Policy::ThrottleCpuPrio, scale, hooks);
  }

  const ActivityCounterBank bank = ActivityCounterBank::for_config(cfg);
  const auto& at_warm = warm_tel.counters();
  const auto& at_end = full_tel.counters();
  for (const ActivityCounter& c : bank.catalog()) {
    const auto wi = at_warm.find(c.stat);
    const auto ei = at_end.find(c.stat);
    const std::uint64_t w = wi == at_warm.end() ? 0 : wi->second;
    const std::uint64_t e = ei == at_end.end() ? 0 : ei->second;
    EXPECT_GE(e, w) << c.stat;
  }
  // Committed instructions strictly grew during the measured window.
  EXPECT_GT(at_end.at("cpu0.committed_instrs"),
            at_warm.at("cpu0.committed_instrs"));
}

}  // namespace
}  // namespace gpuqos
