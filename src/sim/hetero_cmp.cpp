#include "sim/hetero_cmp.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "check/context.hpp"
#include "check/digest.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/frfcfs.hpp"
#include "obs/telemetry.hpp"
#include "sched/bypass.hpp"
#include "sched/cpu_prio.hpp"
#include "sched/dynprio.hpp"
#include "sched/helm.hpp"
#include "sched/sms.hpp"

namespace gpuqos {
namespace {

/// Fans frame-progress callbacks out to the FRPU (which must keep observing
/// exactly as before) and mirrors frame boundaries — plus the FRPU's
/// per-frame prediction samples and relearn events — into the telemetry
/// layer. Lives in sim so obs never depends on the qos library.
class TelemetryFrameTee : public FrameObserver {
 public:
  TelemetryFrameTee(FrameRateEstimator& frpu, Telemetry& telemetry)
      : frpu_(frpu), telemetry_(telemetry) {}

  void on_frame_start(const SceneFrame& frame, Cycle gpu_now) override {
    frpu_.on_frame_start(frame, gpu_now);
    telemetry_.on_frame_start(gpu_now);
    samples_seen_ = frpu_.samples().size();
    relearns_seen_ = frpu_.relearn_events();
  }
  void on_rt_update(unsigned tile, Cycle gpu_now) override {
    frpu_.on_rt_update(tile, gpu_now);
  }
  void on_llc_access(Cycle gpu_now) override {
    frpu_.on_llc_access(gpu_now);
  }
  void on_frame_complete(Cycle gpu_now) override {
    frpu_.on_frame_complete(gpu_now);
    telemetry_.on_frame_complete(gpu_now, frame_index_);
    const auto& samples = frpu_.samples();
    if (samples.size() > samples_seen_) {
      const auto& s = samples.back();
      telemetry_.record_prediction(gpu_now, frame_index_, s.predicted_cycles,
                                   s.actual_cycles);
    }
    if (frpu_.relearn_events() > relearns_seen_) {
      telemetry_.record_relearn(gpu_now, frpu_.relearn_events());
    }
    ++frame_index_;
  }

 private:
  FrameRateEstimator& frpu_;
  Telemetry& telemetry_;
  std::uint64_t frame_index_ = 0;
  std::size_t samples_seen_ = 0;
  std::uint64_t relearns_seen_ = 0;
};

/// Forwards frame-progress callbacks to whatever observer was wired before
/// (the FRPU directly, or the TelemetryFrameTee) and additionally runs a full
/// audit pass at every frame boundary, so MSHR leaks and ledger imbalances
/// are caught at the paper's natural unit of work even when the periodic
/// audit ticker is off.
class CheckFrameTee : public FrameObserver {
 public:
  CheckFrameTee(FrameObserver& inner, CheckContext& check, Engine& engine)
      : inner_(inner), check_(check), engine_(engine) {}

  void on_frame_start(const SceneFrame& frame, Cycle gpu_now) override {
    inner_.on_frame_start(frame, gpu_now);
  }
  void on_rt_update(unsigned tile, Cycle gpu_now) override {
    inner_.on_rt_update(tile, gpu_now);
  }
  void on_llc_access(Cycle gpu_now) override { inner_.on_llc_access(gpu_now); }
  void on_frame_complete(Cycle gpu_now) override {
    inner_.on_frame_complete(gpu_now);
    check_.audit(engine_.now());
  }

 private:
  FrameObserver& inner_;
  CheckContext& check_;
  Engine& engine_;
};

}  // namespace

std::uint64_t config_digest(const SimConfig& cfg) {
  Fnv1a64 h;
  auto mix_cache = [&h](const CacheConfig& c) {
    h.mix(c.size_bytes);
    h.mix(c.ways);
    h.mix(c.block_bytes);
    h.mix(c.latency);
    h.mix_bool(c.srrip);
  };
  h.mix(cfg.cpu_cores);
  mix_cache(cfg.core.l1d);
  mix_cache(cfg.core.l1i);
  mix_cache(cfg.core.l2);
  h.mix(cfg.core.commit_width);
  h.mix(cfg.core.rob_size);
  h.mix(cfg.core.l1_mshrs);
  h.mix(cfg.core.l2_mshrs);
  h.mix(cfg.llc.size_bytes);
  h.mix(cfg.llc.ways);
  h.mix(cfg.llc.block_bytes);
  h.mix(cfg.llc.latency);
  h.mix(cfg.llc.ports);
  h.mix(cfg.llc.mshrs);
  h.mix(cfg.dram.channels);
  h.mix(cfg.dram.banks_per_channel);
  h.mix(cfg.dram.row_bytes);
  const DramTiming& t = cfg.dram.timing;
  for (unsigned v : {t.tCL, t.tRCD, t.tRP, t.tRAS, t.tWR, t.tBurst, t.tCCD,
                     t.tRTP, t.tWTR}) {
    h.mix(v);
  }
  h.mix(cfg.dram.read_queue_depth);
  h.mix(cfg.dram.write_queue_depth);
  h.mix(cfg.dram.write_drain_high);
  h.mix(cfg.dram.write_drain_low);
  h.mix(cfg.ring.hop_latency);
  const GpuConfig& g = cfg.gpu;
  h.mix(g.shader_cores);
  h.mix(g.max_fragments_in_flight);
  h.mix(g.rop_units);
  h.mix(g.raster_rate);
  h.mix(g.vertex_rate);
  h.mix(g.shader_cycles_per_fragment);
  for (const CacheConfig* c :
       {&g.tex_l0, &g.tex_l1, &g.tex_l2, &g.depth_l1, &g.depth_l2, &g.color_l1,
        &g.color_l2, &g.vertex_cache, &g.hiz_cache, &g.shader_icache}) {
    mix_cache(*c);
  }
  h.mix(g.mem_queue_depth);
  h.mix(g.llc_issue_width);
  h.mix(g.llc_issue_interval);
  const QosConfig& q = cfg.qos;
  h.mix_double(q.target_fps);
  h.mix(q.rtp_table_entries);
  h.mix_double(q.relearn_threshold);
  h.mix(q.control_interval_gpu_cycles);
  h.mix(q.ng_init);
  h.mix(q.wg_step);
  h.mix_bool(q.relearn_on_cycles);
  h.mix_bool(q.hold_throttle_in_learning);
  h.mix(cfg.seed);
  h.mix_double(cfg.fps_scale);
  return h.value();
}

std::string to_string(Policy p) {
  switch (p) {
    case Policy::Baseline: return "Baseline";
    case Policy::Throttle: return "Throttled";
    case Policy::ThrottleCpuPrio: return "ThrotCPUprio";
    case Policy::Sms09: return "SMS-0.9";
    case Policy::Sms0: return "SMS-0";
    case Policy::DynPrio: return "DynPrio";
    case Policy::Helm: return "HeLM";
    case Policy::ForceBypass: return "ForceBypass";
  }
  return "?";
}

const std::vector<Policy>& all_policies() {
  // NOLINT-gpuqos(concurrency-discipline): immutable input-independent table;
  // C++11 magic-static init is thread-safe and nothing mutates it after.
  static const std::vector<Policy> kAll = {
      Policy::Baseline, Policy::Throttle, Policy::ThrottleCpuPrio,
      Policy::Sms09,    Policy::Sms0,     Policy::DynPrio,
      Policy::Helm,     Policy::ForceBypass};
  return kAll;
}

bool policy_from_string(const std::string& name, Policy& out) {
  for (Policy p : all_policies()) {
    if (to_string(p) == name) {
      out = p;
      return true;
    }
  }
  return false;
}

HeteroCmp::HeteroCmp(const SimConfig& cfg, Policy policy,
                     std::vector<SpecProfile> cpu_profiles,
                     std::vector<SceneFrame> gpu_frames, double fps_scale)
    : cfg_(cfg),
      policy_(policy),
      fps_scale_(fps_scale),
      has_gpu_work_(!gpu_frames.empty()) {
  stats_ = std::make_unique<StatRegistry>();
  engine_ = std::make_unique<Engine>();
  Rng rng(cfg.seed);

  // Ring stop layout: cpu0..cpuN-1, gpu, llc, mc0, mc1.
  const unsigned n = cfg.cpu_cores;
  gpu_stop_ = n;
  llc_stop_ = n + 1;
  mc_stop_base_ = n + 2;
  ring_ = std::make_unique<RingNetwork>(*engine_, n + 4, cfg.ring, *stats_);

  llc_ = std::make_unique<SharedLlc>(*engine_, cfg.llc, *stats_);

  // DRAM scheduler per policy.
  DramController::SchedulerFactory factory;
  switch (policy) {
    case Policy::ThrottleCpuPrio:
      factory = [this](unsigned) {
        return std::make_unique<CpuPriorityScheduler>(&signals_);
      };
      break;
    case Policy::Sms09:
    case Policy::Sms0:
      factory = [policy, &rng](unsigned ch) {
        SmsScheduler::Params params;
        params.shortest_first_prob = policy == Policy::Sms09 ? 0.9 : 0.0;
        return std::make_unique<SmsScheduler>(params, rng.fork(1000 + ch));
      };
      break;
    case Policy::DynPrio:
      factory = [this](unsigned) {
        return std::make_unique<DynPrioScheduler>(&signals_);
      };
      break;
    default:
      factory = [](unsigned) { return std::make_unique<FrFcfsScheduler>(); };
      break;
  }
  dram_ = std::make_unique<DramController>(*engine_, cfg.dram, *stats_, factory);

  // LLC bypass policy per policy.
  if (policy == Policy::Helm) {
    bypass_ = std::make_unique<HelmBypassPolicy>(&signals_);
    llc_->set_bypass_policy(bypass_.get());
  } else if (policy == Policy::ForceBypass) {
    bypass_ = std::make_unique<ForceBypassPolicy>();
    llc_->set_bypass_policy(bypass_.get());
  }

  // CPU cores (one per provided profile).
  for (unsigned i = 0; i < cpu_profiles.size() && i < n; ++i) {
    const Addr base = 0x100000000ull * (i + 1);
    auto stream = std::make_unique<CpuStream>(cpu_profiles[i], base,
                                              rng.fork(100 + i));
    cores_.push_back(std::make_unique<CpuCore>(*engine_, cfg.core, i,
                                               std::move(stream), *stats_));
    wire_core(i);
    CpuCore* core = cores_.back().get();
    core->set_ticker(
        engine_->add_ticker(1, 0, [core](Cycle now) { core->tick(now); }));
  }

  wire_llc();

  // GPU.
  gmi_ = std::make_unique<GpuMemInterface>(cfg.gpu, *stats_);
  pipeline_ = std::make_unique<GpuPipeline>(*engine_, cfg.gpu, *stats_,
                                            rng.fork(777));
  pipeline_->set_mem_interface(gmi_.get());
  wire_gpu();

  frpu_ = std::make_unique<FrameRateEstimator>(cfg.qos);
  pipeline_->set_observer(frpu_.get());
  gmi_->set_observer(frpu_.get());

  atu_ = std::make_unique<AccessThrottler>(cfg.qos);
  const bool throttles =
      policy == Policy::Throttle || policy == Policy::ThrottleCpuPrio;
  if (throttles) gmi_->set_gate(atu_.get());

  QosGovernor::Options opts;
  opts.enable_throttle = throttles;
  opts.enable_cpu_prio = policy == Policy::ThrottleCpuPrio;
  governor_ = std::make_unique<QosGovernor>(*engine_, cfg.qos, opts, *frpu_,
                                            *atu_, *pipeline_, signals_,
                                            fps_scale_, *stats_);

  for (auto& frame : gpu_frames) pipeline_->submit_frame(std::move(frame));

  // GPU-side tickers at the GPU clock: memory interface first so this
  // cycle's allowance drains before the pipeline refills the queue (the
  // engine fires same-cycle tickers in registration order).
  GpuMemInterface* gmi = gmi_.get();
  GpuPipeline* pipe = pipeline_.get();
  engine_->add_ticker(kGpuClockDivider, 0,
                      [gmi](Cycle now) { gmi->tick(base_to_gpu_cycles(now)); });
  engine_->add_ticker(kGpuClockDivider, 0, [pipe](Cycle now) {
    pipe->tick_gpu(base_to_gpu_cycles(now));
  });

  // Stamp GPUQOS_LOG messages with the simulation cycle while this CMP is the
  // active simulation (cleared in the destructor).
  Engine* eng = engine_.get();
  set_log_cycle_source([eng] { return eng->now(); });
}

HeteroCmp::~HeteroCmp() {
  set_log_cycle_source(nullptr);
  if (telemetry_ != nullptr) set_log_sink(nullptr);
}

void HeteroCmp::attach_telemetry(Telemetry& telemetry) {
  telemetry_ = &telemetry;
  ring_->set_telemetry(&telemetry);
  llc_->set_telemetry(&telemetry);
  dram_->set_telemetry(&telemetry);
  governor_->set_telemetry(&telemetry);

  // Host-time attribution: hand every module the profiler and open the run
  // window. The profiler never touches simulated state, so wiring it here
  // cannot perturb digests.
  if (Profiler* prof = telemetry.profiler()) {
    for (auto& core : cores_) core->set_profiler(prof);
    pipeline_->set_profiler(prof);
    gmi_->set_profiler(prof);
    llc_->set_profiler(prof);
    ring_->set_profiler(prof);
    dram_->set_profiler(prof);
    governor_->set_profiler(prof);
    prof->start();
    if (telemetry.options().prof_flush_interval > 0) {
      const Cycle period = telemetry.options().prof_flush_interval;
      engine_->add_ticker(period, /*phase=*/period - 1,
                          [prof](Cycle now) { prof->flush(now); });
    }
  }

  // Frame spans + FRPU prediction journal: interpose a tee between the
  // pipeline/GMI and the FRPU.
  auto tee = std::make_unique<TelemetryFrameTee>(*frpu_, telemetry);
  pipeline_->set_observer(tee.get());
  gmi_->set_observer(tee.get());
  frame_tee_ = std::move(tee);

  // Interval sampler: StatRegistry deltas plus live controller gauges.
  if (telemetry.options().sample_interval > 0) {
    IntervalSampler& sampler = telemetry.sampler();
    sampler.bind(stats_.get());
    GpuPipeline* pipe = pipeline_.get();
    AccessThrottler* atu = atu_.get();
    const QosSignals* sig = &signals_;
    sampler.add_gauge("gpu.frames_completed",
                      [pipe] { return double(pipe->frames_completed()); });
    sampler.add_gauge("atu.wg", [atu] { return double(atu->wg()); });
    sampler.add_gauge("atu.throttling",
                      [atu] { return atu->throttling() ? 1.0 : 0.0; });
    sampler.add_gauge("qos.predicted_fps",
                      [sig] { return sig->predicted_fps; });
    sampler.add_gauge("qos.cpu_prio_boost",
                      [sig] { return sig->cpu_prio_boost ? 1.0 : 0.0; });
    sampler.add_gauge("qos.gpu_latency_tolerance",
                      [sig] { return sig->gpu_latency_tolerance; });
    sampler.rebase(engine_->now());
    Telemetry* tel = &telemetry;
    const Cycle period = telemetry.options().sample_interval;
    // Phase period-1 skips the empty cycle-0 sample.
    engine_->add_ticker(period, /*phase=*/period - 1,
                        [tel](Cycle now) { tel->sampler().sample(now); });
  }

  // Route GPUQOS_LOG lines into the trace with their cycle stamp (and still
  // to stderr, so interactive behaviour is unchanged).
  if (telemetry.options().capture_log && telemetry.options().capture_trace) {
    Telemetry* tel = &telemetry;
    set_log_sink([tel](LogLevel level, Cycle cycle, const std::string& msg) {
      tel->on_log(static_cast<int>(level), cycle, msg);
      std::fprintf(stderr, "[gpuqos @%llu] %s\n",
                   static_cast<unsigned long long>(cycle), msg.c_str());
    });
  }
}

void HeteroCmp::attach_checks(CheckContext& check) {
  check_ = &check;

  // Conservation ledger hooks: every read a core or the GPU issues must
  // complete exactly once; every DRAM command enqueued must be serviced.
  ring_->set_check(&check);
  dram_->set_check(&check);
  gmi_->set_check(&check);
  std::uint64_t cpu_read_bound = 0;
  for (auto& core : cores_) {
    core->set_check(&check);
    cpu_read_bound += core->max_reads_in_flight();
  }
  if (cpu_read_bound > 0) {
    check.set_in_flight_bound(CheckContext::Flow::CpuRead, cpu_read_bound);
  }

  // Invariant auditors. Bounds come from the attached configuration; 0
  // disables a bound where no structural ceiling exists (e.g. the posted
  // write queues).
  SharedLlc* llc = llc_.get();
  check.add_auditor("llc", [llc, &check](Cycle now) {
    audit_llc(check, now, llc->audit_view(/*deep=*/true));
  });
  DramController* dram = dram_.get();
  const Cycle starvation = check.options().starvation_bound;
  check.add_auditor("dram", [dram, &check, starvation](Cycle now) {
    for (unsigned c = 0; c < dram->num_channels(); ++c) {
      audit_channel(check, now,
                    dram->channel(c).audit_view(/*read_bound=*/0,
                                                /*write_bound=*/0, starvation));
    }
  });
  RingNetwork* ring = ring_.get();
  check.add_auditor("ring", [ring, &check](Cycle now) {
    audit_ring(check, now, ring->audit_view(/*horizon=*/0));
  });
  AccessThrottler* atu = atu_.get();
  check.add_auditor("atu", [atu, &check](Cycle now) {
    audit_atu(check, now, atu->check_view());
  });
  FrameRateEstimator* frpu = frpu_.get();
  check.add_auditor("rtp", [frpu, &check](Cycle now) {
    audit_rtp(check, now, frpu->table().check_view());
  });
  check.add_auditor("frpu", [frpu, &check](Cycle now) {
    audit_frpu(check, now, frpu->check_view(base_to_gpu_cycles(now)));
  });

  // Determinism digest sources, one per module. Names become the digest
  // stream's module column (tools/digest_diff pinpoints the first divergent
  // one), so keep them stable.
  Engine* eng = engine_.get();
  StatRegistry* stats = stats_.get();
  check.add_digest_source("engine", [eng] { return eng->digest(); });
  check.add_digest_source("stats", [stats] { return stats->digest(); });
  check.add_digest_source("ring", [ring] { return ring->digest(); });
  check.add_digest_source("llc", [llc] { return llc->digest(); });
  check.add_digest_source("dram", [dram] { return dram->digest(); });
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    CpuCore* core = cores_[i].get();
    check.add_digest_source("cpu" + std::to_string(i),
                            [core] { return core->digest(); });
  }
  GpuPipeline* pipe = pipeline_.get();
  GpuMemInterface* gmi = gmi_.get();
  check.add_digest_source("gpu", [pipe] { return pipe->digest(); });
  check.add_digest_source("gmi", [gmi] { return gmi->digest(); });
  check.add_digest_source("atu", [atu] { return atu->digest(); });
  check.add_digest_source("frpu", [frpu] { return frpu->digest(); });

  // Frame-boundary audits: interpose on the observer chain built by the
  // constructor / attach_telemetry.
  if (pipeline_->observer() != nullptr) {
    auto tee =
        std::make_unique<CheckFrameTee>(*pipeline_->observer(), check, *eng);
    pipeline_->set_observer(tee.get());
    gmi_->set_observer(tee.get());
    check_tee_ = std::move(tee);
  }

  // Periodic execution.
  CheckContext* ctx = &check;
  if (check.options().audit_interval > 0) {
    engine_->add_ticker(check.options().audit_interval, 0,
                        [ctx](Cycle now) { ctx->audit(now); });
  }
  if (check.options().digest_interval > 0) {
    engine_->add_ticker(check.options().digest_interval, 0,
                        [ctx](Cycle now) { ctx->sample_digests(now); });
  }
}

void HeteroCmp::wire_core(unsigned i) {
  CpuCore* core = cores_[i].get();
  core->set_mem_port([this, i](MemRequest&& req) {
    if (req.on_complete) {
      auto cb = std::move(req.on_complete);
      req.on_complete = [this, i, cb = std::move(cb)](Cycle) {
        ring_->send(llc_stop_, i, [this, cb] { cb(engine_->now()); },
                    RingNetwork::Traffic::Cpu);
      };
    }
    ring_->send(i, llc_stop_, [this, r = std::move(req)]() mutable {
      llc_->request(std::move(r));
    }, RingNetwork::Traffic::Cpu);
  });
}

void HeteroCmp::wire_llc() {
  llc_->set_back_invalidate([this](unsigned core, Addr addr) {
    return core < cores_.size() ? cores_[core]->back_invalidate(addr) : false;
  });
  llc_->set_mem_sender([this](MemRequest&& req) {
    const unsigned mc_stop =
        mc_stop_base_ + (dram_->channel_of(req.addr) & 1);
    const auto traffic = req.source.is_gpu() ? RingNetwork::Traffic::Gpu
                                             : RingNetwork::Traffic::Cpu;
    if (req.on_complete) {
      auto cb = std::move(req.on_complete);
      req.on_complete = [this, mc_stop, traffic, cb = std::move(cb)](Cycle) {
        ring_->send(mc_stop, llc_stop_, [this, cb] { cb(engine_->now()); },
                    traffic);
      };
    }
    ring_->send(llc_stop_, mc_stop, [this, r = std::move(req)]() mutable {
      dram_->request(std::move(r));
    }, traffic);
  });
}

void HeteroCmp::freeze_injectors() {
  for (auto& core : cores_) core->freeze();
  pipeline_->freeze();
}

void HeteroCmp::unfreeze_injectors() {
  for (auto& core : cores_) core->unfreeze();
  pipeline_->unfreeze();
}

bool HeteroCmp::quiesced() const {
  if (engine_->pending_events() != 0) return false;
  if (!gmi_->empty()) return false;
  if (!llc_->quiescent()) return false;
  if (!dram_->idle()) return false;
  for (const auto& core : cores_) {
    if (!core->quiescent()) return false;
  }
  return pipeline_->quiescent();
}

void HeteroCmp::drain(Cycle max_cycles) {
  freeze_injectors();
  engine_->run_until([this] { return quiesced(); }, max_cycles);
  if (!quiesced()) {
    unfreeze_injectors();
    throw ckpt::CkptError(
        "simulation failed to quiesce within " + std::to_string(max_cycles) +
        " cycles at the checkpoint barrier (in-flight work never retired)");
  }
}

void HeteroCmp::save_state(ckpt::StateWriter& w) {
  if (!quiesced()) {
    throw ckpt::CkptError(
        "save_state() on a simulation with in-flight work; call drain() "
        "first");
  }
  auto section = [&w](const char* tag, auto&& body) {
    w.begin_section(tag);
    body();
    w.end_section();
  };
  section("engine", [&] { engine_->save(w); });
  section("stats", [&] { stats_->save(w); });
  section("ring", [&] { ring_->save(w); });
  section("llc", [&] { llc_->save(w); });
  section("dram", [&] { dram_->save(w); });
  for (unsigned c = 0; c < dram_->num_channels(); ++c) {
    if (!dram_->scheduler(c).has_ckpt_state()) continue;
    w.begin_section("dramsched" + std::to_string(c));
    dram_->scheduler(c).save(w);
    w.end_section();
  }
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    w.begin_section("cpu" + std::to_string(i));
    cores_[i]->save(w);
    w.end_section();
  }
  section("gpu", [&] { pipeline_->save(w); });
  section("gmi", [&] { gmi_->save(w); });
  section("frpu", [&] { frpu_->save(w); });
  section("atu", [&] { atu_->save(w); });
  section("governor", [&] { governor_->save(w); });
}

void HeteroCmp::load_state(ckpt::StateReader& r, ckpt::RestoreMode mode) {
  std::set<std::string> loaded;
  while (r.next_section()) {
    const std::string tag = r.tag();
    bool handled = true;
    if (tag == "engine") {
      engine_->load(r);
    } else if (tag == "stats") {
      stats_->load(r);
    } else if (tag == "ring") {
      ring_->load(r);
    } else if (tag == "llc") {
      llc_->load(r);
    } else if (tag == "dram") {
      dram_->load(r);
    } else if (tag.rfind("dramsched", 0) == 0) {
      const unsigned c =
          static_cast<unsigned>(std::strtoul(tag.c_str() + 9, nullptr, 10));
      if (c >= dram_->num_channels()) {
        r.fail("snapshot has scheduler state for nonexistent channel " +
               std::to_string(c));
      }
      // A fork across policies leaves the section unclaimed; skip it.
      handled = dram_->scheduler(c).has_ckpt_state();
      if (handled) dram_->scheduler(c).load(r);
    } else if (tag.rfind("cpu", 0) == 0) {
      const unsigned i =
          static_cast<unsigned>(std::strtoul(tag.c_str() + 3, nullptr, 10));
      if (i >= cores_.size()) {
        r.fail("snapshot has state for nonexistent core " + std::to_string(i));
      }
      cores_[i]->load(r);
    } else if (tag == "gpu") {
      pipeline_->load(r);
    } else if (tag == "gmi") {
      gmi_->load(r);
    } else if (tag == "frpu") {
      frpu_->load(r);
    } else if (tag == "atu") {
      atu_->load(r);
    } else if (tag == "governor") {
      governor_->load(r);
    } else {
      handled = false;  // unknown section: skipped for forward compatibility
    }
    if (handled) {
      loaded.insert(tag);
      r.expect_section_end();
    }
  }

  std::set<std::string> expected = {"engine", "stats", "ring", "llc",
                                    "dram",   "gpu",   "gmi", "frpu",
                                    "atu",    "governor"};
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    expected.insert("cpu" + std::to_string(i));
  }
  if (mode == ckpt::RestoreMode::kResume) {
    // An exact resume must restore the live policy's scheduler state too.
    for (unsigned c = 0; c < dram_->num_channels(); ++c) {
      if (dram_->scheduler(c).has_ckpt_state()) {
        expected.insert("dramsched" + std::to_string(c));
      }
    }
  }
  for (const std::string& tag : expected) {
    if (loaded.count(tag) == 0) {
      throw ckpt::CkptError("snapshot is missing the '" + tag +
                            "' section required to restore this run");
    }
  }
}

void HeteroCmp::wire_gpu() {
  gmi_->set_sender([this](MemRequest&& req) {
    if (req.on_complete) {
      auto cb = std::move(req.on_complete);
      req.on_complete = [this, cb = std::move(cb)](Cycle) {
        ring_->send(llc_stop_, gpu_stop_, [this, cb] { cb(engine_->now()); },
                    RingNetwork::Traffic::Gpu);
      };
    }
    ring_->send(gpu_stop_, llc_stop_, [this, r = std::move(req)]() mutable {
      llc_->request(std::move(r));
    }, RingNetwork::Traffic::Gpu);
  });
}

}  // namespace gpuqos
