// Host-time benchmark driver (perfbench/README.md). Runs one workload, or
// all three, for a fixed host-time window and prints one JSON object per
// workload on stdout: the end-to-end metrics (untraced mode) or the
// per-layer metrics (traced mode), the output digest, the spans it recorded
// around each public call, and the run metadata.
//
// The simulator is deterministic, so every repetition of a workload at one
// seed must produce the same output digest; simulated statistics are the
// correctness oracle and host time is what is measured. Only public entry
// points are used: spec_profile/build_frames/HeteroCmp, Engine::run_for,
// svc::Executor::run_batch, drain/save_state/load_state, the module
// digest()s, StatRegistry and the Telemetry profiler.
//
// Usage:
//   gpuqos_bench --workload m8_throt|gpu_alone_hl2|policy_sweep_m8|all
//                [--seed N] [--seconds S] [--trace 0|1] [--quick]
//                [--expect-digest HEX]
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "common/cli.hpp"
#include "common/units.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "sim/hetero_cmp.hpp"
#include "svc/exec.hpp"
#include "svc/jobspec.hpp"
#include "workloads/gpu_apps.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"

using namespace gpuqos;

namespace {

using Clock = std::chrono::steady_clock;

// Fixed work per repetition. The budget is long enough for the QoS
// controller to act over several HL2 frames; the sweep keeps a pool width
// of 2 because 4 workers on a shared 4-core host spread far more.
constexpr Cycle kBudget = 4'000'000;
constexpr Cycle kQuickBudget = 200'000;
constexpr unsigned kPoolWidth = 2;
constexpr int kSlices = 10;             // run_for slices in a traced run
constexpr std::size_t kMinSetups = 201;  // setup_s: median of >= this many
constexpr int kSetupsPerRep = 12;        // spread set-up samples over the run

// Host-speed calibration. On a shared 4-vCPU Xeon VM the host's speed drifts
// by up to ±20% over minutes, for the simulator and unrelated code alike. A
// fixed integer kernel that shares no code with the simulator is timed
// before every repetition, and every host time is reported at reference
// speed: scaled by kCalRefS / median(kernel time). On that VM, in a noisy
// period, this cut the spread of wall_s across ten runs from 23% to 11%.
// The raw times and the scale are in the report.
constexpr double kCalRefS = 0.012;  // kernel time on that VM when quiet
constexpr int kCalPerRep = 3;

const Clock::time_point g_epoch = Clock::now();

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One benchmark-side span around a public call. Spans of one workload run
/// share the process; `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;  // since process start
  double end_s = 0.0;
  std::string note;
};

class SpanLog {
 public:
  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), parent, now_s(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::string note = {}) {
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    spans_[static_cast<std::size_t>(id)].note = std::move(note);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static double now_s() { return secs(g_epoch, Clock::now()); }
  std::vector<Span> spans_;
};

struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  std::map<std::string, double> metrics;
  std::vector<std::map<std::string, double>> slices;  // traced fixed runs
  SpanLog spans;
  std::string profiler_table;  // traced fixed runs
  double host_scale = 1.0;     // kCalRefS / median calibration kernel time
  std::map<std::string, double> raw_metrics;  // host times before scaling

  void fail(const std::string& why, std::uint64_t runs = 1) {
    failed += runs;
    if (errors.size() < 8) errors.push_back(why);
  }
};

struct Options {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::optional<std::uint64_t> expect;  // reference output digest
};

/// Checks one repetition's digest: equal to the first repetition's (the
/// simulator is deterministic), and to the reference when one was given.
void check_digest(Report& rep, const Options& o,
                  std::optional<std::uint64_t>& first, std::uint64_t d,
                  const char* what) {
  if (!first) {
    first = d;
    rep.digest = d;
  }
  if (d != *first) {
    throw std::runtime_error(std::string(what) + " digest " + hex(d) +
                             " differs from the first repetition's " +
                             hex(*first));
  }
  if (o.expect && d != *o.expect) {
    throw std::runtime_error(std::string(what) + " digest " + hex(d) +
                             " differs from the reference " + hex(*o.expect));
  }
}

/// Seconds of a fixed integer kernel: random read-modify-writes with a
/// data-dependent branch over a 256 KiB table, about 12 ms on a quiet host.
double time_calibration_kernel() {
  static std::vector<std::uint32_t> table(1u << 16);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& e = table[x & 0xFFFF];
    if ((e & 3) == ((x >> 60) & 3)) {
      e += static_cast<std::uint32_t>(x >> 32);
    } else {
      e ^= static_cast<std::uint32_t>(x);
    }
    acc += e;
  }
  const double t = secs(t0, Clock::now());
  if (acc == 42) std::fputc(' ', stderr);  // keep the loop observable
  return t;
}

/// Runs `one` repetition after another until the next would overrun
/// `seconds` (at least once). Set-up samples are taken between repetitions,
/// so they see the same host conditions, and topped up to kMinSetups.
/// Returns the host scale, kCalRefS / median calibration kernel time.
double repeat_for(double seconds, const std::function<void()>& one,
                  const std::function<void()>& extra_setup,
                  const std::vector<double>& setups) {
  std::vector<double> cal;
  auto calibrate = [&cal] {
    for (int i = 0; i < kCalPerRep; ++i) {
      cal.push_back(time_calibration_kernel());
    }
  };
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    calibrate();
    one();
    for (int i = 0; i < kSetupsPerRep; ++i) extra_setup();
    const auto t1 = Clock::now();
    if (secs(start, t1) + secs(t0, t1) > seconds) break;
  }
  calibrate();
  while (setups.size() < kMinSetups) extra_setup();
  return kCalRefS / median(cal);
}

/// Reports every host time at reference speed; keeps the raw values.
void apply_host_scale(Report& rep, double scale) {
  rep.host_scale = scale;
  auto ends_with = [](const std::string& k, const std::string& suffix) {
    return k.size() >= suffix.size() &&
           k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (auto& [k, v] : rep.metrics) {
    if (k == "sim_kcycles_per_s") {  // a rate: checked before the "_s" times
      rep.raw_metrics[k] = v;
      v /= scale;
    } else if (ends_with(k, "_s") || ends_with(k, "_ns_per_entry")) {
      rep.raw_metrics[k] = v;
      v *= scale;
    }
  }
}

/// Peak resident set of this process image, in MiB. VmHWM, not
/// getrusage(): ru_maxrss keeps the high-water mark of the process that
/// forked us across exec, so a Python parent would show through.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// Per-layer metric names that come from the StatRegistry (exact simulated
// counts). Filled for every workload; the sweep sums the measured-window
// deltas of its eight jobs.
void stat_metrics(const std::map<std::string, std::uint64_t>& c, double cycles,
                  std::size_t cores, std::map<std::string, double>& m) {
  auto get = [&c](const std::string& k) -> double {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  double stalls = 0.0;
  double committed = 0.0;
  for (std::size_t i = 0; i < cores; ++i) {
    const std::string p = "cpu" + std::to_string(i) + ".";
    for (const char* s : {"stall_dependent", "stall_fixed", "stall_rob",
                          "stall_structural"}) {
      stalls += get(p + s);
    }
    committed += get(p + "committed_instrs");
  }
  m["cpu.stall_share"] = ratio(stalls, static_cast<double>(cores) * cycles);
  m["cpu.committed_instrs"] = committed;
  m["gpu.fragments"] = get("gpu.fragments");
  m["gpu.stall_no_context"] = get("gpu.stall_no_context");
  m["llc.accesses"] = get("llc.access.cpu") + get("llc.access.gpu");
  m["llc.hit_ratio.cpu"] = ratio(get("llc.hit.cpu"), get("llc.access.cpu"));
  m["llc.hit_ratio.gpu"] = ratio(get("llc.hit.gpu"), get("llc.access.gpu"));
  m["llc.mshr_coalesced_ratio"] =
      ratio(get("llc.mshr_coalesced"),
            get("llc.mshr_coalesced") + get("llc.mshr_allocations"));
  m["ring.messages"] = get("ring.messages");
  m["ring.queue_cycles_per_msg"] =
      ratio(get("ring.queue_cycles"), get("ring.messages"));
  m["dram.reads"] = get("dram.reads");
  m["dram.writes"] = get("dram.writes");
  m["dram.row_hit_ratio"] =
      ratio(get("dram.row_hits"),
            get("dram.row_hits") + get("dram.row_misses"));
  m["dram.read_latency.cpu"] =
      ratio(get("dram.read_latency_sum.cpu"), get("dram.reads.cpu"));
  m["dram.read_latency.gpu"] =
      ratio(get("dram.read_latency_sum.gpu"), get("dram.reads.gpu"));
  m["qos.atu_token_denials"] = get("qos.atu_token_denials");
  m["qos.control_steps_throttling"] = get("qos.control_steps_throttling");
}

// Every per-layer name, so a workload a layer does not apply to reports 0
// for it instead of omitting it.
const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "cpu.host_share", "cpu.host_ns_per_entry", "cpu.entries",
      "cpu.stall_share", "cpu.committed_instrs",
      "gpu_pipeline.host_share", "gpu_pipeline.host_ns_per_entry",
      "gpu_pipeline.entries", "gpu_mem.host_share", "gpu_mem.host_ns_per_entry",
      "gpu.fragments", "gpu.stall_no_context",
      "llc.host_share", "llc.host_ns_per_entry", "llc.entries", "llc.accesses",
      "llc.hit_ratio.cpu", "llc.hit_ratio.gpu", "llc.mshr_coalesced_ratio",
      "ring.host_share", "ring.host_ns_per_entry", "ring.messages",
      "ring.queue_cycles_per_msg",
      "dram.host_share", "dram.host_ns_per_entry", "dram.entries",
      "dram.reads", "dram.writes", "dram.row_hit_ratio",
      "dram.read_latency.cpu", "dram.read_latency.gpu",
      "engine.events", "engine.ticks", "engine.ticks_per_kcycle",
      "engine.residual_share",
      "qos.governor_entries", "qos.atu_token_denials",
      "qos.control_steps_throttling",
      "workloads.build_frames_s", "sim.construct_s",
      "ckpt.drain_s", "ckpt.save_s", "ckpt.load_s", "ckpt.snapshot_bytes",
      "svc.cold_runs", "svc.warm_forks", "svc.first_result_s",
      "svc.last_gap_s", "sweep.workers",
      "obs.trace_overhead_pct"};
  return names;
}

// ---------------------------------------------------------------------------
// Fixed-budget workloads: one HeteroCmp, one run_for(budget).

struct FixedWorkload {
  const char* name;
  bool with_cpus;
  Policy policy;
};

struct Machine {
  std::unique_ptr<HeteroCmp> cmp;
  double build_frames_s = 0.0;  // spec_profile + build_frames
  double construct_s = 0.0;     // HeteroCmp constructor + set_repeat
};

Machine set_up(const FixedWorkload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  SimConfig cfg = Presets::scaled();
  cfg.seed = seed;
  std::vector<SpecProfile> profiles;
  if (w.with_cpus) {
    for (int id : mix("M8").cpu_specs) profiles.push_back(spec_profile(id));
  }
  const GpuAppDesc& app = gpu_app("HL2");
  std::vector<SceneFrame> frames = build_frames(app, seed);
  const auto t1 = Clock::now();
  Machine m;
  m.cmp = std::make_unique<HeteroCmp>(cfg, w.policy, std::move(profiles),
                                      std::move(frames), app.fps_scale);
  m.cmp->gpu().set_repeat(true);
  const auto t2 = Clock::now();
  m.build_frames_s = secs(t0, t1);
  m.construct_s = secs(t1, t2);
  return m;
}

/// Output digest: every module digest the machine exposes, in fixed order.
std::uint64_t machine_digest(HeteroCmp& cmp) {
  Fnv1a64 h;
  h.mix(cmp.stats().digest());
  h.mix(cmp.engine().digest());
  h.mix(cmp.llc().digest());
  h.mix(cmp.dram().digest());
  for (std::size_t i = 0; i < cmp.num_cores(); ++i) h.mix(cmp.core(i).digest());
  h.mix(cmp.gpu().digest());
  h.mix(cmp.gmi().digest());
  h.mix(cmp.frpu().digest());
  h.mix(cmp.atu().digest());
  return h.value();
}

/// Sanity of one finished budget; throws on a wrong result.
void check_machine(HeteroCmp& cmp, const FixedWorkload& w, Cycle budget) {
  if (cmp.engine().now() != budget) {
    throw std::runtime_error("engine stopped at cycle " +
                             std::to_string(cmp.engine().now()));
  }
  if (cmp.stats().counter("gpu.fragments") == 0) {
    throw std::runtime_error("GPU rendered no fragments");
  }
  const std::size_t want_cores = w.with_cpus ? mix("M8").cpu_specs.size() : 0;
  if (cmp.num_cores() != want_cores) {
    throw std::runtime_error("machine has " + std::to_string(cmp.num_cores()) +
                             " cores");
  }
  for (std::size_t i = 0; i < cmp.num_cores(); ++i) {
    if (cmp.core(i).committed() == 0) {
      throw std::runtime_error("core " + std::to_string(i) +
                               " committed nothing");
    }
  }
}

struct ProfWindow {
  std::uint64_t ticks = 0;
  double seconds = 0.0;
};

/// Per-layer host metrics from the profiler, against the benchmark's own
/// tick window. Shares are the profiler's 1-in-16 sampled estimate; the
/// residual is signed and never clamped.
void host_metrics(const Profiler& prof, const ProfWindow& win,
                  std::map<std::string, double>& m) {
  const double window = static_cast<double>(win.ticks);
  const double ns_per_tick = ratio(win.seconds * 1e9, window);
  auto slot = [&prof](ProfModule mod) {
    Profiler::Slot s;
    for (ProfPhase ph : {ProfPhase::Warm, ProfPhase::Measure}) {
      const Profiler::Slot p = prof.slot(ph, mod);
      s.self_ticks += p.self_ticks;
      s.entries += p.entries;
    }
    return s;
  };
  auto layer = [&](const char* name, ProfModule mod, bool with_entries) {
    const Profiler::Slot s = slot(mod);
    const std::string n = name;
    m[n + ".host_share"] =
        ratio(static_cast<double>(s.self_ticks), window);
    m[n + ".host_ns_per_entry"] =
        ratio(static_cast<double>(s.self_ticks) * ns_per_tick,
              static_cast<double>(s.entries));
    if (with_entries) m[n + ".entries"] = static_cast<double>(s.entries);
  };
  layer("cpu", ProfModule::CpuCore, true);
  layer("gpu_pipeline", ProfModule::GpuPipeline, true);
  layer("gpu_mem", ProfModule::GpuMem, false);
  layer("llc", ProfModule::Llc, true);
  layer("ring", ProfModule::Ring, false);
  layer("dram", ProfModule::Dram, true);
  m["qos.governor_entries"] =
      static_cast<double>(slot(ProfModule::Governor).entries);
  m["engine.residual_share"] =
      ratio(window - static_cast<double>(prof.attributed_ticks()), window);
}

/// Checkpoint round trip on a finished machine: drain, save, restore into a
/// fresh machine; the copy must digest equal to the drained original.
void ckpt_roundtrip(Report& rep, const FixedWorkload& w, std::uint64_t seed,
                    HeteroCmp& cmp, int parent) {
  auto& m = rep.metrics;
  int s = rep.spans.open("ckpt.drain", parent);
  auto t0 = Clock::now();
  cmp.drain();
  m["ckpt.drain_s"] = secs(t0, Clock::now());
  rep.spans.close(s);
  const std::uint64_t drained = machine_digest(cmp);

  s = rep.spans.open("ckpt.save_state", parent);
  t0 = Clock::now();
  ckpt::StateWriter wr;
  cmp.save_state(wr);
  std::vector<std::uint8_t> bytes = wr.finish();
  m["ckpt.save_s"] = secs(t0, Clock::now());
  m["ckpt.snapshot_bytes"] = static_cast<double>(bytes.size());
  rep.spans.close(s, std::to_string(bytes.size()) + " bytes");

  Machine copy = set_up(w, seed);
  s = rep.spans.open("ckpt.load_state", parent);
  t0 = Clock::now();
  ckpt::StateReader rd(std::move(bytes));
  copy.cmp->load_state(rd, ckpt::RestoreMode::kResume);
  m["ckpt.load_s"] = secs(t0, Clock::now());
  rep.spans.close(s);
  const std::uint64_t restored = machine_digest(*copy.cmp);
  if (restored != drained) {
    throw std::runtime_error("restored machine digest " + hex(restored) +
                             " differs from the drained machine's " +
                             hex(drained));
  }
}

Report run_fixed(const FixedWorkload& w, const Options& o) {
  Report rep;
  rep.workload = w.name;
  const Cycle budget = o.quick ? kQuickBudget : kBudget;
  std::optional<std::uint64_t> first;
  std::vector<double> walls, traced_walls, setups, frames_s, construct_s;
  std::map<std::string, std::vector<double>> host;  // traced host metrics
  bool first_traced = true;  // slices, engine counts and ckpt come from it

  auto record_setup = [&](const Machine& mc) {
    setups.push_back(mc.build_frames_s + mc.construct_s);
    frames_s.push_back(mc.build_frames_s);
    construct_s.push_back(mc.construct_s);
  };

  auto untraced_rep = [&] {
    ++rep.attempted;
    try {
      Machine mc = set_up(w, o.seed);
      record_setup(mc);
      const auto t0 = Clock::now();
      mc.cmp->engine().run_for(budget);
      walls.push_back(secs(t0, Clock::now()));
      check_machine(*mc.cmp, w, budget);
      check_digest(rep, o, first, machine_digest(*mc.cmp), "untraced");
    } catch (const std::exception& e) {
      rep.fail(e.what());
    }
  };

  auto traced_rep = [&] {
    ++rep.attempted;
    try {
      const int root = rep.spans.open(std::string(w.name) + ".traced_rep");
      int s = rep.spans.open("set_up", root);
      Machine mc = set_up(w, o.seed);
      rep.spans.close(s);
      record_setup(mc);
      TelemetryOptions topts;
      topts.capture_trace = false;
      topts.capture_journal = false;
      topts.capture_histograms = false;
      topts.capture_log = false;
      topts.capture_profile = true;
      Telemetry tel(topts);
      mc.cmp->attach_telemetry(tel);
      HeteroCmp& cmp = *mc.cmp;

      const int run = rep.spans.open("run_for", root);
      const auto c0 = Clock::now();
      const std::uint64_t k0 = Profiler::now_ticks();
      std::map<std::string, std::uint64_t> prev = cmp.stats().counters();
      std::vector<std::map<std::string, double>> slices;
      for (int k = 0; k < kSlices; ++k) {
        const Cycle end = budget * static_cast<Cycle>(k + 1) / kSlices;
        const Cycle begin = cmp.engine().now();
        const int ss = rep.spans.open("run_for.slice", run);
        cmp.engine().run_for(end - begin);
        rep.spans.close(ss, "to cycle " + std::to_string(end));
        const std::map<std::string, std::uint64_t> cur = cmp.stats().counters();
        std::map<std::string, std::uint64_t> delta;
        for (const auto& [name, v] : cur) {
          auto it = prev.find(name);
          delta[name] = v - (it == prev.end() ? 0 : it->second);
        }
        std::map<std::string, double> sm;
        stat_metrics(delta, static_cast<double>(end - begin), cmp.num_cores(),
                     sm);
        sm["cycle"] = static_cast<double>(end);
        slices.push_back(std::move(sm));
        prev = cur;
      }
      const ProfWindow win{Profiler::now_ticks() - k0, secs(c0, Clock::now())};
      rep.spans.close(run);
      traced_walls.push_back(win.seconds);

      std::map<std::string, double> hm;
      host_metrics(*tel.profiler(), win, hm);
      for (const auto& [k, v] : hm) host[k].push_back(v);
      check_machine(cmp, w, budget);
      check_digest(rep, o, first, machine_digest(cmp), "traced");

      if (first_traced) {
        first_traced = false;
        rep.slices = std::move(slices);
        rep.profiler_table = tel.profiler()->table();
        auto& m = rep.metrics;
        m["engine.events"] = static_cast<double>(cmp.engine().events_run());
        m["engine.ticks"] = static_cast<double>(cmp.engine().ticks_run());
        m["engine.ticks_per_kcycle"] =
            ratio(static_cast<double>(cmp.engine().ticks_run()),
                  static_cast<double>(budget) / 1e3);
        stat_metrics(cmp.stats().counters(), static_cast<double>(budget),
                     cmp.num_cores(), m);
        ckpt_roundtrip(rep, w, o.seed, cmp, root);
      }
      rep.spans.close(root);
    } catch (const std::exception& e) {
      rep.fail(e.what());
    }
  };

  const double host_scale = repeat_for(
      o.seconds,
      [&] {
        if (o.trace) traced_rep();
        untraced_rep();
      },
      [&] { record_setup(set_up(w, o.seed)); }, setups);

  auto& m = rep.metrics;
  if (o.trace) {
    for (const auto& [k, v] : host) m[k] = median(v);
    m["workloads.build_frames_s"] = median(frames_s);
    m["sim.construct_s"] = median(construct_s);
    m["obs.trace_overhead_pct"] =
        (ratio(median(traced_walls), median(walls)) - 1.0) * 100.0;
  } else {
    const double wall = median(walls);
    m["wall_s"] = wall;
    m["sim_kcycles_per_s"] = ratio(static_cast<double>(budget) / 1e3, wall);
    m["setup_s"] = median(setups);
    m["peak_rss_mib"] = peak_rss_mib();
  }
  apply_host_scale(rep, host_scale);
  return rep;
}

// ---------------------------------------------------------------------------
// Policy sweep: every policy on M8 through a fresh in-process Executor.

RunScale quick_scale() {
  RunScale s;
  s.warm_instrs = 20'000;
  s.measure_instrs = 50'000;
  s.warm_frames = 1;
  s.measure_frames = 1;
  s.warm_min_cycles = 200'000;
  s.max_cycles = 50'000'000;
  return s;
}

/// Simulated base cycles of a job's measured window: the later of the GPU's
/// frame quota and the slowest core's instruction quota.
double measured_cycles(const HeteroResult& r, const RunScale& scale) {
  double c = r.seconds * kCpuClockHz;
  for (double ipc : r.cpu_ipc) {
    c = std::max(c, ratio(static_cast<double>(scale.measure_instrs), ipc));
  }
  return c;
}

struct Sweep {
  std::unique_ptr<svc::Executor> exec;
  std::vector<svc::JobSpec> jobs;
  double setup_s = 0.0;  // Executor construction + validate() of every job
};

Sweep set_up_sweep(std::uint64_t seed, const RunScale& scale) {
  const auto t0 = Clock::now();
  Sweep sw;
  svc::ExecOptions eo;
  eo.store_dir = "";  // no persistence: nothing is served from disk
  eo.threads = kPoolWidth;
  sw.exec = std::make_unique<svc::Executor>(eo);
  for (Policy p : all_policies()) {
    svc::JobSpec j = svc::hetero_job("M8", to_string(p), scale);
    j.seed = seed;
    svc::validate(j);
    sw.jobs.push_back(std::move(j));
  }
  sw.setup_s = secs(t0, Clock::now());
  return sw;
}

Report run_sweep(const Options& o) {
  Report rep;
  rep.workload = "policy_sweep_m8";
  const RunScale scale = o.quick ? quick_scale() : RunScale{};
  std::optional<std::uint64_t> first;
  std::vector<double> walls, traced_walls, setups, kcps, first_result,
      last_gap;
  double sources_cold = 0.0, sources_warm = 0.0;
  std::map<std::string, std::uint64_t> counts;
  double cycles_total = 0.0;

  auto batch = [&](bool traced) {
    rep.attempted += all_policies().size();
    try {
      Sweep sw = set_up_sweep(o.seed, scale);
      setups.push_back(sw.setup_s);
      const std::vector<svc::JobSpec>& jobs = sw.jobs;

      std::vector<double> marks;
      double cold = 0.0, warm = 0.0;
      svc::Executor::Progress progress;
      int root = -1;
      Clock::time_point t0;
      if (traced) {
        root = rep.spans.open("run_batch");
        progress = [&](std::size_t, std::size_t, const svc::JobResult& r) {
          marks.push_back(secs(t0, Clock::now()));
          const int mk = rep.spans.open("job_done", root);
          rep.spans.close(mk, r.spec.policy + " " + svc::to_string(r.source));
          (r.source == svc::JobSource::kCold ? cold : warm) += 1.0;
        };
      }
      svc::BatchStats stats;
      t0 = Clock::now();
      std::vector<svc::JobResult> results =
          sw.exec->run_batch(jobs, progress, &stats);
      const double wall = secs(t0, Clock::now());
      if (traced) rep.spans.close(root);

      if (results.size() != jobs.size()) {
        throw std::runtime_error("batch returned " +
                                 std::to_string(results.size()) + " results");
      }
      if (stats.cold_runs != 1 || stats.warm_forks + 1 != jobs.size()) {
        throw std::runtime_error("expected 1 cold run + " +
                                 std::to_string(jobs.size() - 1) +
                                 " warm forks, got " +
                                 std::to_string(stats.cold_runs) + " + " +
                                 std::to_string(stats.warm_forks));
      }
      Fnv1a64 h;
      double cycles = 0.0;
      std::map<std::string, std::uint64_t> sum;
      for (const svc::JobResult& r : results) {
        const HeteroResult& hr = r.result;
        if (hr.hit_cycle_cap || hr.fps <= 0.0 ||
            hr.cpu_ipc.size() != mix("M8").cpu_specs.size()) {
          throw std::runtime_error(r.spec.policy + ": incomplete result");
        }
        for (double ipc : hr.cpu_ipc) {
          if (ipc <= 0.0) throw std::runtime_error(r.spec.policy + ": IPC 0");
        }
        h.mix(r.digest);
        cycles += measured_cycles(hr, scale);
        for (const auto& [k, v] : hr.stat_delta) sum[k] += v;
      }
      check_digest(rep, o, first, h.value(), traced ? "traced" : "untraced");
      if (traced) {
        traced_walls.push_back(wall);
        std::sort(marks.begin(), marks.end());
        if (!marks.empty()) first_result.push_back(marks.front());
        if (marks.size() >= 2) {
          last_gap.push_back(marks.back() - marks[marks.size() - 2]);
        }
        sources_cold = cold;
        sources_warm = warm;
        counts = std::move(sum);
        cycles_total = cycles;
      } else {
        walls.push_back(wall);
        kcps.push_back(cycles / 1e3 / wall);
      }
    } catch (const std::exception& e) {
      rep.fail(e.what(), all_policies().size());
    }
  };

  const double host_scale = repeat_for(
      o.seconds,
      [&] {
        if (o.trace) batch(true);
        batch(false);
      },
      [&] { setups.push_back(set_up_sweep(o.seed, scale).setup_s); }, setups);

  auto& m = rep.metrics;
  if (o.trace) {
    stat_metrics(counts, cycles_total, mix("M8").cpu_specs.size(), m);
    m["svc.cold_runs"] = sources_cold;
    m["svc.warm_forks"] = sources_warm;
    m["svc.first_result_s"] = median(first_result);
    m["svc.last_gap_s"] = median(last_gap);
    m["sweep.workers"] = static_cast<double>(
        std::min<std::size_t>(kPoolWidth, all_policies().size()));
    m["sim.construct_s"] = median(setups);
    m["obs.trace_overhead_pct"] =
        (ratio(median(traced_walls), median(walls)) - 1.0) * 100.0;
  } else {
    m["wall_s"] = median(walls);
    m["sim_kcycles_per_s"] = median(kcps);
    m["setup_s"] = median(setups);
    m["peak_rss_mib"] = peak_rss_mib();
  }
  apply_host_scale(rep, host_scale);
  return rep;
}

// ---------------------------------------------------------------------------

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_obj(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ',';
    s += json_str(k) + ":" + json_num(v);
  }
  return s + "}";
}

/// Joins already-rendered JSON values into an array.
std::string json_arr(const std::vector<std::string>& items) {
  std::string s = "[";
  for (const std::string& it : items) {
    if (s.size() > 1) s += ',';
    s += it;
  }
  return s + "]";
}

void print_report(const Report& rep, const Options& o, Cycle budget) {
  if (!rep.profiler_table.empty()) {
    std::printf("# %s profiler table (its own clamped residual; the signed "
                "engine.residual_share below is the benchmark's)\n",
                rep.workload.c_str());
    std::printf("%s", rep.profiler_table.c_str());
  }
  std::map<std::string, double> metrics = rep.metrics;
  if (o.trace) {
    metrics.clear();
    for (const std::string& k : per_layer_names()) {
      auto it = rep.metrics.find(k);
      metrics[k] = it == rep.metrics.end() ? 0.0 : it->second;
    }
  }
  std::vector<std::string> errors, slices, spans;
  for (const std::string& e : rep.errors) errors.push_back(json_str(e));
  for (const auto& sl : rep.slices) slices.push_back(json_obj(sl));
  for (const Span& sp : rep.spans.spans()) {
    spans.push_back("{\"name\":" + json_str(sp.name) +
                    ",\"parent\":" + std::to_string(sp.parent) +
                    ",\"start_s\":" + json_num(sp.start_s) +
                    ",\"end_s\":" + json_num(sp.end_s) +
                    ",\"note\":" + json_str(sp.note) + "}");
  }
  const std::string meta =
      "{\"host_cores\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"compiler\":" + json_str(compiler()) +
      ",\"build_type\":" + json_str(GPUQOS_BENCH_BUILD_TYPE) +
      ",\"budget_cycles\":" + std::to_string(budget) +
      ",\"pool_width\":" + std::to_string(kPoolWidth) +
      ",\"quick\":" + (o.quick ? "true" : "false") +
      ",\"host_scale\":" + json_num(rep.host_scale) +
      ",\"calibration_ref_s\":" + json_num(kCalRefS) + "}";
  const std::string s =
      "{\"workload\":" + json_str(rep.workload) +
      ",\"seed\":" + std::to_string(o.seed) +
      ",\"trace\":" + std::to_string(o.trace ? 1 : 0) +
      ",\"attempted\":" + std::to_string(rep.attempted) +
      ",\"failed\":" + std::to_string(rep.failed) +
      ",\"digest\":" + json_str(hex(rep.digest)) + ",\"meta\":" + meta +
      ",\"errors\":" + json_arr(errors) + ",\"metrics\":" + json_obj(metrics) +
      ",\"raw_metrics\":" + json_obj(rep.raw_metrics) +
      ",\"slices\":" + json_arr(slices) + ",\"spans\":" + json_arr(spans) +
      "}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string workload;
  unsigned trace = 0;
  cli::OptionSet opts(
      "--workload m8_throt|gpu_alone_hl2|policy_sweep_m8|all [options]",
      "Host-time benchmark driver; prints one JSON line per workload.");
  opts.str("--workload", "NAME", "workload to run, or all", &workload);
  opts.u64("--seed", "N", "SimConfig seed (default 42)", &o.seed);
  opts.f64("--seconds", "S", "host seconds of repetitions (default 10)",
           &o.seconds);
  opts.u32("--trace", "0|1", "1 = traced run: per-layer metrics", &trace);
  opts.flag("--quick", "short budgets (self-test)", &o.quick);
  opts.custom("--expect-digest", "HEX", "reference output digest to check",
              [&o](const char* v) {
                char* end = nullptr;
                errno = 0;
                o.expect = std::strtoull(v, &end, 16);
                return *v != '\0' && *end == '\0' && errno == 0;
              });
  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);
  if (!positional.empty() || trace > 1 || o.seconds < 0) {
    opts.print_help(stderr, argv[0]);
    return 2;
  }
  o.trace = trace == 1;

  static const FixedWorkload kM8{"m8_throt", true, Policy::ThrottleCpuPrio};
  static const FixedWorkload kGpu{"gpu_alone_hl2", false, Policy::Baseline};
  std::vector<std::function<Report()>> runs;
  const bool all = workload == "all";
  if (all || workload == kM8.name) {
    runs.push_back([&] { return run_fixed(kM8, o); });
  }
  if (all || workload == kGpu.name) {
    runs.push_back([&] { return run_fixed(kGpu, o); });
  }
  if (all || workload == "policy_sweep_m8") {
    runs.push_back([&] { return run_sweep(o); });
  }
  if (runs.empty()) {
    std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                 workload.c_str());
    opts.print_help(stderr, argv[0]);
    return 2;
  }
  // A failed repetition is counted in the report; an exception that escapes
  // a workload (its set-up cannot even be built) leaves nothing to report.
  try {
    for (const auto& run : runs) {
      print_report(run(), o, o.quick ? kQuickBudget : kBudget);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return 0;
}
