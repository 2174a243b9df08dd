// Cycle-attribution profiler: where does *host* wall-time go inside a run?
//
// Scoped RAII timers (ProfScope) stamp module entry/exit with a cheap
// rdtsc-style clock and accumulate *self* time — child scopes subtract their
// elapsed ticks from the enclosing frame, so nesting (a DRAM completion that
// wakes LLC waiters that re-enter the ring) attributes each tick to exactly
// one module. Everything outside any scope is the engine's own dispatch
// overhead and is reported as the explicit "engine" residual row: the run
// window minus the attributed ticks. The residual is signed and never
// clamped — sampled scopes (SampledProfScope) extrapolate their timed
// entries, so the attributed sum is an estimate, and a negative residual
// means the extrapolation overshot the window.
//
// Attribution is split per phase (warm-up vs measured window) because the
// warm-up runs different code proportions (no sampling, colder caches).
//
// Cost model: a Profiler is attached the same way as Telemetry — modules
// hold a raw pointer that is null by default, and ProfScope on a null
// profiler compiles to two predictable branches. The profiler never touches
// simulated state, so digests are identical with and without it (host ticks
// stay on the host side).
//
// Pool safety: a Profiler has no global state and is used by one thread;
// run_many() workers profile into per-job instances that the caller merges
// with merge() at join.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace gpuqos {

/// Modules host time is attributed to. `Engine` is the residual (dispatch,
/// timing wheel, anything not inside a scope) and never used in a ProfScope.
enum class ProfModule : int {
  CpuCore = 0,   // CpuCore::tick commit loop + L1/L2 path
  GpuPipeline,   // GpuPipeline::tick_gpu fragment generation/retire
  GpuMem,        // GpuMemInterface queue + ATU gate
  Llc,           // shared LLC lookup, MSHR, fill, waiter wakeup
  Ring,          // ring message routing
  Dram,          // channel tick, FR-FCFS scan, CAS completions
  Governor,      // QoS control step (FRPU/ATU decisions)
  Ckpt,          // drain barriers + snapshot serialization
  Engine,        // residual: event dispatch, tickers, everything unscoped
};
inline constexpr int kNumProfModules = 9;

[[nodiscard]] const char* to_string(ProfModule m);

enum class ProfPhase : int { Warm = 0, Measure };
inline constexpr int kNumProfPhases = 2;

[[nodiscard]] const char* to_string(ProfPhase p);

class Profiler {
 public:
  /// Raw timestamp: rdtsc on x86-64, steady_clock nanoseconds elsewhere.
  /// Monotonic enough for attribution (out-of-order drift is orders of
  /// magnitude below scope lengths); calibrated against steady_clock over
  /// the whole run for the seconds column of the table.
  [[nodiscard]] static std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc(); /*det:ok: host-side instrumentation, never mixed into
                        simulated state or digests*/
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            /*det:ok: host-side instrumentation*/
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  struct Slot {
    std::uint64_t self_ticks = 0;
    std::uint64_t entries = 0;
  };

  /// Open the run window (idempotent; the first call wins).
  void start();
  /// Close the run window and calibrate ticks -> seconds (idempotent).
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  void set_phase(ProfPhase p) { phase_ = p; }
  [[nodiscard]] ProfPhase phase() const { return phase_; }

  // Scope entry/exit; prefer ProfScope. Depth is bounded (kMaxDepth).
  // `scale` extrapolates a sampled scope: a caller too hot to time every
  // entry (per-tick module loops, ring sends, LLC lookups) times one in N and
  // passes scale = N; self ticks and entries are multiplied while the
  // *real* elapsed time still feeds the enclosing frame's child subtraction.
  void enter(ProfModule m, std::uint32_t scale = 1);
  void leave();

  /// Fold another profiler's attribution into this one (run_many() workers
  /// profile into per-job instances merged at join). Run windows add up.
  void merge(const Profiler& other);

  /// Attribution for one phase x module.
  [[nodiscard]] Slot slot(ProfPhase p, ProfModule m) const {
    return slots_[static_cast<int>(p)][static_cast<int>(m)];
  }
  /// Ticks between start() and stop() (this instance + merged ones).
  [[nodiscard]] std::uint64_t total_ticks() const;
  /// Sum of per-module self ticks across both phases (excludes residual).
  [[nodiscard]] std::uint64_t attributed_ticks() const;
  /// The "engine" row: total_ticks() - attributed_ticks(), negative when the
  /// sampled extrapolation overshoots the run window.
  [[nodiscard]] std::int64_t residual_ticks() const;
  [[nodiscard]] double wall_seconds() const;

  /// Human-readable end-of-run attribution table (docs/OBSERVABILITY.md):
  /// one row per module incl. the signed "engine" residual, per-phase and
  /// total percentages; rows sum to 100% of the run window.
  [[nodiscard]] std::string table() const;

  /// {"total_ticks":N,"wall_seconds":S,"modules":{"llc":{"warm":{...},...}}}
  [[nodiscard]] std::string to_json() const;

 private:
  static constexpr int kMaxDepth = 16;

  struct Frame {
    ProfModule m = ProfModule::Engine;
    std::uint64_t start = 0;
    std::uint64_t child = 0;  // ticks spent in nested scopes
    std::uint32_t scale = 1;
  };

  Slot slots_[kNumProfPhases][kNumProfModules];
  Frame stack_[kMaxDepth];
  int depth_ = 0;
  ProfPhase phase_ = ProfPhase::Warm;

  bool running_ = false;
  bool stopped_ = false;
  std::uint64_t run_start_ticks_ = 0;
  std::uint64_t run_ticks_ = 0;  // closed windows (incl. merged)
  std::chrono::steady_clock::time_point wall_start_{};
  double wall_seconds_ = 0.0;
};

/// RAII module scope; a null profiler makes it a no-op.
class ProfScope {
 public:
  ProfScope(Profiler* p, ProfModule m) : p_(p) {
    if (p_ != nullptr) p_->enter(m);
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->leave();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
};

/// Sampled RAII scope for per-cycle hot paths: times one entry in `Stride`
/// (a power of two) and extrapolates. `decim` is a caller-owned host-side
/// counter (never simulated state, so determinism is unaffected).
template <std::uint32_t Stride>
class SampledProfScope {
  static_assert((Stride & (Stride - 1)) == 0, "stride must be a power of 2");

 public:
  SampledProfScope(Profiler* p, ProfModule m, std::uint32_t& decim)
      : p_(p != nullptr && (decim++ & (Stride - 1)) == 0 ? p : nullptr) {
    if (p_ != nullptr) p_->enter(m, Stride);
  }
  ~SampledProfScope() {
    if (p_ != nullptr) p_->leave();
  }
  SampledProfScope(const SampledProfScope&) = delete;
  SampledProfScope& operator=(const SampledProfScope&) = delete;

 private:
  Profiler* p_;
};

}  // namespace gpuqos
