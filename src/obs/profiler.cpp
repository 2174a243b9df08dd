#include "obs/profiler.hpp"

#include <array>
#include <iomanip>
#include <sstream>

#include "check/check.hpp"
#include "common/jsonio.hpp"

namespace gpuqos {

const char* to_string(ProfModule m) {
  switch (m) {
    case ProfModule::CpuCore: return "cpu_core";
    case ProfModule::GpuPipeline: return "gpu_pipeline";
    case ProfModule::GpuMem: return "gpu_mem";
    case ProfModule::Llc: return "llc";
    case ProfModule::Ring: return "ring";
    case ProfModule::Dram: return "dram";
    case ProfModule::Governor: return "governor";
    case ProfModule::Ckpt: return "ckpt";
    case ProfModule::Engine: return "engine";
  }
  return "?";
}

const char* to_string(ProfPhase p) {
  return p == ProfPhase::Warm ? "warm" : "measure";
}

void Profiler::start() {
  if (running_) return;
  running_ = true;
  run_start_ticks_ = now_ticks();
  /*det:ok: host-side instrumentation, wall time never feeds simulated state*/
  wall_start_ = std::chrono::steady_clock::now();
}

void Profiler::stop() {
  if (!running_ || stopped_) return;
  stopped_ = true;
  running_ = false;
  run_ticks_ += now_ticks() - run_start_ticks_;
  wall_seconds_ +=
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() /*det:ok: host-side
              instrumentation, wall time never feeds simulated state*/
          - wall_start_)
          .count();
}

void Profiler::enter(ProfModule m, std::uint32_t scale) {
  GPUQOS_CHECK(depth_ < kMaxDepth, "profiler scope depth exceeds "
                                       << kMaxDepth << " entering "
                                       << to_string(m));
  Frame& f = stack_[depth_++];
  f.m = m;
  f.child = 0;
  f.scale = scale;
  f.start = now_ticks();
}

void Profiler::leave() {
  GPUQOS_CHECK(depth_ > 0, "profiler leave() without enter()");
  const Frame& f = stack_[--depth_];
  const std::uint64_t elapsed = now_ticks() - f.start;
  const std::uint64_t self = elapsed > f.child ? elapsed - f.child : 0;
  Slot& s = slots_[static_cast<int>(phase_)][static_cast<int>(f.m)];
  s.self_ticks += self * f.scale;
  s.entries += f.scale;
  // The parent sees the *real* elapsed time: extrapolation only scales this
  // module's attribution, never the enclosing frame's bookkeeping.
  if (depth_ > 0) stack_[depth_ - 1].child += elapsed;
}

void Profiler::merge(const Profiler& other) {
  for (int p = 0; p < kNumProfPhases; ++p) {
    for (int m = 0; m < kNumProfModules; ++m) {
      slots_[p][m].self_ticks += other.slots_[p][m].self_ticks;
      slots_[p][m].entries += other.slots_[p][m].entries;
    }
  }
  std::uint64_t other_ticks = other.run_ticks_;
  if (other.running_) other_ticks += now_ticks() - other.run_start_ticks_;
  run_ticks_ += other_ticks;
  wall_seconds_ += other.wall_seconds_;
}

std::uint64_t Profiler::total_ticks() const {
  std::uint64_t t = run_ticks_;
  if (running_) t += now_ticks() - run_start_ticks_;
  return t;
}

std::uint64_t Profiler::attributed_ticks() const {
  std::uint64_t t = 0;
  for (const auto& phase : slots_) {
    for (const Slot& s : phase) t += s.self_ticks;
  }
  return t;
}

std::int64_t Profiler::residual_ticks() const {
  return static_cast<std::int64_t>(total_ticks()) -
         static_cast<std::int64_t>(attributed_ticks());
}

double Profiler::wall_seconds() const {
  if (running_) {
    return wall_seconds_ + std::chrono::duration<double>(
                               /*det:ok: host-side instrumentation*/
                               std::chrono::steady_clock::now() - wall_start_)
                               .count();
  }
  return wall_seconds_;
}

std::string Profiler::table() const {
  const std::uint64_t total = total_ticks();
  const double secs = wall_seconds();
  const double per_tick = total > 0 ? secs / static_cast<double>(total) : 0.0;
  std::ostringstream os;
  os << "host-time attribution (" << std::fixed << std::setprecision(3)
     << secs << " s";
#if defined(__x86_64__) || defined(_M_X64)
  os << ", rdtsc";
#else
  os << ", steady_clock";
#endif
  os << ")\n";
  os << "  module        warm%  measure%   total%   seconds     entries\n";
  for (int m = 0; m < kNumProfModules; ++m) {
    double self = 0.0;
    std::uint64_t entries = 0;
    std::array<double, kNumProfPhases> by_phase{};
    if (m == static_cast<int>(ProfModule::Engine)) {
      // Residual row: everything not inside a scope, signed. It is not
      // phase-stamped, so only total% and seconds are filled in.
      self = static_cast<double>(residual_ticks());
    } else {
      for (int p = 0; p < kNumProfPhases; ++p) {
        const Slot s =
            slot(static_cast<ProfPhase>(p), static_cast<ProfModule>(m));
        by_phase[static_cast<std::size_t>(p)] =
            static_cast<double>(s.self_ticks);
        self += static_cast<double>(s.self_ticks);
        entries += s.entries;
      }
    }
    const auto pct = [&](double t) {
      return total > 0 ? 100.0 * t / static_cast<double>(total) : 0.0;
    };
    os << "  " << std::left << std::setw(12) << to_string(
                                                    static_cast<ProfModule>(m))
       << std::right << std::setw(7) << std::setprecision(2)
       << pct(by_phase[0]) << std::setw(10) << pct(by_phase[1])
       << std::setw(9) << pct(self) << std::setw(10) << std::setprecision(3)
       << self * per_tick << std::setw(12) << entries << "\n";
  }
  return os.str();
}

std::string Profiler::to_json() const {
  const std::uint64_t total = total_ticks();
  std::ostringstream os;
  os << "{\"total_ticks\":" << total
     << ",\"attributed_ticks\":" << attributed_ticks()
     << ",\"wall_seconds\":" << json_double(wall_seconds())
     << ",\"modules\":{";
  bool first = true;
  for (int m = 0; m < kNumProfModules; ++m) {
    if (m == static_cast<int>(ProfModule::Engine)) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << to_string(static_cast<ProfModule>(m)) << "\":{";
    for (int p = 0; p < kNumProfPhases; ++p) {
      const Slot s =
          slot(static_cast<ProfPhase>(p), static_cast<ProfModule>(m));
      os << (p > 0 ? "," : "") << "\"" << to_string(static_cast<ProfPhase>(p))
         << "\":{\"self_ticks\":" << s.self_ticks
         << ",\"entries\":" << s.entries << "}";
    }
    os << "}";
  }
  os << "},\"engine_residual_ticks\":" << residual_ticks() << "}";
  return os.str();
}

}  // namespace gpuqos
