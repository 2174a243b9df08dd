// Interval time-series sampler over a StatRegistry.
//
// Registered as an Engine ticker (see HeteroCmp::attach_telemetry): every N
// base cycles it snapshots the registry, records the per-counter delta since
// the previous snapshot, and evaluates a set of gauge callbacks (instantaneous
// values such as the ATU window WG or the predicted FPS). The in-memory
// series streams to JSONL (one object per interval).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace gpuqos {

class IntervalSampler {
 public:
  struct Sample {
    Cycle cycle = 0;      // base-cycle timestamp of the snapshot
    Cycle dt = 0;         // cycles since the previous snapshot (or rebase)
    std::map<std::string, std::uint64_t> deltas;  // non-zero counter deltas
    std::map<std::string, double> gauges;
  };

  using GaugeFn = std::function<double()>;

  /// Bind the registry to sample. Until bound, rebase()/sample() are no-ops
  /// (an unbound sampler is simply disabled).
  void bind(const StatRegistry* stats) { stats_ = stats; }

  /// Register a named gauge evaluated at every sample point.
  void add_gauge(const std::string& name, GaugeFn fn);

  /// Reset the delta baseline to the registry's current values without
  /// recording a sample (used at the warm-up/measurement boundary so the
  /// first measured interval excludes warm-up activity).
  void rebase(Cycle now);

  /// Take one sample: counter deltas since the last snapshot plus gauges.
  void sample(Cycle now);

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

  /// One JSON object per line:
  /// {"cycle":N,"dt":N,"counters":{...},"gauges":{...}}
  void write_jsonl(std::ostream& os) const;

 private:
  const StatRegistry* stats_ = nullptr;
  std::vector<std::pair<std::string, GaugeFn>> gauges_;
  std::map<std::string, std::uint64_t> baseline_;
  Cycle last_cycle_ = 0;
  std::vector<Sample> samples_;
};

}  // namespace gpuqos
