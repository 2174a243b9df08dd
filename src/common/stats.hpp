// Named statistics registry.
//
// Components register counters/scalars under hierarchical names
// ("llc.miss.gpu", "dram.ch0.read_bytes"). The registry supports snapshots so
// experiment runners can subtract warm-up activity from measured activity.
//
// A component that counts lazily (a parked CPU core owes one stall per
// skipped tick) registers a settle hook; every read of the counters, and
// clear() and load(), runs the hooks first, so no reader can observe a
// counter that is behind the simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gpuqos {

namespace ckpt {
class StateWriter;
class StateReader;
}  // namespace ckpt

class StatRegistry {
 public:
  /// Increment a counter, creating it on first use.
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Stable pointer to a counter for hot paths (std::map nodes do not move).
  /// Callers cache the pointer once and bump it directly each cycle.
  [[nodiscard]] std::uint64_t* counter_ptr(const std::string& name);

  /// Set a scalar (gauge) value.
  void set(const std::string& name, double value);

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double scalar(const std::string& name) const;
  [[nodiscard]] bool has_counter(const std::string& name) const;

  /// Copy of all counters (used for warm-up snapshots and reporting).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] std::map<std::string, double> scalars() const;

  /// Counter value minus the value it had in `baseline` (missing = 0).
  [[nodiscard]] std::uint64_t since(
      const std::string& name,
      const std::map<std::string, std::uint64_t>& baseline) const;

  void clear();

  /// Render "name value" lines, one per stat, sorted by name.
  [[nodiscard]] std::string report(const std::string& prefix = "") const;

  /// JSON export: {"counters":{...},"scalars":{...}} with keys in stable
  /// (lexicographic) order. Shared by the interval sampler and end-of-run
  /// reporting so both emit identical serializations.
  [[nodiscard]] std::string to_json() const;

  /// FNV-1a digest of every counter and scalar (stable map order). The
  /// broadest determinism probe: almost any behavioural divergence moves a
  /// counter within one sampling interval.
  [[nodiscard]] std::uint64_t digest() const;

  /// Serialize every counter and scalar. load() writes values into existing
  /// map nodes (or creates them), so counter_ptr pointers cached by modules
  /// before the load stay valid and observe the restored values.
  void save(ckpt::StateWriter& w) const;
  void load(ckpt::StateReader& r);

  /// Register `fn` to bring `owner`'s lazily-counted counters up to date
  /// before any read. The owner must remove its hooks before it dies.
  void add_settle_hook(const void* owner, std::function<void()> fn);
  void remove_settle_hooks(const void* owner);

 private:
  void settle() const;

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> scalars_;
  // Host-side wiring: hooks only write owed counts into counters_, which
  // are saved and digested themselves.
  std::vector<std::pair<const void*, std::function<void()>>>
      settle_hooks_;  // ckpt:skip digest:skip: wiring, not state
};

/// Geometric mean of strictly positive values; returns 0 for empty input.
[[nodiscard]] double geomean(const std::vector<double>& values);

}  // namespace gpuqos
