// ActivityCounterBank: the stable catalog of hardware-style activity events.
//
// The catalog covers per-module event counts: DRAM ACT/PRE/RD/WR per
// channel, LLC lookups/fills/writebacks, MSHR allocations, ring hops, GPU
// fragments and tiles retired, ATU token grants/denials, committed
// instructions per core.
// The counters themselves live in the run's StatRegistry — modules register
// and bump them *unconditionally* (they are architectural activity, so the
// determinism digest must not depend on whether observability is enabled).
// This class is the schema layer on top: it knows which registry keys form
// the activity set for a given machine shape and renders them in a stable
// JSON schema (missing keys read as 0, so a run that never exercised a
// module still exports its full column set).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gpuqos {

struct SimConfig;

struct ActivityCounter {
  std::string stat;  // StatRegistry key, e.g. "dram.ch0.act"
};

class ActivityCounterBank {
 public:
  /// Catalog for a machine with `cpu_cores` cores and `dram_channels`
  /// channels (per-instance counters expand per the shape).
  ActivityCounterBank(unsigned cpu_cores, unsigned dram_channels);

  /// Catalog for a configured machine.
  [[nodiscard]] static ActivityCounterBank for_config(const SimConfig& cfg);

  [[nodiscard]] const std::vector<ActivityCounter>& catalog() const {
    return catalog_;
  }

  /// Values resolved from a counter snapshot (StatRegistry::counters() or a
  /// Telemetry counter snapshot), in catalog order; absent keys render as 0:
  /// {"schema_version":1,"counters":{"cpu0.committed_instrs":N,...}}.
  [[nodiscard]] std::string values_json(
      const std::map<std::string, std::uint64_t>& counters) const;

 private:
  void add(const std::string& module, const std::string& event);

  std::vector<ActivityCounter> catalog_;
};

}  // namespace gpuqos
