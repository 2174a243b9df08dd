#include "obs/counters.hpp"

#include <sstream>

#include "common/config.hpp"
#include "common/jsonio.hpp"

namespace gpuqos {

ActivityCounterBank::ActivityCounterBank(unsigned cpu_cores,
                                         unsigned dram_channels) {
  for (unsigned c = 0; c < dram_channels; ++c) {
    const std::string ch = "ch" + std::to_string(c) + ".";
    add("dram", ch + "act");
    add("dram", ch + "pre");
    add("dram", ch + "rd");
    add("dram", ch + "wr");
  }
  add("llc", "access.cpu");
  add("llc", "access.gpu");
  add("llc", "fills");
  add("llc", "writebacks");
  add("llc", "mshr_allocations");
  add("llc", "mshr_coalesced");
  add("ring", "messages");
  add("ring", "hops");
  add("gpu", "fragments");
  add("gpu", "tiles_retired");
  add("gpu", "llc_accesses");
  add("qos", "atu_token_grants");
  add("qos", "atu_token_denials");
  for (unsigned i = 0; i < cpu_cores; ++i) {
    const std::string core = "cpu" + std::to_string(i);
    add(core, "committed_instrs");
    add(core, "llc_reads");
    add(core, "llc_writes");
  }
}

void ActivityCounterBank::add(const std::string& module,
                              const std::string& event) {
  catalog_.push_back({module + "." + event});
}

ActivityCounterBank ActivityCounterBank::for_config(const SimConfig& cfg) {
  return ActivityCounterBank(cfg.cpu_cores, cfg.dram.channels);
}

std::string ActivityCounterBank::values_json(
    const std::map<std::string, std::uint64_t>& counters) const {
  std::ostringstream os;
  os << "{\"schema_version\":1,\"counters\":{";
  bool first = true;
  for (const ActivityCounter& c : catalog_) {
    auto it = counters.find(c.stat);
    os << (first ? "" : ",") << "\"" << json_escape(c.stat)
       << "\":" << (it == counters.end() ? 0 : it->second);
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace gpuqos
