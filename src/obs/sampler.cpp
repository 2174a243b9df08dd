#include "obs/sampler.hpp"

#include <ostream>

#include "common/jsonio.hpp"

namespace gpuqos {

void IntervalSampler::add_gauge(const std::string& name, GaugeFn fn) {
  gauges_.emplace_back(name, std::move(fn));
}

void IntervalSampler::rebase(Cycle now) {
  if (stats_ == nullptr) return;  // sampler disabled (never bound)
  baseline_ = stats_->counters();
  last_cycle_ = now;
}

void IntervalSampler::sample(Cycle now) {
  if (stats_ == nullptr) return;  // sampler disabled (never bound)
  Sample s;
  s.cycle = now;
  s.dt = now >= last_cycle_ ? now - last_cycle_ : 0;
  auto current = stats_->counters();
  for (const auto& [name, value] : current) {
    auto it = baseline_.find(name);
    const std::uint64_t before = it == baseline_.end() ? 0 : it->second;
    if (value > before) s.deltas[name] = value - before;
  }
  for (const auto& [name, fn] : gauges_) s.gauges[name] = fn();
  baseline_ = std::move(current);
  last_cycle_ = now;
  samples_.push_back(std::move(s));
}

void IntervalSampler::write_jsonl(std::ostream& os) const {
  for (const Sample& s : samples_) {
    os << "{\"cycle\":" << s.cycle << ",\"dt\":" << s.dt << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : s.deltas) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":" << v;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : s.gauges) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":" << json_double(v);
    }
    os << "}}\n";
  }
}

}  // namespace gpuqos
