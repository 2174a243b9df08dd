#include "common/stats.hpp"

#include <cmath>
#include <sstream>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "common/jsonio.hpp"

namespace gpuqos {

void StatRegistry::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t* StatRegistry::counter_ptr(const std::string& name) {
  return &counters_[name];
}

void StatRegistry::set(const std::string& name, double value) {
  scalars_[name] = value;
}

std::uint64_t StatRegistry::counter(const std::string& name) const {
  settle();
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double StatRegistry::scalar(const std::string& name) const {
  auto it = scalars_.find(name);
  return it == scalars_.end() ? 0.0 : it->second;
}

bool StatRegistry::has_counter(const std::string& name) const {
  return counters_.contains(name);
}

std::map<std::string, std::uint64_t> StatRegistry::counters() const {
  settle();
  return counters_;
}

std::map<std::string, double> StatRegistry::scalars() const { return scalars_; }

std::uint64_t StatRegistry::since(
    const std::string& name,
    const std::map<std::string, std::uint64_t>& baseline) const {
  const std::uint64_t now = counter(name);
  auto it = baseline.find(name);
  const std::uint64_t before = it == baseline.end() ? 0 : it->second;
  return now >= before ? now - before : 0;
}

void StatRegistry::clear() {
  settle();  // owed counts belong to the period being cleared
  // Zero rather than erase: hot-path counter_ptr() pointers stay valid.
  for (auto& [name, value] : counters_) value = 0;
  for (auto& [name, value] : scalars_) value = 0.0;
}

std::string StatRegistry::report(const std::string& prefix) const {
  settle();
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    if (name.rfind(prefix, 0) == 0) os << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : scalars_) {
    if (name.rfind(prefix, 0) == 0) os << name << ' ' << value << '\n';
  }
  return os.str();
}

std::string StatRegistry::to_json() const {
  settle();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << value;
  }
  os << "},\"scalars\":{";
  first = true;
  for (const auto& [name, value] : scalars_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << json_double(value);
  }
  os << "}}";
  return os.str();
}

std::uint64_t StatRegistry::digest() const {
  settle();
  Fnv1a64 h;
  for (const auto& [name, value] : counters_) {
    h.mix_string(name);
    h.mix(value);
  }
  for (const auto& [name, value] : scalars_) {
    h.mix_string(name);
    h.mix_double(value);
  }
  return h.value();
}

template <class IO>
void StatRegistry::visit_state(IO& io) {
  // Settle first: a save writes every owed count, and a load lands none on
  // top of the loaded values. A load assigns into the maps rather than
  // swapping them out: modules cached counter_ptr() nodes at construction
  // and those pointers must stay live.
  settle();
  io.map(counters_, [&io](std::uint64_t& v) { io.u64(v); });
  io.map(scalars_, [&io](double& v) { io.f64(v); });
}

void StatRegistry::save(ckpt::StateWriter& w) { visit_state(w); }
void StatRegistry::load(ckpt::StateReader& r) { visit_state(r); }

void StatRegistry::add_settle_hook(const void* owner,
                                   std::function<void()> fn) {
  settle_hooks_.emplace_back(owner, std::move(fn));
}

void StatRegistry::remove_settle_hooks(const void* owner) {
  std::erase_if(settle_hooks_,
                [owner](const auto& hook) { return hook.first == owner; });
}

void StatRegistry::settle() const {
  for (const auto& [owner, fn] : settle_hooks_) fn();
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace gpuqos
