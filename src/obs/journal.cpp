#include "obs/journal.hpp"

#include <cmath>
#include <ostream>

#include "common/jsonio.hpp"

namespace gpuqos {

void QosJournal::record_prediction(Cycle gpu_now, std::uint64_t frame,
                                   double predicted, double actual) {
  Entry e;
  e.kind = Kind::Prediction;
  e.gpu_cycle = gpu_now;
  e.frame = frame;
  e.predicted = predicted;
  e.actual = actual;
  entries_.push_back(std::move(e));
  ++predictions_;
}

void QosJournal::record_wg_change(Cycle gpu_now, Cycle prev_wg, Cycle wg,
                                  unsigned ng, double cp, double ct,
                                  std::uint64_t accesses) {
  Entry e;
  e.kind = Kind::WgChange;
  e.gpu_cycle = gpu_now;
  e.prev_wg = prev_wg;
  e.wg = wg;
  e.ng = ng;
  e.cp = cp;
  e.ct = ct;
  e.accesses = accesses;
  entries_.push_back(std::move(e));
  ++wg_changes_;
}

void QosJournal::record_prio_flip(Cycle gpu_now, bool on, double cp,
                                  double ct) {
  Entry e;
  e.kind = Kind::PrioFlip;
  e.gpu_cycle = gpu_now;
  e.prio_on = on;
  e.cp = cp;
  e.ct = ct;
  entries_.push_back(std::move(e));
  ++prio_flips_;
}

void QosJournal::record_relearn(Cycle gpu_now, std::uint64_t total_relearns) {
  Entry e;
  e.kind = Kind::Relearn;
  e.gpu_cycle = gpu_now;
  e.accesses = total_relearns;
  entries_.push_back(std::move(e));
}

void QosJournal::mark(Cycle gpu_now, const std::string& label) {
  Entry e;
  e.kind = Kind::Mark;
  e.gpu_cycle = gpu_now;
  e.label = label;
  entries_.push_back(std::move(e));
}

double QosJournal::mean_prediction_error_pct() const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.kind != Kind::Prediction || e.actual <= 0.0) continue;
    sum += (e.predicted - e.actual) / e.actual * 100.0;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double QosJournal::mean_abs_prediction_error_pct() const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.kind != Kind::Prediction || e.actual <= 0.0) continue;
    sum += std::abs(e.predicted - e.actual) / e.actual * 100.0;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void QosJournal::write_jsonl(std::ostream& os) const {
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::Prediction:
        os << "{\"type\":\"prediction\",\"gpu_cycle\":" << e.gpu_cycle
           << ",\"frame\":" << e.frame
           << ",\"predicted\":" << json_double(e.predicted)
           << ",\"actual\":" << json_double(e.actual) << ",\"err_pct\":"
           << json_double(e.actual > 0
                              ? (e.predicted - e.actual) / e.actual * 100.0
                              : 0.0)
           << "}\n";
        break;
      case Kind::WgChange:
        os << "{\"type\":\"wg\",\"gpu_cycle\":" << e.gpu_cycle
           << ",\"prev_wg\":" << e.prev_wg << ",\"wg\":" << e.wg
           << ",\"ng\":" << e.ng << ",\"cp\":" << json_double(e.cp)
           << ",\"ct\":" << json_double(e.ct) << ",\"a\":" << e.accesses
           << "}\n";
        break;
      case Kind::PrioFlip:
        os << "{\"type\":\"cpu_prio\",\"gpu_cycle\":" << e.gpu_cycle
           << ",\"on\":" << (e.prio_on ? "true" : "false")
           << ",\"cp\":" << json_double(e.cp)
           << ",\"ct\":" << json_double(e.ct) << "}\n";
        break;
      case Kind::Relearn:
        os << "{\"type\":\"relearn\",\"gpu_cycle\":" << e.gpu_cycle
           << ",\"total\":" << e.accesses << "}\n";
        break;
      case Kind::Mark:
        os << "{\"type\":\"mark\",\"gpu_cycle\":" << e.gpu_cycle
           << ",\"label\":\"" << json_escape(e.label) << "\"}\n";
        break;
    }
  }
}

}  // namespace gpuqos
