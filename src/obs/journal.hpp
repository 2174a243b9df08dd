// QoS decision journal.
//
// A chronological record of every decision the closed control loop makes:
// FRPU mid-frame prediction vs. realized frame time (the Fig. 8 data), every
// ATU `WG` transition with its Figure-6 controller inputs (CP, CT, A), every
// CPU-priority flip, relearn events, and free-form phase marks. The journal
// answers "why did the controller pick this WG step?" after the fact, and its
// prediction entries reproduce the fig08 estimation-error report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gpuqos {

class QosJournal {
 public:
  enum class Kind { Prediction, WgChange, PrioFlip, Relearn, Mark };

  struct Entry {
    Kind kind = Kind::Mark;
    Cycle gpu_cycle = 0;     // GPU-clock timestamp of the decision
    // Prediction
    std::uint64_t frame = 0;
    double predicted = 0.0;  // mid-frame predicted cycles (Eq. 3)
    double actual = 0.0;     // realized frame cycles
    // Controller state (WgChange / PrioFlip)
    Cycle prev_wg = 0;
    Cycle wg = 0;
    unsigned ng = 0;
    double cp = 0.0;         // predicted cycles/frame at the decision
    double ct = 0.0;         // target cycles/frame
    std::uint64_t accesses = 0;  // learned LLC accesses/frame (A)
    bool prio_on = false;
    // Mark
    std::string label;
  };

  void record_prediction(Cycle gpu_now, std::uint64_t frame, double predicted,
                         double actual);
  void record_wg_change(Cycle gpu_now, Cycle prev_wg, Cycle wg, unsigned ng,
                        double cp, double ct, std::uint64_t accesses);
  void record_prio_flip(Cycle gpu_now, bool on, double cp, double ct);
  void record_relearn(Cycle gpu_now, std::uint64_t total_relearns);
  void mark(Cycle gpu_now, const std::string& label);

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::uint64_t predictions() const { return predictions_; }
  [[nodiscard]] std::uint64_t wg_changes() const { return wg_changes_; }
  [[nodiscard]] std::uint64_t prio_flips() const { return prio_flips_; }

  /// Mean signed percent error of predictions vs. realized frame cycles —
  /// the fig08 metric, computed from the journal instead of ad-hoc counters.
  [[nodiscard]] double mean_prediction_error_pct() const;
  /// Mean absolute percent error of the same samples.
  [[nodiscard]] double mean_abs_prediction_error_pct() const;

  /// One JSON object per line, e.g.
  /// {"type":"wg","gpu_cycle":N,"prev_wg":0,"wg":2,"cp":...,"ct":...,"a":N}
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Entry> entries_;
  std::uint64_t predictions_ = 0;
  std::uint64_t wg_changes_ = 0;
  std::uint64_t prio_flips_ = 0;
};

}  // namespace gpuqos
