// Dynamic priority DRAM scheduler (Jeong et al., DAC 2012), adapted per the
// paper: it uses the paper's frame-rate estimation to track frame progress.
//
//  * Last 10% of the predicted frame time: GPU requests get top priority.
//  * GPU lagging its target (or no estimate available): equal priority, i.e.
//    plain FR-FCFS.
//  * GPU comfortably ahead: CPU requests first.
#pragma once

#include "common/qos_signals.hpp"
#include "dram/frfcfs.hpp"
#include "dram/scheduler.hpp"

namespace gpuqos {

class DynPrioScheduler : public IDramScheduler {
 public:
  explicit DynPrioScheduler(const QosSignals* signals,
                            Cycle starvation_cap = 2000)
      : signals_(signals), fallback_(starvation_cap),
        starvation_cap_(starvation_cap) {}

  [[nodiscard]] std::int64_t pick(const DramQueue& queue,
                                  const BankView& banks, Cycle now) override;
  [[nodiscard]] bool pick_is_pure() const override { return true; }

 private:
  const QosSignals* signals_;
  FrFcfsScheduler fallback_;
  Cycle starvation_cap_;
};

}  // namespace gpuqos
