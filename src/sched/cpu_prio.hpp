// FR-FCFS with QoS-driven CPU prioritization (paper Section III-C).
//
// While the governor signals that the GPU meets its QoS target, CPU requests
// are scheduled first (FR-FCFS among them); GPU requests only proceed when no
// CPU request is pending. Otherwise this is exactly the baseline FR-FCFS.
#pragma once

#include "common/qos_signals.hpp"
#include "dram/frfcfs.hpp"
#include "dram/scheduler.hpp"

namespace gpuqos {

class CpuPriorityScheduler : public IDramScheduler {
 public:
  explicit CpuPriorityScheduler(const QosSignals* signals,
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

/// FR-FCFS restricted to one source class (`want_gpu` selects GPU entries,
/// otherwise CPU); -1 when none match. Shared by the priority-class
/// schedulers (CPU-prio, DynPrio). The filter reads the queue's packed
/// source lane, so the scan stays on the SoA hot path.
[[nodiscard]] inline std::int64_t pick_frfcfs_filtered(const DramQueue& queue,
                                                       const BankView& banks,
                                                       Cycle now,
                                                       Cycle starvation_cap,
                                                       bool want_gpu) {
  // Every return path requires a ready bank; skip the scan while none is.
  if (!banks.any_ready(now)) return -1;
  std::ptrdiff_t oldest = -1;
  std::ptrdiff_t cas = -1;       // issuable row hit
  std::ptrdiff_t activate = -1;  // conflict on a free bank
  const std::size_t n = queue.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (queue.is_gpu(i) != want_gpu) continue;
    if (oldest < 0) oldest = static_cast<std::ptrdiff_t>(i);
    const unsigned bank = queue.bank(i);
    if (banks.bank_ready_at(bank) > now) continue;
    if (banks.is_row_hit(bank, queue.row(i))) {
      cas = static_cast<std::ptrdiff_t>(i);
      break;  // oldest issuable row hit; `oldest` was set at or before it
    }
    if (activate < 0) activate = static_cast<std::ptrdiff_t>(i);
  }
  if (oldest < 0) return -1;
  const auto o = static_cast<std::size_t>(oldest);
  if (now - queue.arrival(o) > starvation_cap &&
      banks.bank_ready_at(queue.bank(o)) <= now) {
    return static_cast<std::int64_t>(queue.id(o));
  }
  const std::ptrdiff_t chosen = cas >= 0 ? cas : activate;
  return chosen >= 0 ? static_cast<std::int64_t>(
                           queue.id(static_cast<std::size_t>(chosen)))
                     : -1;
}

}  // namespace gpuqos
