// First-Ready, First-Come-First-Served scheduling (the paper's baseline),
// with an age cap that prevents row-hit streams from starving old requests.
#pragma once

#include "dram/scheduler.hpp"

namespace gpuqos {

class FrFcfsScheduler : public IDramScheduler {
 public:
  explicit FrFcfsScheduler(Cycle starvation_cap = 2000)
      : starvation_cap_(starvation_cap) {}

  [[nodiscard]] std::int64_t pick(const DramQueue& queue,
                                  const BankView& banks, Cycle now) override;
  [[nodiscard]] bool pick_is_pure() const override { return true; }

 private:
  Cycle starvation_cap_;
};

}  // namespace gpuqos
