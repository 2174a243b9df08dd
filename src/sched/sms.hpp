// Staged Memory Scheduler (Ausavarungnirun et al., ISCA 2012).
//
// Stage 1 (batch formation): per-source FIFOs group consecutive same-row
// requests into batches (closed on a row change, a size cap, or an age
// timeout). Stage 2 (batch scheduler): with probability p pick the shortest
// ready batch (favoring latency-sensitive CPU jobs), otherwise round-robin
// across sources (fairness for bandwidth-sensitive jobs). The paper
// evaluates SMS-0.9 and SMS-0.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "dram/scheduler.hpp"

namespace gpuqos {

class SmsScheduler : public IDramScheduler {
 public:
  struct Params {
    double shortest_first_prob = 0.9;  // p: 0.9 => SMS-0.9, 0 => SMS-0
    unsigned batch_cap = 16;
    Cycle batch_timeout = 240;  // close a forming batch after this age
  };

  SmsScheduler(Params params, Rng rng) : params_(params), rng_(rng) {}

  void on_enqueue(const DramQueueEntry& entry) override;
  [[nodiscard]] std::int64_t pick(const DramQueue& queue,
                                  const BankView& banks, Cycle now) override;
  void on_issue(const DramQueueEntry& entry) override;

  /// Checkpointing: the RNG and stage-2 cursors persist; batches reference
  /// queue-entry ids and are empty whenever the read queues are drained, so
  /// save() (which runs only at a drained barrier) verifies that instead of
  /// serializing them.
  [[nodiscard]] bool has_ckpt_state() const override { return true; }
  void save(ckpt::StateWriter& w) override;
  void load(ckpt::StateReader& r) override;

  static constexpr unsigned kMaxSources = 5;  // up to 4 CPUs + GPU

 private:
  struct Batch {
    std::deque<std::uint64_t> ids;
    std::uint64_t last_row = 0;
    bool closed = false;
    Cycle opened_at = 0;
  };
  struct SourceState {
    std::deque<Batch> batches;  // front = oldest
  };

  template <class IO>
  void visit_state(IO& io);
  [[nodiscard]] static unsigned source_index(const SourceId& s);
  void close_stale_batches(Cycle now);

  Params params_;  // ckpt:skip: construction parameter
  Rng rng_;
  // ckpt:skip: batches must be drained at the barrier (save() throws if any
  // source still holds one), so a loaded scheduler starts from empty state.
  std::array<SourceState, kMaxSources> sources_{};  // ckpt:skip
  int current_source_ = -1;  // batch currently being drained
  unsigned rr_pointer_ = 0;
};

}  // namespace gpuqos
