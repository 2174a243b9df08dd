// Single DRAM bank state machine (request-level timing).
//
// Commands are split the way a real controller pipelines them: a row
// conflict/empty first gets a bank-local precharge+activate (the request
// stays queued, other banks keep streaming on the data bus); once the row is
// open and the bank ready, a CAS moves the data. This preserves bank-level
// parallelism, row-buffer locality, activate/precharge serialization, and
// read/write turnaround — the effects the paper's schedulers exploit.
#pragma once

#include <cstdint>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace gpuqos {

/// DramTiming scaled to base cycles.
struct ScaledTiming {
  Cycle tCL, tRCD, tRP, tRAS, tWR, tBurst, tCCD, tRTP, tWTR;

  static ScaledTiming from(const DramTiming& t, unsigned divider) {
    return {t.tCL * divider,  t.tRCD * divider, t.tRP * divider,
            t.tRAS * divider, t.tWR * divider,  t.tBurst * divider,
            t.tCCD * divider, t.tRTP * divider, t.tWTR * divider};
  }
};

class Bank {
 public:
  [[nodiscard]] bool row_open() const { return row_open_; }
  [[nodiscard]] std::uint64_t open_row() const { return open_row_; }
  /// Earliest cycle the next command (CAS to the open row) may issue.
  [[nodiscard]] Cycle ready_at() const { return ready_at_; }

  [[nodiscard]] bool is_row_hit(std::uint64_t row) const {
    return row_open_ && open_row_ == row;
  }

  /// True when the bank can accept a command right now.
  [[nodiscard]] bool ready(Cycle now) const { return ready_at_ <= now; }

  /// Begin precharge (if a row is open) + activate for `row`. Bank-local:
  /// the data bus is untouched. After this, is_row_hit(row) is true and
  /// ready_at() is when a CAS may issue.
  void begin_activate(std::uint64_t row, Cycle now, const ScaledTiming& t);

  /// Issue a CAS for the open row (caller ensures is_row_hit && ready).
  /// `cas_issue` >= now may be bus-delayed by the channel. Returns the cycle
  /// the data burst completes (+ write recovery for writes).
  Cycle cas(bool is_write, Cycle cas_issue, const ScaledTiming& t);

  /// Testing support: a bank frozen in an arbitrary state. Scheduler unit
  /// tests need exact row/ready combinations (e.g. "open row, but not ready
  /// until cycle 1000") that the timed command path can't reach directly.
  [[nodiscard]] static Bank for_test(bool row_open, std::uint64_t open_row,
                                     Cycle ready_at) {
    Bank b;
    b.row_open_ = row_open;
    b.open_row_ = open_row;
    b.ready_at_ = ready_at;
    return b;
  }

  /// Checkpoint the full bank state (docs/CHECKPOINT.md).
  void save(ckpt::StateWriter& w) { visit_state(w); }
  void load(ckpt::StateReader& r) { visit_state(r); }

  /// Fold the full bank state into a running determinism digest.
  void mix_into(Fnv1a64& h) const {
    h.mix_bool(row_open_);
    h.mix(open_row_);
    h.mix(ready_at_);
    h.mix(activated_at_);
  }

 private:
  template <class IO>
  void visit_state(IO& io) {
    io.boolean(row_open_);
    io.u64(open_row_);
    io.u64(ready_at_);
    io.u64(activated_at_);
  }

  bool row_open_ = false;
  std::uint64_t open_row_ = 0;
  Cycle ready_at_ = 0;
  Cycle activated_at_ = 0;  // for tRAS accounting
};

}  // namespace gpuqos
