// The RTP information table (paper Section III-A1): 64 entries, each holding
// four 4-byte fields for one render-target plane of the learned frame —
// (i) updates, (ii) cycles, (iii) RTT count, (iv) shared-LLC accesses.
// When a frame has more RTPs than entries, the last entry accumulates the
// remainder, exactly as the paper specifies.
#pragma once

#include <cstdint>
#include <vector>

#include "check/auditors.hpp"
#include "check/check.hpp"
#include "common/types.hpp"

namespace gpuqos {

namespace ckpt {
class StateWriter;
class StateReader;
}  // namespace ckpt

struct RtpEntry {
  bool valid = false;
  std::uint32_t updates = 0;
  std::uint32_t cycles = 0;
  std::uint32_t rtts = 0;
  std::uint32_t llc_accesses = 0;
};

class RtpTable {
 public:
  explicit RtpTable(unsigned entries = 64) : entries_(entries) {}

  void clear();

  /// Record a completed RTP. Past `capacity`, accumulates into the last entry.
  void record(std::uint32_t updates, Cycle cycles, std::uint32_t rtts,
              std::uint32_t llc_accesses);

  [[nodiscard]] unsigned size() const { return used_; }
  [[nodiscard]] unsigned capacity() const {
    return checked_narrow<unsigned>(entries_.size());
  }
  [[nodiscard]] const RtpEntry& entry(unsigned i) const { return entries_[i]; }

  /// Number of RTPs recorded, counting overflow RTPs folded into the last
  /// entry individually (N_rtp of Equation 1).
  [[nodiscard]] std::uint32_t rtp_count() const { return rtp_count_; }
  /// Average cycles per RTP over the learned frame (C^i_avg of Equation 2).
  [[nodiscard]] double avg_cycles_per_rtp() const;
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }
  [[nodiscard]] std::uint64_t total_updates() const { return total_updates_; }
  /// LLC accesses per frame (the `A` input of the throttling algorithm).
  [[nodiscard]] std::uint64_t total_llc_accesses() const {
    return total_accesses_;
  }

  /// Paper Section III-D: 64 entries x 4 fields x 4 bytes (+ valid bits).
  [[nodiscard]] std::size_t storage_bytes() const {
    return entries_.size() * (4 * 4) + (entries_.size() + 7) / 8;
  }

  /// Snapshot for audit_rtp (entry bounds, Eq. 1-2 inputs).
  [[nodiscard]] RtpAuditView check_view() const;

  /// FNV-1a digest of every entry and accumulator.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint every entry and accumulator (docs/CHECKPOINT.md).
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  std::vector<RtpEntry> entries_;
  unsigned used_ = 0;
  std::uint32_t rtp_count_ = 0;
  std::uint64_t total_cycles_ = 0;
  std::uint64_t total_updates_ = 0;
  std::uint64_t total_accesses_ = 0;
};

}  // namespace gpuqos
