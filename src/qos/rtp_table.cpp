#include "qos/rtp_table.hpp"

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

void RtpTable::clear() {
  for (auto& e : entries_) e = RtpEntry{};
  used_ = 0;
  rtp_count_ = 0;
  total_cycles_ = 0;
  total_updates_ = 0;
  total_accesses_ = 0;
}

void RtpTable::record(std::uint32_t updates, Cycle cycles, std::uint32_t rtts,
                      std::uint32_t llc_accesses) {
  const unsigned idx =
      used_ < entries_.size() ? used_ : static_cast<unsigned>(entries_.size()) - 1;
  RtpEntry& e = entries_[idx];
  e.valid = true;
  e.updates += updates;
  // The paper's table stores four 4-byte fields per entry; a per-plane cycle
  // delta is a few thousand GPU cycles, far inside u32.
  e.cycles += static_cast<std::uint32_t>(cycles);  /*narrow:ok*/
  e.rtts += rtts;
  e.llc_accesses += llc_accesses;
  if (used_ < entries_.size()) ++used_;
  ++rtp_count_;
  total_cycles_ += cycles;
  total_updates_ += updates;
  total_accesses_ += llc_accesses;
}

double RtpTable::avg_cycles_per_rtp() const {
  if (rtp_count_ == 0) return 0.0;
  return static_cast<double>(total_cycles_) / static_cast<double>(rtp_count_);
}

RtpAuditView RtpTable::check_view() const {
  RtpAuditView v;
  v.used = used_;
  v.capacity = capacity();
  v.rtp_count = rtp_count_;
  v.avg_cycles_per_rtp = avg_cycles_per_rtp();
  v.total_updates = total_updates_;
  return v;
}

std::uint64_t RtpTable::digest() const {
  Fnv1a64 h;
  for (const RtpEntry& e : entries_) {
    h.mix_bool(e.valid);
    h.mix(e.updates);
    h.mix(e.cycles);
    h.mix(e.rtts);
    h.mix(e.llc_accesses);
  }
  h.mix(used_);
  h.mix(rtp_count_);
  h.mix(total_cycles_);
  h.mix(total_updates_);
  h.mix(total_accesses_);
  return h.value();
}

template <class IO>
void RtpTable::visit_state(IO& io) {
  io.expect_size(entries_.size(), "RTP table capacity");
  for (RtpEntry& e : entries_) {
    io.boolean(e.valid);
    io.u32(e.updates);
    io.u32(e.cycles);
    io.u32(e.rtts);
    io.u32(e.llc_accesses);
  }
  io.u32(used_);
  io.u32(rtp_count_);
  io.u64(total_cycles_);
  io.u64(total_updates_);
  io.u64(total_accesses_);
}

void RtpTable::save(ckpt::StateWriter& w) { visit_state(w); }
void RtpTable::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
