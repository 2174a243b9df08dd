#include "cache/replacement.hpp"

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

LruPolicy::LruPolicy(std::uint64_t sets, unsigned ways)
    : ways_(ways), stamp_(sets * ways, 0) {}

void LruPolicy::on_fill(std::uint64_t set, unsigned way) {
  stamp_[set * ways_ + way] = ++tick_;
}

void LruPolicy::on_hit(std::uint64_t set, unsigned way) {
  stamp_[set * ways_ + way] = ++tick_;
}

unsigned LruPolicy::victim(std::uint64_t set) {
  unsigned best = 0;
  std::uint64_t best_stamp = stamp_[set * ways_];
  for (unsigned w = 1; w < ways_; ++w) {
    const std::uint64_t s = stamp_[set * ways_ + w];
    if (s < best_stamp) {
      best_stamp = s;
      best = w;
    }
  }
  return best;
}

std::uint64_t LruPolicy::digest() const {
  Fnv1a64 h;
  h.mix(tick_);
  for (std::uint64_t s : stamp_) h.mix(s);
  return h.value();
}

template <class IO>
void LruPolicy::visit_state(IO& io) {
  io.u64(tick_);
  io.expect_size(stamp_.size(), "LRU geometry");
  for (std::uint64_t& s : stamp_) io.u64(s);
}

void LruPolicy::save(ckpt::StateWriter& w) { visit_state(w); }
void LruPolicy::load(ckpt::StateReader& r) { visit_state(r); }

SrripPolicy::SrripPolicy(std::uint64_t sets, unsigned ways)
    : ways_(ways), rrpv_(sets * ways, 3) {}

void SrripPolicy::on_fill(std::uint64_t set, unsigned way) {
  rrpv_[set * ways_ + way] = insert_rrpv_;
}

void SrripPolicy::on_hit(std::uint64_t set, unsigned way) {
  rrpv_[set * ways_ + way] = 0;
}

unsigned SrripPolicy::victim(std::uint64_t set) {
  std::uint8_t* row = &rrpv_[set * ways_];
  for (;;) {
    for (unsigned w = 0; w < ways_; ++w) {
      if (row[w] >= 3) return w;
    }
    for (unsigned w = 0; w < ways_; ++w) ++row[w];
  }
}

std::uint64_t SrripPolicy::digest() const {
  Fnv1a64 h;
  h.mix_byte(insert_rrpv_);
  for (std::uint8_t v : rrpv_) h.mix_byte(v);
  return h.value();
}

template <class IO>
void SrripPolicy::visit_state(IO& io) {
  io.u8(insert_rrpv_);
  io.expect_size(rrpv_.size(), "SRRIP geometry");
  for (std::uint8_t& v : rrpv_) io.u8(v);
}

void SrripPolicy::save(ckpt::StateWriter& w) { visit_state(w); }
void SrripPolicy::load(ckpt::StateReader& r) { visit_state(r); }

std::unique_ptr<ReplacementPolicy> make_policy(bool srrip, std::uint64_t sets,
                                               unsigned ways) {
  if (srrip) return std::make_unique<SrripPolicy>(sets, ways);
  return std::make_unique<LruPolicy>(sets, ways);
}

}  // namespace gpuqos
