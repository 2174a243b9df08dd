#include "ring/ring.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace gpuqos {

RingNetwork::RingNetwork(Engine& engine, unsigned stops, const RingConfig& cfg,
                         StatRegistry& stats)
    : engine_(engine), stops_(stops), cfg_(cfg), stats_(stats) {
  GPUQOS_CHECK(stops >= 2, "a ring needs at least 2 stops, got " << stops);
  link_free_[0].assign(stops, 0);
  link_free_[1].assign(stops, 0);
  st_messages_ = stats_.counter_ptr("ring.messages");
  st_hops_ = stats_.counter_ptr("ring.hops");
  st_queue_cycles_ = stats_.counter_ptr("ring.queue_cycles");
  st_hop_cycles_ = stats_.counter_ptr("ring.hop_cycles");
}

unsigned RingNetwork::hops(unsigned from, unsigned to) const {
  const unsigned cw = (to + stops_ - from) % stops_;
  return std::min(cw, stops_ - cw);
}

void RingNetwork::send(unsigned from, unsigned to, Engine::Action fn,
                       Traffic traffic) {
  SampledProfScope<16> prof(prof_, ProfModule::Ring, prof_decim_);
  GPUQOS_CHECK(from < stops_ && to < stops_,
               "stop out of range: " << from << " -> " << to << " on a "
                                     << stops_ << "-stop ring");
  if (check_ != nullptr) {
    ++msgs_sent_;
    fn = [this, inner = std::move(fn)]() mutable {
      ++msgs_delivered_;
      inner();
    };
  }
  if (from == to) {
    engine_.schedule(0, std::move(fn));
    return;
  }
  const unsigned cw = (to + stops_ - from) % stops_;
  const bool clockwise = cw <= stops_ - cw;
  const unsigned nhops = clockwise ? cw : stops_ - cw;
  auto& free = link_free_[clockwise ? 0 : 1];

  Cycle t = engine_.now();
  unsigned stop = from;
  for (unsigned h = 0; h < nhops; ++h) {
    const unsigned link = clockwise ? stop : (stop + stops_ - 1) % stops_;
    const Cycle depart = std::max(t, free[link]);
    *st_queue_cycles_ += depart - t;
    free[link] = depart + cfg_.hop_latency;
    t = depart + cfg_.hop_latency;
    stop = clockwise ? (stop + 1) % stops_ : (stop + stops_ - 1) % stops_;
  }
  ++*st_messages_;
  *st_hops_ += nhops;
  *st_hop_cycles_ += t - engine_.now();
  if (telemetry_ != nullptr && traffic != Traffic::Unknown) {
    telemetry_->record_latency(LatStage::RingHop, traffic == Traffic::Gpu,
                               t - engine_.now());
  }
  engine_.schedule(t - engine_.now(), std::move(fn));
}

RingAuditView RingNetwork::audit_view(Cycle horizon) const {
  RingAuditView v;
  v.sent = msgs_sent_;
  v.delivered = msgs_delivered_;
  for (const auto& dir : link_free_) {
    for (Cycle c : dir) v.max_link_reserved = std::max(v.max_link_reserved, c);
  }
  v.now = engine_.now();
  v.horizon = horizon;
  return v;
}

std::uint64_t RingNetwork::digest() const {
  Fnv1a64 h;
  for (const auto& dir : link_free_) {
    for (Cycle c : dir) h.mix(c);
  }
  return h.value();
}

template <class IO>
void RingNetwork::visit_state(IO& io) {
  std::uint32_t stops = stops_;
  io.u32(stops);
  io.require(stops == stops_, "ring stop count mismatch");
  for (auto& dir : link_free_) {
    for (Cycle& c : dir) io.u64(c);
  }
}

void RingNetwork::save(ckpt::StateWriter& w) { visit_state(w); }
void RingNetwork::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
