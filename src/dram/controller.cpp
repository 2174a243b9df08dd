#include "dram/controller.hpp"

#include "check/check.hpp"
#include "check/digest.hpp"
#include "common/units.hpp"

namespace gpuqos {

DramController::DramController(Engine& engine, const DramConfig& cfg,
                               StatRegistry& stats,
                               const SchedulerFactory& factory)
    : cfg_(cfg), col_blocks_(cfg.row_bytes / 64) {
  GPUQOS_CHECK(cfg.channels > 0 && col_blocks_ > 0,
               "degenerate DRAM geometry: " << cfg.channels << " channels, "
                                            << col_blocks_
                                            << " blocks per row");
  for (unsigned c = 0; c < cfg.channels; ++c) {
    schedulers_.push_back(factory(c));
    channels_.push_back(std::make_unique<Channel>(engine, cfg, c, stats));
    channels_.back()->set_scheduler(schedulers_.back().get());
    Channel* ch = channels_.back().get();
    ch->set_ticker(engine.add_ticker(kDramClockDivider,
                                     /*phase=*/c % kDramClockDivider,
                                     [ch](Cycle) { ch->tick(); }));
  }
}

unsigned DramController::channel_of(Addr addr) const {
  return static_cast<unsigned>((addr / 64) % cfg_.channels);
}

unsigned DramController::bank_of(Addr addr) const {
  const std::uint64_t blk = addr / 64 / cfg_.channels;
  return static_cast<unsigned>((blk / col_blocks_) % cfg_.banks_per_channel);
}

std::uint64_t DramController::row_of(Addr addr) const {
  const std::uint64_t blk = addr / 64 / cfg_.channels;
  return blk / (col_blocks_ * cfg_.banks_per_channel);
}

void DramController::set_telemetry(Telemetry* telemetry) {
  for (auto& ch : channels_) ch->set_telemetry(telemetry);
}

void DramController::set_profiler(Profiler* prof) {
  for (auto& ch : channels_) ch->set_profiler(prof);
}

void DramController::set_check(CheckContext* check) {
  for (auto& ch : channels_) ch->set_check(check);
}

std::uint64_t DramController::digest() const {
  Fnv1a64 h;
  for (const auto& ch : channels_) h.mix(ch->digest());
  return h.value();
}

template <class IO>
void DramController::visit_state(IO& io) {
  io.expect_size(channels_.size(), "channel count");
  for (auto& ch : channels_) io.sub(*ch);
}

void DramController::save(ckpt::StateWriter& w) { visit_state(w); }
void DramController::load(ckpt::StateReader& r) { visit_state(r); }

void DramController::request(MemRequest&& req) {
  DramQueueEntry entry;
  entry.bank = bank_of(req.addr);
  entry.row = row_of(req.addr);
  const unsigned ch = channel_of(req.addr);
  entry.req = std::move(req);
  channels_[ch]->enqueue(std::move(entry));
}

bool DramController::idle() const {
  for (const auto& ch : channels_) {
    if (!ch->idle()) return false;
  }
  return true;
}

}  // namespace gpuqos
