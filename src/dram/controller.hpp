// Memory controller front-end: address mapping (row:bank:column:channel,
// 64 B channel interleave) and per-channel command clocking.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/mem_request.hpp"
#include "common/stats.hpp"
#include "dram/channel.hpp"
#include "dram/scheduler.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;
class Telemetry;

class DramController {
 public:
  using SchedulerFactory =
      std::function<std::unique_ptr<IDramScheduler>(unsigned channel)>;

  /// Builds `cfg.channels` channels; each gets its own scheduler instance
  /// from `factory` and a ticker at the DRAM command clock, which it parks
  /// while idle (dram/channel.hpp).
  DramController(Engine& engine, const DramConfig& cfg, StatRegistry& stats,
                 const SchedulerFactory& factory);

  /// Accept a block request (from the LLC side).
  void request(MemRequest&& req);

  /// Forward the telemetry hook to every channel.
  void set_telemetry(Telemetry* telemetry);
  void set_profiler(Profiler* prof);

  /// Forward the conservation-ledger hook to every channel.
  void set_check(CheckContext* check);

  /// FNV-1a digest over every channel (banks, queues, bus state).
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint every channel (docs/CHECKPOINT.md); requires idle().
  /// Scheduler state is sectioned separately by the owner (policy-specific).
  void save(ckpt::StateWriter& w) const;
  void load(ckpt::StateReader& r);

  [[nodiscard]] IDramScheduler& scheduler(unsigned i) {
    return *schedulers_[i];
  }

  [[nodiscard]] unsigned channel_of(Addr addr) const;
  [[nodiscard]] unsigned bank_of(Addr addr) const;
  [[nodiscard]] std::uint64_t row_of(Addr addr) const;

  [[nodiscard]] bool idle() const;
  [[nodiscard]] Channel& channel(unsigned i) { return *channels_[i]; }
  [[nodiscard]] unsigned num_channels() const {
    return checked_narrow<unsigned>(channels_.size());
  }

 private:
  DramConfig cfg_;            // ckpt:skip digest:skip: construction parameter
  std::uint64_t col_blocks_;  // ckpt:skip digest:skip: address-map constant
  // Scheduler state is checkpointed by the runner in its own section (see
  // hetero_cmp save_state); schedulers keep no digest source of their own.
  std::vector<std::unique_ptr<IDramScheduler>> schedulers_;  // ckpt:skip digest:skip
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace gpuqos
