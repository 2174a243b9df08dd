// Bidirectional ring interconnect (Table I: single-cycle hop).
//
// Messages take the minimal-hop direction; each link carries one message per
// cycle per direction, modeled by per-link reservation times (a wormhole-like
// approximation that captures queueing without per-cycle ticking).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "check/auditors.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;
class Telemetry;

class RingNetwork {
 public:
  /// Traffic class hint for the telemetry layer (ring messages are opaque
  /// closures, so the sender declares who the payload belongs to).
  enum class Traffic { Unknown, Cpu, Gpu };

  RingNetwork(Engine& engine, unsigned stops, const RingConfig& cfg,
              StatRegistry& stats);

  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// While attached, every message delivery is counted so the ring auditor
  /// can prove delivered <= sent (no duplicated closures).
  void set_check(CheckContext* check) { check_ = check; }

  /// Deliver `fn` at the destination stop after ring transit. Takes the
  /// engine's inline callable directly so a message closure is materialized
  /// once at the call site and moved through to the event queue unwrapped.
  void send(unsigned from, unsigned to, Engine::Action fn,
            Traffic traffic = Traffic::Unknown);

  /// Minimal hop count between two stops.
  [[nodiscard]] unsigned hops(unsigned from, unsigned to) const;
  [[nodiscard]] unsigned num_stops() const { return stops_; }

  /// Snapshot for audit_ring. `horizon` bounds how far into the future a
  /// link may be reserved (0 = unchecked).
  [[nodiscard]] RingAuditView audit_view(Cycle horizon) const;

  /// FNV-1a digest of all per-link reservation times (the ring's only
  /// architectural state).
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint the link reservations (docs/CHECKPOINT.md). The sent/
  /// delivered audit counters restart at zero on restore — consistent,
  /// because a drained ring has no message in flight and the auditor only
  /// proves delivered <= sent going forward.
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  // Link i in direction 0 (clockwise) connects stop i -> (i+1) % stops_;
  // direction 1 is the reverse.
  Engine& engine_;
  unsigned stops_;  // digest:skip: topology, fixed at construction
  RingConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  StatRegistry& stats_;
  Telemetry* telemetry_ = nullptr;
  Profiler* prof_ = nullptr;
  // Sampled-profiling decimation counter (obs/profiler.hpp).
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  CheckContext* check_ = nullptr;
  std::vector<Cycle> link_free_[2];
  // Restart-at-zero traffic counters: instrumentation, not simulation state
  // (forked replicas deliberately recount from zero, docs/CHECKPOINT.md).
  std::uint64_t msgs_sent_ = 0;       // ckpt:skip digest:skip
  std::uint64_t msgs_delivered_ = 0;  // ckpt:skip digest:skip
  std::uint64_t* st_messages_ = nullptr;
  std::uint64_t* st_hops_ = nullptr;  // activity counter (obs/counters.hpp)
  std::uint64_t* st_queue_cycles_ = nullptr;
  std::uint64_t* st_hop_cycles_ = nullptr;
};

}  // namespace gpuqos
