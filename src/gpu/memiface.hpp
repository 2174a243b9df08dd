// GPU memory interface (GMI): the single funnel through which every GPU
// request reaches the shared LLC.
//
// The paper's access-throttling unit (ATU) sits exactly here: it gates the
// rate at which queued requests may leave for the LLC. A full queue
// back-pressures the rendering pipeline, so throttling naturally slows frame
// production — the feedback loop the paper relies on (Section III-B).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/mem_request.hpp"
#include "common/stats.hpp"
#include "gpu/scene.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;

/// Rate gate consulted before each request leaves the GPU. Implemented by
/// the QoS ATU; a null gate means no throttling (baseline).
class AccessGate {
 public:
  virtual ~AccessGate() = default;
  /// May the GPU issue one LLC access this GPU cycle?
  [[nodiscard]] virtual bool allow(Cycle gpu_now) = 0;
  /// One access was issued.
  virtual void on_issued(Cycle gpu_now) = 0;
};

class GpuMemInterface {
 public:
  using Sender = std::function<void(MemRequest&&)>;

  GpuMemInterface(const GpuConfig& cfg, StatRegistry& stats);

  void set_sender(Sender s) { sender_ = std::move(s); }
  void set_gate(AccessGate* gate) { gate_ = gate; }
  void set_observer(FrameObserver* obs) { observer_ = obs; }
  [[nodiscard]] FrameObserver* observer() const { return observer_; }

  /// While attached, every request issued to the LLC feeds the conservation
  /// ledger (Flow::GpuRead / Flow::GpuWrite), reads with duplicate-completion
  /// detection.
  void set_check(CheckContext* check) { check_ = check; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// Queue a request; false when the interface is full (back-pressure).
  bool enqueue(MemRequest&& req);

  [[nodiscard]] std::size_t free_slots() const {
    return cfg_.mem_queue_depth - queue_.size();
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  /// Issue up to `issue_width` requests to the LLC, subject to the gate.
  void tick(Cycle gpu_now);

  [[nodiscard]] std::uint64_t issued() const { return issued_; }

  /// FNV-1a digest of the queue contents and issue count.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint the issue count (docs/CHECKPOINT.md). Queued requests hold
  /// completion closures, so save() requires an empty queue — the barrier
  /// drain leaves the GMI unfrozen precisely so it empties itself.
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  GpuConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  StatRegistry& stats_;
  std::deque<MemRequest> queue_;
  Sender sender_;  // ckpt:skip digest:skip: wiring callback to the ring
  AccessGate* gate_ = nullptr;
  Profiler* prof_ = nullptr;
  // Sampled-profiling decimation counter (obs/profiler.hpp).
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  FrameObserver* observer_ = nullptr;
  CheckContext* check_ = nullptr;
  std::uint64_t issued_ = 0;
  unsigned issue_width_;  // ckpt:skip digest:skip: derived from cfg_
  std::uint64_t* st_issued_ = nullptr;
  std::uint64_t* st_throttled_ = nullptr;
  std::uint64_t* st_full_ = nullptr;
  // ATU token activity (obs/counters.hpp): grants = requests the gate let
  // through, denials = issue slots blocked by an exhausted token window.
  std::uint64_t* st_atu_grants_ = nullptr;
  std::uint64_t* st_atu_denials_ = nullptr;
};

}  // namespace gpuqos
