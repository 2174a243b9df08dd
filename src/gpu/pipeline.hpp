// The rendering pipeline (ATTILA-style unified-shader GPU, Table I).
//
// Per GPU cycle the pipeline: (1) retires shaded fragments through the ROP
// (bounded by `rop_units`), (2) rasterizes and issues new fragments into
// latency-tolerance contexts (bounded by `raster_rate`, free contexts, and
// GMI space), (3) advances the vertex stage. All cache levels are functional;
// blocks that miss the GPU hierarchy become LLC requests through the GMI,
// and a fragment only retires when its misses have returned — this is the
// latency tolerance that HeLM keys off and that GPU access throttling
// consumes (Sections II and III of the paper).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gpu/caches.hpp"
#include "gpu/memiface.hpp"
#include "gpu/scene.hpp"

namespace gpuqos {

class Profiler;

class GpuPipeline {
 public:
  GpuPipeline(Engine& engine, const GpuConfig& cfg, StatRegistry& stats,
              Rng rng);

  void set_mem_interface(GpuMemInterface* gmi);
  void set_observer(FrameObserver* obs) { observer_ = obs; }
  void set_profiler(Profiler* prof) { prof_ = prof; }
  [[nodiscard]] FrameObserver* observer() const { return observer_; }

  /// Append a frame to the render queue.
  void submit_frame(SceneFrame frame);
  /// When the queue drains, re-submit the whole submitted sequence again
  /// (used by heterogeneous runs that outlive the frame sequence).
  void set_repeat(bool repeat) { repeat_ = repeat; }

  /// Advance one GPU cycle.
  void tick_gpu(Cycle gpu_now);

  [[nodiscard]] std::uint64_t frames_completed() const { return frames_done_; }
  [[nodiscard]] std::uint64_t fragments_retired() const { return frags_done_; }
  [[nodiscard]] bool idle() const;

  /// Fraction of free fragment contexts, averaged since the last call —
  /// the latency-tolerance signal used by the HeLM baseline.
  [[nodiscard]] double latency_tolerance() const;

  /// GPU cycles the most recently completed frame took.
  [[nodiscard]] Cycle last_frame_cycles() const { return last_frame_cycles_; }

  [[nodiscard]] GpuCaches& caches() { return *caches_; }

  /// FNV-1a digest of the full pipeline state: frame/batch cursors, fragment
  /// contexts, flush bookkeeping, RNG position, and the GPU cache hierarchy.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint barrier support (docs/CHECKPOINT.md): a frozen pipeline's
  /// tick_gpu() returns immediately — no issue, no retire, no tolerance
  /// sampling — while in-flight read completions still land (they only
  /// decrement slot counters and append to the retire queue).
  void freeze() { frozen_ = true; }
  void unfreeze() { frozen_ = false; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// True when no fragment is waiting on an LLC read. Scans the two packed
  /// byte lanes, so the whole probe fits in a couple of cache lines.
  [[nodiscard]] bool quiescent() const {
    for (std::size_t i = 0; i < frag_active_.size(); ++i) {
      if (frag_active_[i] != 0 && frag_outstanding_[i] > 0) return false;
    }
    return true;
  }

  /// Checkpoint the full pipeline (frames included); requires quiescent().
  /// load() targets a freshly-constructed pipeline with the same config and
  /// the same submitted frame sequence.
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  void start_next_frame(Cycle gpu_now);
  void begin_batch(Cycle gpu_now);
  void advance_vertex_stage(Cycle gpu_now);
  bool issue_fragment(Cycle gpu_now);
  void retire_fragments(Cycle gpu_now);
  void drain_flush(Cycle gpu_now);
  void finish_frame(Cycle gpu_now);
  [[nodiscard]] Addr next_texture_addr(const DrawBatch& batch);
  bool send_read(Addr addr, GpuAccessClass cls, std::uint32_t slot,
                 std::uint32_t gen);
  void send_write(Addr addr, GpuAccessClass cls);
  [[nodiscard]] unsigned active_fragments() const {
    return cfg_.max_fragments_in_flight -
           checked_narrow<unsigned>(free_slots_.size());
  }

  Engine& engine_;
  GpuConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  StatRegistry& stats_;
  Rng rng_;
  GpuMemInterface* gmi_ = nullptr;
  FrameObserver* observer_ = nullptr;
  std::unique_ptr<GpuCaches> caches_;

  // Frame sequencing.
  std::deque<SceneFrame> queue_;
  std::vector<SceneFrame> sequence_;
  bool frozen_ = false;  // ckpt:skip digest:skip: checkpoint barrier flag
  bool repeat_ = false;  // ckpt:skip digest:skip: workload configuration
  bool rendering_ = false;
  // digest:skip: frame content is deterministic given sequence_ and
  // frames_done_; progress through it (batch/tile/fragment cursors) is
  // digested field by field below.
  SceneFrame frame_;  // digest:skip
  Cycle frame_start_ = 0;
  std::uint64_t frames_done_ = 0;
  Cycle last_frame_cycles_ = 0;

  // Batch progression.
  std::size_t batch_idx_ = 0;
  std::uint64_t verts_left_ = 0;
  std::uint64_t vert_cursor_ = 0;
  std::vector<std::uint32_t> batch_tiles_;
  std::size_t tile_cursor_ = 0;
  std::uint64_t frags_left_in_tile_ = 0;
  std::uint64_t px_cursor_ = 0;
  Addr tex_cursor_ = 0;
  std::uint64_t frag_seq_ = 0;  // for per-quad hiZ accesses

  // Fragment contexts, structure-of-arrays: one lane per field, indexed by
  // slot. The retire loop and every read completion touch only the lanes
  // they need (outstanding/ready_at/active), instead of pulling a 24-byte
  // struct per slot through the cache. Digest/save/load walk the lanes in
  // the original per-slot field order, so streams and snapshots are
  // unchanged.
  std::vector<std::uint32_t> frag_gen_;
  // save() requires quiescent(), where every count below is zero.
  std::vector<std::uint8_t> frag_outstanding_;  // ckpt:skip: zero at barrier
  std::vector<Cycle> frag_ready_at_;
  std::vector<std::uint32_t> frag_tile_;
  std::vector<std::uint8_t> frag_active_;
  std::vector<std::uint32_t> free_slots_;
  std::deque<std::uint32_t> retire_q_;

  // End-of-frame RT flush.
  std::vector<std::pair<Addr, GpuAccessClass>> flush_pending_;
  std::size_t flush_cursor_ = 0;
  bool flushing_ = false;

  std::uint64_t frags_done_ = 0;

  // Latency-tolerance tracking.
  mutable std::uint64_t tol_samples_ = 0;
  mutable std::uint64_t tol_free_sum_ = 0;

  Profiler* prof_ = nullptr;
  // Sampled-profiling decimation counter (obs/profiler.hpp).
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  std::uint64_t* st_frags_ = nullptr;
  std::uint64_t* st_tiles_ = nullptr;  // activity counter (obs/counters.hpp)
  std::uint64_t* st_frames_ = nullptr;
  std::uint64_t* st_frame_cycles_ = nullptr;
  std::uint64_t* st_stall_slots_ = nullptr;
  std::uint64_t* st_stall_gmi_ = nullptr;
};

}  // namespace gpuqos
