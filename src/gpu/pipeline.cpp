#include "gpu/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "common/units.hpp"
#include "obs/profiler.hpp"

namespace gpuqos {
namespace {
/// Fixed front-end depth added to every fragment's shading latency.
constexpr Cycle kPipeDepth = 8;
/// Most GMI requests a single fragment can generate (hiZ + 4 textures +
/// depth read + color read); issue is deferred when fewer slots are free.
constexpr std::size_t kMaxReqsPerFragment = 8;
}  // namespace

GpuPipeline::GpuPipeline(Engine& engine, const GpuConfig& cfg,
                         StatRegistry& stats, Rng rng)
    : engine_(engine),
      cfg_(cfg),
      stats_(stats),
      rng_(rng),
      caches_(std::make_unique<GpuCaches>(cfg)) {
  frag_gen_.resize(cfg.max_fragments_in_flight, 0);
  frag_outstanding_.resize(cfg.max_fragments_in_flight, 0);
  frag_ready_at_.resize(cfg.max_fragments_in_flight, 0);
  frag_tile_.resize(cfg.max_fragments_in_flight, 0);
  frag_active_.resize(cfg.max_fragments_in_flight, 0);
  free_slots_.reserve(cfg.max_fragments_in_flight);
  for (std::uint32_t i = 0; i < cfg.max_fragments_in_flight; ++i) {
    free_slots_.push_back(cfg.max_fragments_in_flight - 1 - i);
  }
  st_frags_ = stats_.counter_ptr("gpu.fragments");
  st_tiles_ = stats_.counter_ptr("gpu.tiles_retired");
  st_frames_ = stats_.counter_ptr("gpu.frames");
  st_frame_cycles_ = stats_.counter_ptr("gpu.frame_cycles_sum");
  st_stall_slots_ = stats_.counter_ptr("gpu.stall_no_context");
  st_stall_gmi_ = stats_.counter_ptr("gpu.stall_gmi_full");
}

void GpuPipeline::set_mem_interface(GpuMemInterface* gmi) {
  gmi_ = gmi;
  caches_->set_write_out(
      [this](Addr addr, GpuAccessClass cls) { send_write(addr, cls); });
}

void GpuPipeline::submit_frame(SceneFrame frame) {
  sequence_.push_back(frame);
  queue_.push_back(std::move(frame));
}

bool GpuPipeline::idle() const {
  return !rendering_ && queue_.empty() && !flushing_;
}

double GpuPipeline::latency_tolerance() const {
  if (tol_samples_ == 0) return 1.0;
  const double avg_free =
      static_cast<double>(tol_free_sum_) / static_cast<double>(tol_samples_);
  tol_samples_ = 0;
  tol_free_sum_ = 0;
  return avg_free / cfg_.max_fragments_in_flight;
}

void GpuPipeline::start_next_frame(Cycle gpu_now) {
  if (queue_.empty()) {
    if (!repeat_ || sequence_.empty()) return;
    for (const auto& f : sequence_) queue_.push_back(f);
  }
  frame_ = std::move(queue_.front());
  queue_.pop_front();
  rendering_ = true;
  frame_start_ = gpu_now;
  batch_idx_ = 0;
  frag_seq_ = 0;
  if (observer_ != nullptr) observer_->on_frame_start(frame_, gpu_now);
  begin_batch(gpu_now);
}

void GpuPipeline::begin_batch(Cycle gpu_now) {
  (void)gpu_now;
  if (batch_idx_ >= frame_.batches.size()) return;
  const DrawBatch& b = frame_.batches[batch_idx_];
  verts_left_ = static_cast<std::uint64_t>(b.triangles) * 3;

  batch_tiles_.clear();
  const unsigned tiles = frame_.num_tiles();
  if (b.tile_coverage >= 1.0) {
    for (unsigned t = 0; t < tiles; ++t) batch_tiles_.push_back(t);
  } else {
    // Deterministic pseudo-random subset with stable density.
    for (unsigned t = 0; t < tiles; ++t) {
      if (rng_.bernoulli(b.tile_coverage)) batch_tiles_.push_back(t);
    }
    if (batch_tiles_.empty()) {
      batch_tiles_.push_back(
          static_cast<std::uint32_t>(rng_.next_below(tiles)));
    }
  }
  tile_cursor_ = 0;
  frags_left_in_tile_ = static_cast<std::uint64_t>(
      b.frags_per_tile_px * static_cast<double>(frame_.pixels_per_tile()));
  if (frags_left_in_tile_ == 0) frags_left_in_tile_ = 1;
  px_cursor_ = 0;
  // Each batch starts sampling at a fresh spot of its texture.
  tex_cursor_ = frame_.texture_base +
                (b.texture_id % 4) * frame_.texture_bytes +
                rng_.next_below(std::max<std::uint64_t>(1, frame_.texture_bytes / 64)) * 64;
  // Shader program fetch for the new batch (posted read: the front-end
  // prefetches programs far ahead, so no stage blocks on it).
  const Addr prog = frame_.vertex_base + 0x40000000ull + batch_idx_ * 256;
  if (caches_->access_shader_instr(prog).needs_mem && gmi_ != nullptr) {
    MemRequest req;
    req.addr = prog;
    req.is_write = false;
    req.source = SourceId::gpu();
    req.gclass = GpuAccessClass::ShaderInstr;
    req.issued_at = engine_.now();
    (void)gmi_->enqueue(std::move(req));
  }
}

Addr GpuPipeline::next_texture_addr(const DrawBatch& batch) {
  if (rng_.bernoulli(batch.tex_locality)) {
    tex_cursor_ += 16;  // adjacent texels, same or next block
  } else {
    const std::uint64_t blocks =
        std::max<std::uint64_t>(1, frame_.texture_bytes / 64);
    tex_cursor_ = frame_.texture_base +
                  (batch.texture_id % 4) * frame_.texture_bytes +
                  rng_.next_below(blocks) * 64;
  }
  return tex_cursor_;
}

bool GpuPipeline::send_read(Addr addr, GpuAccessClass cls, std::uint32_t slot,
                            std::uint32_t gen) {
  MemRequest req;
  req.addr = addr;
  req.is_write = false;
  req.source = SourceId::gpu();
  req.gclass = cls;
  req.issued_at = engine_.now();
  req.on_complete = [this, slot, gen](Cycle when) {
    if (frag_gen_[slot] != gen || frag_active_[slot] == 0) return;
    if (frag_outstanding_[slot] > 0) --frag_outstanding_[slot];
    if (frag_outstanding_[slot] == 0) {
      frag_ready_at_[slot] =
          std::max<Cycle>(frag_ready_at_[slot], base_to_gpu_cycles(when));
      retire_q_.push_back(slot);
    }
  };
  return gmi_->enqueue(std::move(req));
}

void GpuPipeline::send_write(Addr addr, GpuAccessClass cls) {
  MemRequest req;
  req.addr = addr;
  req.is_write = true;
  req.source = SourceId::gpu();
  req.gclass = cls;
  req.issued_at = engine_.now();
  if (!gmi_->enqueue(std::move(req))) {
    // Posted writes that find the GMI full are deferred to the flush list;
    // this only happens under extreme throttling.
    flush_pending_.emplace_back(addr, cls);
    flushing_ = true;
  }
}

bool GpuPipeline::issue_fragment(Cycle gpu_now) {
  if (tile_cursor_ >= batch_tiles_.size()) return false;
  if (free_slots_.empty()) {
    ++*st_stall_slots_;
    return false;
  }
  if (gmi_->free_slots() < kMaxReqsPerFragment) {
    ++*st_stall_gmi_;
    return false;
  }

  const DrawBatch& b = frame_.batches[batch_idx_];
  const std::uint32_t tile = batch_tiles_[tile_cursor_];
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  ++frag_gen_[slot];
  frag_active_[slot] = 1;
  frag_outstanding_[slot] = 0;
  frag_tile_[slot] = tile;
  frag_ready_at_[slot] = gpu_now + b.shader_cycles + kPipeDepth;
  const std::uint32_t gen = frag_gen_[slot];

  // Pixel position: walk the tile in raster order, wrapping on overdraw.
  const std::uint64_t px_in_tile = px_cursor_ % frame_.pixels_per_tile();
  const std::uint64_t global_px =
      static_cast<std::uint64_t>(tile) * frame_.pixels_per_tile() + px_in_tile;
  ++px_cursor_;

  auto track = [&](bool needs_mem, Addr addr, GpuAccessClass cls) {
    if (!needs_mem) return;
    if (send_read(addr, cls, slot, gen)) ++frag_outstanding_[slot];
  };

  // Hierarchical-Z: one access per quad.
  if (frag_seq_ % 4 == 0) {
    const Addr hiz = frame_.depth_base + 128 * MiB + tile * 8ull;
    track(caches_->access_hiz(hiz, /*write=*/b.depth_write).needs_mem, hiz,
          GpuAccessClass::HiZ);
  }
  ++frag_seq_;

  for (unsigned t = 0; t < b.tex_samples; ++t) {
    const Addr ta = next_texture_addr(b);
    track(caches_->access_texture(ta).needs_mem, ta, GpuAccessClass::Texture);
  }

  const Addr daddr = frame_.depth_base + global_px * 4;
  if (b.depth_test) {
    track(caches_->access_depth(daddr, /*write=*/false).needs_mem, daddr,
          GpuAccessClass::Depth);
  }
  if (b.depth_write) {
    (void)caches_->access_depth(daddr, /*write=*/true);
  }

  // One surface per render target; deferred-shading passes write several
  // (G-buffer), multiplying color-stream footprint the way real engines do.
  for (unsigned t = 0; t < b.mrt_targets; ++t) {
    const Addr caddr = frame_.color_base + t * 64 * MiB +
                       global_px * frame_.bytes_per_pixel;
    if (b.blend && t == 0) {
      track(caches_->access_color(caddr, /*write=*/false).needs_mem, caddr,
            GpuAccessClass::Color);
    }
    (void)caches_->access_color(caddr, /*write=*/true);
  }

  if (frag_outstanding_[slot] == 0) retire_q_.push_back(slot);

  if (--frags_left_in_tile_ == 0) {
    ++*st_tiles_;
    ++tile_cursor_;
    px_cursor_ = 0;
    frags_left_in_tile_ = static_cast<std::uint64_t>(
        b.frags_per_tile_px * static_cast<double>(frame_.pixels_per_tile()));
    if (frags_left_in_tile_ == 0) frags_left_in_tile_ = 1;
  }
  return true;
}

void GpuPipeline::retire_fragments(Cycle gpu_now) {
  unsigned retired = 0;
  while (retired < cfg_.rop_units && !retire_q_.empty()) {
    const std::uint32_t slot = retire_q_.front();
    if (frag_active_[slot] == 0) {  // stale entry from a previous generation
      retire_q_.pop_front();
      continue;
    }
    if (frag_outstanding_[slot] > 0) {  // re-queued slot raced with a new miss
      retire_q_.pop_front();
      continue;
    }
    if (frag_ready_at_[slot] > gpu_now) break;  // in-order ROP: oldest first
    retire_q_.pop_front();
    frag_active_[slot] = 0;
    free_slots_.push_back(slot);
    ++frags_done_;
    ++*st_frags_;
    ++retired;
    if (observer_ != nullptr) {
      observer_->on_rt_update(frag_tile_[slot], gpu_now);
    }
  }
}

void GpuPipeline::advance_vertex_stage(Cycle gpu_now) {
  (void)gpu_now;
  unsigned budget = cfg_.vertex_rate;
  while (budget > 0 && verts_left_ > 0) {
    const Addr va = frame_.vertex_base + (vert_cursor_++ % (1u << 20)) * 32;
    if (caches_->access_vertex(va).needs_mem) {
      MemRequest req;
      req.addr = va;
      req.is_write = false;
      req.source = SourceId::gpu();
      req.gclass = GpuAccessClass::Vertex;
      req.issued_at = engine_.now();
      if (!gmi_->enqueue(std::move(req))) break;  // back-pressure
    }
    --verts_left_;
    --budget;
  }
}

void GpuPipeline::drain_flush(Cycle gpu_now) {
  (void)gpu_now;
  while (flush_cursor_ < flush_pending_.size()) {
    auto [addr, cls] = flush_pending_[flush_cursor_];
    MemRequest req;
    req.addr = addr;
    req.is_write = true;
    req.source = SourceId::gpu();
    req.gclass = cls;
    req.issued_at = engine_.now();
    if (!gmi_->enqueue(std::move(req))) return;  // retry next cycle
    ++flush_cursor_;
  }
  flush_pending_.clear();
  flush_cursor_ = 0;
  flushing_ = false;
}

void GpuPipeline::finish_frame(Cycle gpu_now) {
  // Resolve: push all dirty render-target blocks out to the LLC.
  caches_->flush_render_targets();
  last_frame_cycles_ = gpu_now - frame_start_;
  *st_frame_cycles_ += last_frame_cycles_;
  ++*st_frames_;
  ++frames_done_;
  rendering_ = false;
  if (observer_ != nullptr) observer_->on_frame_complete(gpu_now);
}

void GpuPipeline::tick_gpu(Cycle gpu_now) {
  if (frozen_) return;  // checkpoint barrier: no issue, no retire, no samples
  SampledProfScope<16> prof(prof_, ProfModule::GpuPipeline, prof_decim_);
  tol_free_sum_ += free_slots_.size();
  ++tol_samples_;

  if (flushing_) drain_flush(gpu_now);

  if (!rendering_) {
    start_next_frame(gpu_now);
    if (!rendering_) return;
  }

  retire_fragments(gpu_now);

  if (batch_idx_ < frame_.batches.size()) {
    if (verts_left_ > 0) {
      advance_vertex_stage(gpu_now);
    } else {
      unsigned issued = 0;
      while (issued < cfg_.raster_rate && issue_fragment(gpu_now)) ++issued;
      if (tile_cursor_ >= batch_tiles_.size()) {
        ++batch_idx_;
        begin_batch(gpu_now);
      }
    }
    return;
  }

  // All batches emitted: the frame completes when every fragment retired.
  if (active_fragments() == 0 && retire_q_.empty()) finish_frame(gpu_now);
}

std::uint64_t GpuPipeline::digest() const {
  Fnv1a64 h;
  h.mix(sequence_.size());
  h.mix(queue_.size());
  h.mix_bool(rendering_);
  h.mix(frame_start_);
  h.mix(frames_done_);
  h.mix(last_frame_cycles_);
  h.mix(batch_idx_);
  h.mix(verts_left_);
  h.mix(vert_cursor_);
  h.mix(batch_tiles_.size());
  for (std::uint32_t t : batch_tiles_) h.mix(t);
  h.mix(tile_cursor_);
  h.mix(frags_left_in_tile_);
  h.mix(px_cursor_);
  h.mix(tex_cursor_);
  h.mix(frag_seq_);
  // Lanes walked per slot in the original FragSlot field order, so the
  // stream matches the AoS layout this replaced.
  for (std::size_t i = 0; i < frag_gen_.size(); ++i) {
    h.mix(frag_gen_[i]);
    h.mix_byte(frag_outstanding_[i]);
    h.mix(frag_ready_at_[i]);
    h.mix(frag_tile_[i]);
    h.mix_bool(frag_active_[i] != 0);
  }
  h.mix(free_slots_.size());
  for (std::uint32_t s : free_slots_) h.mix(s);
  h.mix(retire_q_.size());
  for (std::uint32_t s : retire_q_) h.mix(s);
  h.mix(flush_pending_.size());
  h.mix(flush_cursor_);
  h.mix_bool(flushing_);
  h.mix(frags_done_);
  h.mix(tol_samples_);
  h.mix(tol_free_sum_);
  h.mix(rng_.digest());
  h.mix(caches_->digest());
  return h.value();
}

namespace {

template <class IO>
void visit_frame(IO& io, SceneFrame& f) {
  io.u32(f.tiles_x);
  io.u32(f.tiles_y);
  io.u32(f.tile_px);
  io.length(f.batches);
  for (DrawBatch& b : f.batches) {
    io.u32(b.triangles);
    io.f64(b.tile_coverage);
    io.f64(b.frags_per_tile_px);
    io.u32(b.tex_samples);
    io.boolean(b.depth_test);
    io.boolean(b.depth_write);
    io.boolean(b.blend);
    io.u32(b.shader_cycles);
    io.u32(b.texture_id);
    io.f64(b.tex_locality);
    io.u32(b.mrt_targets);
  }
  io.u64(f.color_base);
  io.u64(f.depth_base);
  io.u64(f.vertex_base);
  io.u64(f.texture_base);
  io.u64(f.texture_bytes);
  io.u32(f.bytes_per_pixel);
}

}  // namespace

template <class IO>
void GpuPipeline::visit_state(IO& io) {
  io.require(quiescent(),
             "gpu pipeline has fragments waiting on memory: the simulation "
             "was not drained before checkpointing");
  // The submitted sequence is reproduced by fresh construction; only its
  // length is recorded, for a sanity check at load time.
  io.expect_size(sequence_.size(), "gpu pipeline frame-sequence length");
  io.length(queue_);
  for (SceneFrame& f : queue_) visit_frame(io, f);
  io.boolean(rendering_);
  visit_frame(io, frame_);
  io.u64(frame_start_);
  io.u64(frames_done_);
  io.u64(last_frame_cycles_);
  io.u64(batch_idx_);
  io.u64(verts_left_);
  io.u64(vert_cursor_);
  io.length(batch_tiles_);
  for (std::uint32_t& t : batch_tiles_) io.u32(t);
  io.u64(tile_cursor_);
  io.u64(frags_left_in_tile_);
  io.u64(px_cursor_);
  io.u64(tex_cursor_);
  io.u64(frag_seq_);
  io.expect_size(frag_gen_.size(), "gpu pipeline fragment-context count");
  for (std::size_t i = 0; i < frag_gen_.size(); ++i) {
    io.u32(frag_gen_[i]);
    io.u64(frag_ready_at_[i]);
    io.u32(frag_tile_[i]);
    io.u8(frag_active_[i]);  // 0 or 1, the byte a boolean takes
  }
  io.length(free_slots_);
  for (std::uint32_t& s : free_slots_) io.u32(s);
  io.length(retire_q_);
  for (std::uint32_t& s : retire_q_) io.u32(s);
  io.length(flush_pending_);
  for (auto& [addr, cls] : flush_pending_) {
    io.u64(addr);
    io.enum_u8(cls);
  }
  io.u64(flush_cursor_);
  io.boolean(flushing_);
  io.u64(frags_done_);
  io.u64(tol_samples_);
  io.u64(tol_free_sum_);
  io.sub(rng_);
  io.sub(*caches_);
}

void GpuPipeline::save(ckpt::StateWriter& w) { visit_state(w); }

void GpuPipeline::load(ckpt::StateReader& r) {
  visit_state(r);
  // Quiescent by construction of the snapshot.
  std::fill(frag_outstanding_.begin(), frag_outstanding_.end(), 0);
}

}  // namespace gpuqos
