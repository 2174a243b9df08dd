// The GPU-internal cache hierarchy (Table I): three-level texture caches,
// two-level depth and color caches, vertex cache, hierarchical-Z cache, and
// shader instruction cache.
//
// The caches are functional (fill-on-access); timing is carried by the
// memory requests the bundle emits for blocks that miss all levels. Dirty
// evictions from the deepest level surface as write requests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace gpuqos {

/// Outcome of a hierarchy access.
struct GpuCacheResult {
  bool needs_mem = false;  // block missed every level: fetch from LLC
};

class GpuCaches {
 public:
  /// `write_out` receives dirty blocks evicted from the deepest level of a
  /// read-write hierarchy (depth/color), tagged with their access class.
  using WriteOut = std::function<void(Addr, GpuAccessClass)>;

  explicit GpuCaches(const GpuConfig& cfg);

  void set_write_out(WriteOut cb) { write_out_ = std::move(cb); }

  GpuCacheResult access_texture(Addr addr);
  GpuCacheResult access_depth(Addr addr, bool write);
  GpuCacheResult access_color(Addr addr, bool write);
  GpuCacheResult access_vertex(Addr addr);
  GpuCacheResult access_hiz(Addr addr, bool write);
  GpuCacheResult access_shader_instr(Addr addr);

  /// End-of-frame resolve: flush all dirty depth/color blocks. Each flushed
  /// block is reported through `write_out`.
  void flush_render_targets();

  [[nodiscard]] const SetAssocCache& tex_l2() const { return *tex_l2_; }
  [[nodiscard]] const SetAssocCache& color_l2() const { return *color_l2_; }
  [[nodiscard]] const SetAssocCache& depth_l2() const { return *depth_l2_; }

  /// FNV-1a digest over every level of every hierarchy.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint every level of every hierarchy, in fixed declaration order
  /// (docs/CHECKPOINT.md).
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);
  /// Two/three-level read-only lookup: fill upper levels on lower hits.
  GpuCacheResult access_ro(SetAssocCache* l0, SetAssocCache* l1,
                           SetAssocCache* l2, Addr addr, GpuAccessClass cls);
  /// Read-write two-level lookup with dirty write-back propagation.
  GpuCacheResult access_rw(SetAssocCache* l1, SetAssocCache* l2, Addr addr,
                           bool write, GpuAccessClass cls);

  std::unique_ptr<SetAssocCache> tex_l0_, tex_l1_, tex_l2_;
  std::unique_ptr<SetAssocCache> depth_l1_, depth_l2_;
  std::unique_ptr<SetAssocCache> color_l1_, color_l2_;
  std::unique_ptr<SetAssocCache> vertex_, hiz_, icache_;
  WriteOut write_out_;  // ckpt:skip digest:skip: wiring callback
};

}  // namespace gpuqos
