#include "gpu/caches.hpp"

#include <utility>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {
namespace {
const SourceId kGpu = SourceId::gpu();
}

GpuCaches::GpuCaches(const GpuConfig& cfg)
    : tex_l0_(std::make_unique<SetAssocCache>(cfg.tex_l0, "tex_l0")),
      tex_l1_(std::make_unique<SetAssocCache>(cfg.tex_l1, "tex_l1")),
      tex_l2_(std::make_unique<SetAssocCache>(cfg.tex_l2, "tex_l2")),
      depth_l1_(std::make_unique<SetAssocCache>(cfg.depth_l1, "depth_l1")),
      depth_l2_(std::make_unique<SetAssocCache>(cfg.depth_l2, "depth_l2")),
      color_l1_(std::make_unique<SetAssocCache>(cfg.color_l1, "color_l1")),
      color_l2_(std::make_unique<SetAssocCache>(cfg.color_l2, "color_l2")),
      vertex_(std::make_unique<SetAssocCache>(cfg.vertex_cache, "vertex")),
      hiz_(std::make_unique<SetAssocCache>(cfg.hiz_cache, "hiz")),
      icache_(std::make_unique<SetAssocCache>(cfg.shader_icache, "shader_i")) {}

GpuCacheResult GpuCaches::access_ro(SetAssocCache* l0, SetAssocCache* l1,
                                    SetAssocCache* l2, Addr addr,
                                    GpuAccessClass cls) {
  (void)cls;
  const Addr block = (l2 != nullptr ? l2 : l1)->block_base(addr);
  if (l0 != nullptr && l0->lookup(block, false)) return {false};
  if (l1 != nullptr && l1->lookup(block, false)) {
    if (l0 != nullptr) (void)l0->fill(block, kGpu, cls, false);
    return {false};
  }
  if (l2 != nullptr && l2->lookup(block, false)) {
    if (l1 != nullptr) (void)l1->fill(block, kGpu, cls, false);
    if (l0 != nullptr) (void)l0->fill(block, kGpu, cls, false);
    return {false};
  }
  // Missed everywhere: fill all levels now (functional), fetch for timing.
  if (l2 != nullptr) (void)l2->fill(block, kGpu, cls, false);
  if (l1 != nullptr) (void)l1->fill(block, kGpu, cls, false);
  if (l0 != nullptr) (void)l0->fill(block, kGpu, cls, false);
  return {true};
}

GpuCacheResult GpuCaches::access_rw(SetAssocCache* l1, SetAssocCache* l2,
                                    Addr addr, bool write,
                                    GpuAccessClass cls) {
  const Addr block = l2->block_base(addr);
  if (l1->lookup(block, write)) return {false};
  if (l2->lookup(block, write)) {
    if (auto ev = l1->fill(block, kGpu, cls, write); ev && ev->dirty) {
      // L1 victim spills into L2.
      if (auto ev2 = l2->fill(ev->block_addr, kGpu, cls, true);
          ev2 && ev2->dirty && write_out_) {
        write_out_(ev2->block_addr, cls);
      }
    }
    return {false};
  }
  // Full miss: a fully-covered write needs no fetch (paper footnote 6 — the
  // ROP produces whole lines); a read (depth test / blend source) does.
  bool needs_mem = !write;
  if (auto ev = l2->fill(block, kGpu, cls, write); ev && ev->dirty && write_out_) {
    write_out_(ev->block_addr, cls);
  }
  if (auto ev = l1->fill(block, kGpu, cls, write); ev && ev->dirty) {
    if (auto ev2 = l2->fill(ev->block_addr, kGpu, cls, true);
        ev2 && ev2->dirty && write_out_) {
      write_out_(ev2->block_addr, cls);
    }
  }
  return {needs_mem};
}

GpuCacheResult GpuCaches::access_texture(Addr addr) {
  return access_ro(tex_l0_.get(), tex_l1_.get(), tex_l2_.get(), addr,
                   GpuAccessClass::Texture);
}

GpuCacheResult GpuCaches::access_depth(Addr addr, bool write) {
  return access_rw(depth_l1_.get(), depth_l2_.get(), addr, write,
                   GpuAccessClass::Depth);
}

GpuCacheResult GpuCaches::access_color(Addr addr, bool write) {
  return access_rw(color_l1_.get(), color_l2_.get(), addr, write,
                   GpuAccessClass::Color);
}

GpuCacheResult GpuCaches::access_vertex(Addr addr) {
  return access_ro(nullptr, vertex_.get(), nullptr, addr,
                   GpuAccessClass::Vertex);
}

GpuCacheResult GpuCaches::access_hiz(Addr addr, bool write) {
  const Addr block = hiz_->block_base(addr);
  bool hit = hiz_->lookup(block, write);
  if (!hit) (void)hiz_->fill(block, kGpu, GpuAccessClass::HiZ, write);
  return {!hit && !write};
}

GpuCacheResult GpuCaches::access_shader_instr(Addr addr) {
  return access_ro(nullptr, icache_.get(), nullptr, addr,
                   GpuAccessClass::ShaderInstr);
}

void GpuCaches::flush_render_targets() {
  if (!write_out_) return;
  for (SetAssocCache* c : {color_l1_.get(), color_l2_.get()}) {
    for (Addr a : c->drain_dirty()) write_out_(a, GpuAccessClass::Color);
  }
  for (SetAssocCache* c : {depth_l1_.get(), depth_l2_.get()}) {
    for (Addr a : c->drain_dirty()) write_out_(a, GpuAccessClass::Depth);
  }
}

std::uint64_t GpuCaches::digest() const {
  Fnv1a64 h;
  for (const auto* c :
       {tex_l0_.get(), tex_l1_.get(), tex_l2_.get(), depth_l1_.get(),
        depth_l2_.get(), color_l1_.get(), color_l2_.get(), vertex_.get(),
        hiz_.get(), icache_.get()}) {
    h.mix(c->digest());
  }
  return h.value();
}

template <class IO>
void GpuCaches::visit_state(IO& io) {
  for (auto* c : {tex_l0_.get(), tex_l1_.get(), tex_l2_.get(), depth_l1_.get(),
                  depth_l2_.get(), color_l1_.get(), color_l2_.get(),
                  vertex_.get(), hiz_.get(), icache_.get()}) {
    io.sub(*c);
  }
}

void GpuCaches::save(ckpt::StateWriter& w) { visit_state(w); }
void GpuCaches::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
