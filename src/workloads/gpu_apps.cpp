#include "workloads/gpu_apps.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace gpuqos {
namespace {

// GPU surface layout (disjoint from the per-core CPU regions).
constexpr Addr kColorBase = 0x4000000000ull;
constexpr Addr kDepthBase = 0x4400000000ull;
constexpr Addr kVertexBase = 0x4800000000ull;
constexpr Addr kTextureBase = 0x4C00000000ull;

// Tile grids for the paper's resolution classes at 1/64 area, 16x16 tiles:
// R1 = 1280x1024 -> 160x128, R2 = 1920x1200 -> 240x144, R3 = 1600x1200 ->
// 200x144 (rounded to whole tiles).
struct Res {
  unsigned tx, ty;
  const char* tag;
};
constexpr Res kR1{10, 8, "R1 (1280x1024)"};
constexpr Res kR2{15, 9, "R2 (1920x1200)"};
constexpr Res kR3{12, 9, "R3 (1600x1200)"};

GpuAppDesc make(const char* name, const char* api, Res res, unsigned frames,
                double paper_fps, double fps_scale, unsigned passes,
                double overdraw, unsigned tex_samples, unsigned shader_cycles,
                double blend_fraction, std::uint64_t texture_bytes,
                unsigned mrt_targets = 1) {
  GpuAppDesc d;
  d.name = name;
  d.api = api;
  d.resolution = res.tag;
  d.tiles_x = res.tx;
  d.tiles_y = res.ty;
  d.frames = frames;
  d.paper_fps = paper_fps;
  d.fps_scale = fps_scale;
  d.passes = passes;
  d.overdraw = overdraw;
  d.tex_samples = tex_samples;
  d.shader_cycles = shader_cycles;
  d.blend_fraction = blend_fraction;
  d.texture_bytes = texture_bytes;
  d.mrt_targets = mrt_targets;
  return d;
}

std::vector<GpuAppDesc> build_apps() {
  std::vector<GpuAppDesc> a;
  // fps_scale values are calibrated so the heterogeneous-baseline FPS lands
  // on the Table II column (see EXPERIMENTS.md). To recalibrate after
  // changing GPU/DRAM/scene parameters: run the M-mix baselines and set
  // fps_scale_new = fps_scale_old * measured_fps / paper_fps.
  a.push_back(make("3DMark06GT1", "DX", kR1, 2, 6.0, 155, 7, 2.2, 3, 32,
                   0.50, 24 * MiB, 2));
  a.push_back(make("3DMark06GT2", "DX", kR1, 2, 13.8, 153, 5, 1.8, 2, 24,
                   0.40, 16 * MiB, 2));
  a.push_back(make("3DMark06HDR1", "DX", kR1, 2, 16.0, 106, 5, 1.6, 3, 22,
                   0.60, 16 * MiB, 2));
  a.push_back(make("3DMark06HDR2", "DX", kR1, 2, 20.8, 106, 4, 1.5, 3, 20,
                   0.60, 16 * MiB, 2));
  a.push_back(make("COD2", "DX", kR2, 2, 18.1, 84, 4, 1.8, 2, 20,
                   0.35, 16 * MiB));
  a.push_back(make("Crysis", "DX", kR2, 2, 6.6, 51, 8, 2.4, 4, 36,
                   0.50, 32 * MiB, 3));
  a.push_back(make("DOOM3", "OGL", kR3, 4, 81.0, 65, 2, 1.3, 2, 10,
                   0.30, 8 * MiB));
  a.push_back(make("HL2", "DX", kR3, 4, 75.9, 67, 2, 1.4, 2, 10,
                   0.25, 8 * MiB));
  a.push_back(make("L4D", "DX", kR1, 3, 32.5, 118, 3, 1.6, 2, 16,
                   0.30, 12 * MiB));
  a.push_back(make("NFS", "DX", kR1, 4, 62.3, 104, 2, 1.5, 2, 12,
                   0.35, 12 * MiB));
  a.push_back(make("Quake4", "OGL", kR3, 4, 80.8, 73, 2, 1.3, 2, 10,
                   0.30, 8 * MiB));
  a.push_back(make("COR", "OGL", kR1, 4, 111.0, 176, 1, 1.3, 2, 8,
                   0.20, 8 * MiB));
  a.push_back(make("UT2004", "OGL", kR3, 5, 130.7, 164, 1, 1.2, 1, 6,
                   0.15, 8 * MiB));
  a.push_back(make("UT3", "DX", kR1, 2, 26.8, 77, 4, 1.7, 3, 18,
                   0.40, 16 * MiB, 2));
  return a;
}

}  // namespace

const std::vector<GpuAppDesc>& gpu_apps() {
  static const std::vector<GpuAppDesc> apps = build_apps();
  return apps;
}

const GpuAppDesc& gpu_app(const std::string& name) {
  for (const auto& a : gpu_apps()) {
    if (a.name == name) return a;
  }
  throw std::out_of_range("unknown GPU app: " + name);
}

std::vector<SceneFrame> build_frames(const GpuAppDesc& app,
                                     std::uint64_t seed) {
  Rng rng(seed ^ 0xA77111A5EEDull);
  std::vector<SceneFrame> frames;
  frames.reserve(app.frames);
  for (unsigned f = 0; f < app.frames; ++f) {
    SceneFrame frame;
    frame.tiles_x = app.tiles_x;
    frame.tiles_y = app.tiles_y;
    frame.tile_px = 16;
    // Animation double-buffers the swap chain: even/odd frames render to
    // different color surfaces, so render-target blocks are not silently
    // reused across frames in the LLC.
    frame.color_base = kColorBase + (f % 2) * 512 * MiB;
    frame.depth_base = kDepthBase;
    frame.vertex_base = kVertexBase;
    frame.texture_base = kTextureBase;
    frame.texture_bytes = app.texture_bytes;

    // Frame-to-frame work variation: consecutive frames of a game differ a
    // little (camera motion), which exercises the estimator's robustness.
    const double jitter =
        1.0 + app.frame_jitter * (rng.next_double() * 2.0 - 1.0);

    for (unsigned p = 0; p < app.passes; ++p) {
      DrawBatch b;
      b.triangles = app.triangles_per_batch;
      b.tile_coverage = 1.0;
      b.frags_per_tile_px = app.overdraw * jitter;
      b.tex_samples = app.tex_samples;
      b.depth_test = true;
      b.depth_write = p == 0;  // later passes test against the prepass depth
      b.blend = rng.bernoulli(app.blend_fraction);
      b.shader_cycles = app.shader_cycles;
      b.texture_id = p;
      b.tex_locality = app.tex_locality;
      // The geometry pass of a deferred renderer writes the full G-buffer;
      // later passes write the single shaded output.
      b.mrt_targets = p == 0 ? app.mrt_targets : 1;
      frame.batches.push_back(b);
    }
    for (unsigned o = 0; o < app.overlay_batches; ++o) {
      DrawBatch b;
      b.triangles = 64;
      b.tile_coverage = 0.15;
      b.frags_per_tile_px = 0.8;
      b.tex_samples = 1;
      b.depth_test = false;
      b.depth_write = false;
      b.blend = true;
      b.shader_cycles = 4;
      b.texture_id = app.passes + o;
      b.tex_locality = 0.95;
      frame.batches.push_back(b);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace gpuqos
