#include "ckpt/snapshot.hpp"

namespace gpuqos::ckpt {

namespace {

/// The meta section's walk; `Meta` is const when writing.
template <class IO, class Meta>
void visit_meta(IO& io, Meta& m) {
  io.str(m.mix_id);
  io.str(m.policy);
  io.u64(m.seed);
  io.u32(m.cpu_cores);
  io.f64(m.fps_scale);
  io.u64(m.cfg_digest);
  io.u64(m.warm_instrs);
  io.u64(m.measure_instrs);
  io.u32(m.warm_frames);
  io.u32(m.measure_frames);
  io.u64(m.warm_min_cycles);
  io.u64(m.max_cycles);
}

template <class T>
void check_field(const char* name, const T& snap, const T& live) {
  if (snap != live) {
    throw CkptError(std::string("snapshot mismatch: ") + name +
                    " differs (snapshot has '" + [&] {
                      if constexpr (std::is_same_v<T, std::string>) {
                        return snap;
                      } else {
                        return std::to_string(snap);
                      }
                    }() + "', this run has '" +
                    [&] {
                      if constexpr (std::is_same_v<T, std::string>) {
                        return live;
                      } else {
                        return std::to_string(live);
                      }
                    }() + "')");
  }
}

}  // namespace

void save_meta(StateWriter& w, const SnapshotMeta& meta) {
  w.begin_section("meta");
  visit_meta(w, meta);
  w.end_section();
}

SnapshotMeta load_meta(StateReader& r) {
  r.require(r.tag() == "meta",
            "expected the snapshot to begin with a 'meta' section");
  SnapshotMeta m;
  visit_meta(r, m);
  r.expect_section_end();
  return m;
}

void validate_meta(const SnapshotMeta& snap, const SnapshotMeta& live,
                   RestoreMode mode) {
  check_field("mix", snap.mix_id, live.mix_id);
  if (mode == RestoreMode::kResume) {
    check_field("policy", snap.policy, live.policy);
  }
  check_field("seed", snap.seed, live.seed);
  check_field("cpu_cores", snap.cpu_cores, live.cpu_cores);
  check_field("fps_scale", snap.fps_scale, live.fps_scale);
  check_field("config digest", snap.cfg_digest, live.cfg_digest);
  check_field("warm_instrs", snap.warm_instrs, live.warm_instrs);
  check_field("measure_instrs", snap.measure_instrs, live.measure_instrs);
  check_field("warm_frames", snap.warm_frames, live.warm_frames);
  check_field("measure_frames", snap.measure_frames, live.measure_frames);
  check_field("warm_min_cycles", snap.warm_min_cycles, live.warm_min_cycles);
  check_field("max_cycles", snap.max_cycles, live.max_cycles);
}

}  // namespace gpuqos::ckpt
