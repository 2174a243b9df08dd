// Synthetic instruction/memory stream generation for CPU workloads.
//
// Substitute for SPEC CPU 2006 traces (see DESIGN.md §2). Each profile is a
// statistical model of a benchmark's committed-instruction stream built
// around the quantity that matters to the shared memory system: LLC accesses
// per kilo-instruction (APKI). A memory op lands in one of three regions:
//   * hot set    — small, private-cache resident (the L1/L2 locality real
//                  SPEC codes have); generates no LLC traffic,
//   * LLC set    — benchmark working set that lives in the shared LLC;
//                  vulnerable to GPU-induced eviction (the paper's effect),
//   * stream     — sequential sweep over a large region; compulsory misses.
// The LLC-set probability is derived from the APKI target so each profile
// reproduces its benchmark's published LLC pressure class.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace gpuqos {

struct SpecProfile {
  std::string name;                  // e.g. "429.mcf"
  int spec_id = 0;
  double mem_op_fraction = 0.35;     // committed ops that are loads/stores
  double store_fraction = 0.30;      // of memory ops
  double dependent_fraction = 0.20;  // of loads: serialized (pointer chase)
  double llc_apki = 10.0;            // target LLC accesses / kilo-instruction
  double stream_fraction = 0.0;      // of memory ops: sequential sweep
  std::uint64_t llc_ws_bytes = 1 << 20;   // LLC-resident working set
  std::uint64_t hot_bytes = 16 << 10;     // private-cache-resident hot set
  std::uint64_t stream_bytes = 16 << 20;  // streaming region
  std::uint64_t stream_stride = 8;
};

/// One committed micro-op group: `gap` non-memory instructions followed by
/// one memory operation.
struct MicroOp {
  std::uint32_t gap = 0;
  Addr addr = 0;
  bool is_store = false;
  bool dependent = false;  // load feeds the next instructions directly
};

class CpuStream {
 public:
  CpuStream(const SpecProfile& profile, Addr base, Rng rng);

  /// Produce the next micro-op group (infinite stream).
  [[nodiscard]] MicroOp next();

  [[nodiscard]] const SpecProfile& profile() const { return profile_; }
  /// Derived probability that a memory op touches the LLC working set.
  [[nodiscard]] double llc_probability() const { return p_llc_; }

  /// Checkpoint the stream position (docs/CHECKPOINT.md). The profile, base
  /// address, and derived means are construction parameters, not state.
  void save(ckpt::StateWriter& w) { visit_state(w); }
  void load(ckpt::StateReader& r) { visit_state(r); }

  /// Fold the stream position into a determinism digest so an rng divergence
  /// surfaces at the sample point instead of cycles later through committed_.
  [[nodiscard]] std::uint64_t digest() const {
    Fnv1a64 h;
    h.mix(rng_.digest());
    h.mix(stream_pos_);
    return h.value();
  }

 private:
  template <class IO>
  void visit_state(IO& io) {
    io.sub(rng_);
    io.u64(stream_pos_);
  }

  SpecProfile profile_;  // ckpt:skip digest:skip: construction parameter
  Addr base_;            // ckpt:skip digest:skip: construction parameter
  Rng rng_;
  Addr stream_pos_ = 0;
  double mean_gap_;  // ckpt:skip digest:skip: derived from profile_
  double p_llc_;     // ckpt:skip digest:skip: derived from profile_
};

}  // namespace gpuqos
