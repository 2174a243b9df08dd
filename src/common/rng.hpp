// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic component owns its own stream seeded from the run seed and
// a component tag, so simulations are reproducible regardless of component
// evaluation order.
#pragma once

#include <cstdint>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Derive an independent stream for a named sub-component.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Geometrically distributed gap with mean `mean` (>= 1 for mean >= 1).
  std::uint64_t geometric(double mean);

  /// FNV-1a fold of the full generator state. Two runs that consumed the
  /// same number of draws from the same seed digest identically.
  [[nodiscard]] std::uint64_t digest() const {
    Fnv1a64 h;
    for (std::uint64_t w : s_) h.mix(w);
    return h.value();
  }

  /// Serialize the generator state. The geometric() memo is derived from the
  /// caller's `mean` argument and is rebuilt on first use, so only s_ is
  /// persisted (bit-identical draws either way).
  void save(ckpt::StateWriter& w) { visit_state(w); }
  void load(ckpt::StateReader& r) { visit_state(r); }

 private:
  template <class IO>
  void visit_state(IO& io) {
    for (std::uint64_t& word : s_) io.u64(word);
  }

  std::uint64_t s_[4];
  // geometric() memo (derived from the last `mean`, not generator state —
  // deliberately excluded from digest()).
  double cached_mean_ = 0.0;   // ckpt:skip digest:skip: memo, see above
  double cached_log1p_ = 0.0;  // ckpt:skip digest:skip: memo, see above
};

}  // namespace gpuqos
