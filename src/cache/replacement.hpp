// Replacement policies for set-associative caches: true-LRU and 2-bit SRRIP
// (Jaleel et al., ISCA 2010 — the paper's LLC policy, Table I).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace gpuqos {

namespace ckpt {
class StateWriter;
class StateReader;
}  // namespace ckpt

/// Per-set replacement state. `way` indices are cache ways; callers guarantee
/// victim() is only asked when every way is valid (invalid ways are filled
/// first by the cache itself).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual void on_fill(std::uint64_t set, unsigned way) = 0;
  virtual void on_hit(std::uint64_t set, unsigned way) = 0;
  virtual unsigned victim(std::uint64_t set) = 0;
  /// FNV-1a digest of the replacement state (determinism auditing): the
  /// victim sequence depends on it, so divergence must be visible here.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// Checkpoint the replacement state (docs/CHECKPOINT.md). load() targets a
  /// freshly-constructed policy of the same geometry.
  virtual void save(ckpt::StateWriter& w) = 0;
  virtual void load(ckpt::StateReader& r) = 0;
};

class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy(std::uint64_t sets, unsigned ways);
  void on_fill(std::uint64_t set, unsigned way) override;
  void on_hit(std::uint64_t set, unsigned way) override;
  unsigned victim(std::uint64_t set) override;
  [[nodiscard]] std::uint64_t digest() const override;
  void save(ckpt::StateWriter& w) override;
  void load(ckpt::StateReader& r) override;

 private:
  template <class IO>
  void visit_state(IO& io);

  unsigned ways_;  // ckpt:skip digest:skip: geometry, fixed at construction
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> stamp_;  // sets * ways
};

/// 2-bit Static RRIP: insert at RRPV=2, promote to 0 on hit, victimize the
/// first way at RRPV=3 (aging all ways until one reaches 3).
class SrripPolicy final : public ReplacementPolicy {
 public:
  SrripPolicy(std::uint64_t sets, unsigned ways);
  void on_fill(std::uint64_t set, unsigned way) override;
  void on_hit(std::uint64_t set, unsigned way) override;
  unsigned victim(std::uint64_t set) override;
  [[nodiscard]] std::uint64_t digest() const override;
  void save(ckpt::StateWriter& w) override;
  void load(ckpt::StateReader& r) override;

  /// Insertion RRPV override hook (used by tests and by distant-insertion
  /// ablations); default 2.
  void set_insert_rrpv(std::uint8_t v) { insert_rrpv_ = v; }

 private:
  template <class IO>
  void visit_state(IO& io);

  unsigned ways_;  // ckpt:skip digest:skip: geometry, fixed at construction
  std::uint8_t insert_rrpv_ = 2;
  std::vector<std::uint8_t> rrpv_;  // sets * ways
};

[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_policy(
    bool srrip, std::uint64_t sets, unsigned ways);

}  // namespace gpuqos
