// Functional set-associative cache with pluggable replacement.
//
// Used directly (with latency folded in by the owner) for every private
// cache — CPU L1/L2 and the GPU-internal texture/depth/color/vertex/hiZ
// caches — and as the tag store inside the timed shared LLC.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace gpuqos {

/// Result of a fill/allocation: the block that was evicted to make room.
struct Eviction {
  Addr block_addr = 0;
  bool dirty = false;
  SourceId owner = SourceId::cpu(0);
  GpuAccessClass gclass = GpuAccessClass::None;
};

struct LookupResult {
  bool hit = false;
};

class SetAssocCache {
 public:
  SetAssocCache(const CacheConfig& cfg, std::string name = "cache");

  /// Hit path: updates replacement state; marks dirty when `write`.
  [[nodiscard]] bool lookup(Addr addr, bool write);

  /// Probe without touching replacement/dirty state.
  [[nodiscard]] bool probe(Addr addr) const;

  /// Install a block (after a miss was serviced, or on a write-allocate).
  /// Returns the victim if one was displaced.
  std::optional<Eviction> fill(Addr addr, SourceId owner, GpuAccessClass gclass,
                               bool dirty);

  /// Remove a block if present; returns it (for dirty writeback propagation).
  std::optional<Eviction> invalidate(Addr addr);

  /// Collect the addresses of all dirty blocks and clear their dirty bits
  /// (blocks stay valid). Used for end-of-frame render-target flushes.
  [[nodiscard]] std::vector<Addr> drain_dirty();

  /// Combined access used by the simple private caches: lookup, and on a miss
  /// allocate immediately. `hit` reports the lookup outcome; the returned
  /// eviction (if any) must be written back by the owner when dirty.
  std::optional<Eviction> access(Addr addr, bool write, SourceId owner,
                                 GpuAccessClass gclass, bool& hit);

  [[nodiscard]] Addr block_base(Addr addr) const {
    return addr & ~static_cast<Addr>(cfg_.block_bytes - 1);
  }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Number of valid blocks currently owned by the GPU (occupancy stats).
  [[nodiscard]] std::uint64_t gpu_blocks() const { return gpu_blocks_; }
  [[nodiscard]] std::uint64_t valid_blocks() const { return valid_blocks_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  void reset_counters() { hits_ = misses_ = 0; }

  /// Tag/state consistency scan (src/check auditors): duplicate valid tags
  /// within a set, or occupancy counters that disagree with a recount.
  /// Returns a description of the first inconsistency, or nullopt when clean.
  [[nodiscard]] std::optional<std::string> consistency_error() const;

  /// FNV-1a digest of the full tag-store state (determinism auditing).
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint the tag store, replacement state, and counters into the
  /// current section; load() targets a freshly-constructed cache with the
  /// same configuration (docs/CHECKPOINT.md).
  void save(ckpt::StateWriter& w);
  void load(ckpt::StateReader& r);

 private:
  template <class IO>
  void visit_state(IO& io);

  struct Block {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    SourceId owner = SourceId::cpu(0);
    GpuAccessClass gclass = GpuAccessClass::None;
  };

  [[nodiscard]] std::uint64_t set_of(Addr addr) const;
  [[nodiscard]] Addr tag_of(Addr addr) const;
  [[nodiscard]] int find_way(std::uint64_t set, Addr tag) const;

  [[nodiscard]] Addr block_addr_of(Addr tag, std::uint64_t set) const {
    return ((tag << set_bits_) | set) << block_shift_;
  }

  CacheConfig cfg_;     // ckpt:skip: construction parameter
  std::string name_;    // ckpt:skip digest:skip: diagnostic label only
  std::uint64_t sets_;  // ckpt:skip: geometry, derived from cfg_
  // block_bytes and sets_ are verified powers of two in the constructor, so
  // the per-access set/tag extraction is pure shift/mask (set_of and tag_of
  // are on the LLC lookup path, several per simulated cycle).
  std::uint32_t block_shift_ = 0;  // ckpt:skip digest:skip: derived from cfg_
  std::uint32_t set_bits_ = 0;     // ckpt:skip digest:skip: derived from cfg_
  std::vector<Block> blocks_;  // sets_ * ways
  // SoA hot-lane mirror of blocks_: one packed (tag << 1) | valid word per
  // way, so find_way/fill scan a dense 8-byte lane instead of striding over
  // 24-byte Blocks. Maintained by every tag/valid mutation, rebuilt by
  // load(), and cross-checked against blocks_ by consistency_error().
  std::vector<Addr> way_tags_;  // ckpt:skip digest:skip: derived from blocks_
  std::unique_ptr<ReplacementPolicy> policy_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Occupancy tallies derived from blocks_; excluded from the digest since
  // every update is cross-checked against blocks_ by consistency_error().
  std::uint64_t gpu_blocks_ = 0;    // digest:skip: derived from blocks_
  std::uint64_t valid_blocks_ = 0;  // digest:skip: derived from blocks_
};

}  // namespace gpuqos
