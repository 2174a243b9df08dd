#include "cache/cache.hpp"

#include <bit>
#include <sstream>
#include <utility>

#include "check/check.hpp"
#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

SetAssocCache::SetAssocCache(const CacheConfig& cfg, std::string name)
    : cfg_(cfg),
      name_(std::move(name)),
      sets_(cfg.sets()),
      blocks_(sets_ * cfg.ways),
      way_tags_(sets_ * cfg.ways, 0),
      policy_(make_policy(cfg.srrip, sets_, cfg.ways)) {
  GPUQOS_CHECK(sets_ > 0 && std::has_single_bit(sets_),
               name_ << ": set count " << sets_ << " must be a power of two");
  GPUQOS_CHECK(std::has_single_bit(static_cast<std::uint64_t>(cfg.block_bytes)),
               name_ << ": block size " << cfg.block_bytes
                     << " must be a power of two");
  block_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(cfg.block_bytes)));
  set_bits_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
}

std::uint64_t SetAssocCache::set_of(Addr addr) const {
  return (addr >> block_shift_) & (sets_ - 1);
}

Addr SetAssocCache::tag_of(Addr addr) const {
  return addr >> (block_shift_ + set_bits_);
}

int SetAssocCache::find_way(std::uint64_t set, Addr tag) const {
  // Scan the packed (tag << 1) | valid lane: one dense 8-byte word per way.
  const Addr key = (tag << 1) | 1;
  const Addr* row = &way_tags_[set * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (row[w] == key) return static_cast<int>(w);
  }
  return -1;
}

bool SetAssocCache::lookup(Addr addr, bool write) {
  const std::uint64_t set = set_of(addr);
  const int way = find_way(set, tag_of(addr));
  if (way < 0) {
    ++misses_;
    return false;
  }
  ++hits_;
  policy_->on_hit(set, static_cast<unsigned>(way));
  if (write) blocks_[set * cfg_.ways + way].dirty = true;
  return true;
}

bool SetAssocCache::probe(Addr addr) const {
  return find_way(set_of(addr), tag_of(addr)) >= 0;
}

std::optional<Eviction> SetAssocCache::fill(Addr addr, SourceId owner,
                                            GpuAccessClass gclass, bool dirty) {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  Block* row = &blocks_[set * cfg_.ways];
  Addr* tag_row = &way_tags_[set * cfg_.ways];

  // One pass over the packed lane finds both a matching way (refill of a
  // block already present, e.g. a racing write-allocate: merge) and the
  // first invalid way.
  const Addr key = (tag << 1) | 1;
  int hit_way = -1;
  int way = -1;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    const Addr e = tag_row[w];
    if ((e & 1) != 0) {
      if (e == key) {
        hit_way = static_cast<int>(w);
        break;
      }
    } else if (way < 0) {
      way = static_cast<int>(w);
    }
  }
  if (hit_way >= 0) {
    Block& b = row[hit_way];
    b.dirty = b.dirty || dirty;
    policy_->on_hit(set, static_cast<unsigned>(hit_way));
    return std::nullopt;
  }

  std::optional<Eviction> evicted;
  if (way < 0) {
    way = static_cast<int>(policy_->victim(set));
    Block& v = row[way];
    evicted = Eviction{block_addr_of(v.tag, set), v.dirty, v.owner, v.gclass};
    if (v.owner.is_gpu()) --gpu_blocks_;
    --valid_blocks_;
  }

  Block& b = row[way];
  b = Block{tag, true, dirty, owner, gclass};
  tag_row[way] = key;
  ++valid_blocks_;
  if (owner.is_gpu()) ++gpu_blocks_;
  policy_->on_fill(set, static_cast<unsigned>(way));
  return evicted;
}

std::optional<Eviction> SetAssocCache::invalidate(Addr addr) {
  const std::uint64_t set = set_of(addr);
  const int way = find_way(set, tag_of(addr));
  if (way < 0) return std::nullopt;
  Block& b = blocks_[set * cfg_.ways + way];
  Eviction ev{block_base(addr), b.dirty, b.owner, b.gclass};
  if (b.owner.is_gpu()) --gpu_blocks_;
  --valid_blocks_;
  b.valid = false;
  b.dirty = false;
  way_tags_[set * cfg_.ways + static_cast<unsigned>(way)] = 0;
  return ev;
}

std::vector<Addr> SetAssocCache::drain_dirty() {
  std::vector<Addr> dirty;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Block& b = blocks_[set * cfg_.ways + w];
      if (b.valid && b.dirty) {
        dirty.push_back(block_addr_of(b.tag, set));
        b.dirty = false;
      }
    }
  }
  return dirty;
}

std::optional<Eviction> SetAssocCache::access(Addr addr, bool write,
                                              SourceId owner,
                                              GpuAccessClass gclass,
                                              bool& hit) {
  hit = lookup(addr, write);
  if (hit) return std::nullopt;
  return fill(addr, owner, gclass, write);
}

std::optional<std::string> SetAssocCache::consistency_error() const {
  std::uint64_t valid = 0;
  std::uint64_t gpu = 0;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    const Block* row = &blocks_[set * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      if (!row[w].valid) continue;
      ++valid;
      if (row[w].owner.is_gpu()) ++gpu;
      for (unsigned w2 = w + 1; w2 < cfg_.ways; ++w2) {
        if (row[w2].valid && row[w2].tag == row[w].tag) {
          std::ostringstream os;
          os << name_ << ": duplicate valid tag 0x" << std::hex << row[w].tag
             << std::dec << " in set " << set << " (ways " << w << " and "
             << w2 << ")";
          return os.str();
        }
      }
    }
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Addr expect =
        blocks_[i].valid ? (blocks_[i].tag << 1) | 1 : Addr{0};
    if (way_tags_[i] != expect) {
      std::ostringstream os;
      os << name_ << ": way-tag lane diverged from tag store at block " << i
         << " (lane 0x" << std::hex << way_tags_[i] << ", expected 0x"
         << expect << std::dec << ")";
      return os.str();
    }
  }
  if (valid != valid_blocks_ || gpu != gpu_blocks_) {
    std::ostringstream os;
    os << name_ << ": occupancy counters (valid " << valid_blocks_ << ", gpu "
       << gpu_blocks_ << ") disagree with recount (valid " << valid << ", gpu "
       << gpu << ")";
    return os.str();
  }
  return std::nullopt;
}

std::uint64_t SetAssocCache::digest() const {
  Fnv1a64 h;
  h.mix(sets_);
  h.mix(cfg_.ways);
  for (const Block& b : blocks_) {
    h.mix_bool(b.valid);
    if (!b.valid) continue;
    h.mix(b.tag);
    h.mix_bool(b.dirty);
    h.mix_bool(b.owner.is_gpu());
    h.mix_byte(b.owner.index);
    h.mix_byte(static_cast<std::uint8_t>(b.gclass));
  }
  h.mix(hits_);
  h.mix(misses_);
  h.mix(policy_->digest());
  return h.value();
}

template <class IO>
void SetAssocCache::visit_state(IO& io) {
  io.expect_size(blocks_.size(), name_ + ": tag-store block count");
  for (Block& b : blocks_) {
    io.u64(b.tag);
    io.boolean(b.valid);
    io.boolean(b.dirty);
    io.enum_u8(b.owner.kind);
    io.u8(b.owner.index);
    io.enum_u8(b.gclass);
  }
  io.u64(hits_);
  io.u64(misses_);
  io.u64(gpu_blocks_);
  io.u64(valid_blocks_);
  io.sub(*policy_);
}

void SetAssocCache::save(ckpt::StateWriter& w) { visit_state(w); }

void SetAssocCache::load(ckpt::StateReader& r) {
  visit_state(r);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    way_tags_[i] = blocks_[i].valid ? (blocks_[i].tag << 1) | 1 : Addr{0};
  }
}

}  // namespace gpuqos
