// DRAM scheduling policy interface.
//
// A channel exposes its read queue and bank state; the policy picks the entry
// to service next. All of the paper's scheduling baselines (FR-FCFS, SMS-p,
// DynPrio, FR-FCFS with boosted CPU priority) implement this interface, so
// they share the identical timing model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mem_request.hpp"
#include "common/types.hpp"
#include "dram/bank.hpp"

namespace gpuqos {

struct DramQueueEntry {
  MemRequest req;
  Cycle arrival = 0;
  std::uint64_t id = 0;  // stable identity across queue mutations
  unsigned bank = 0;
  std::uint64_t row = 0;
};

/// Structure-of-arrays DRAM queue.
///
/// The full entries (request payload, completion closure) live in an AoS
/// vector; the five fields every scheduler probes per entry per DRAM cycle —
/// id, bank, row, arrival, source class — are mirrored into dense parallel
/// lanes so the FR-FCFS scan streams packed words instead of striding over
/// ~150-byte entries. Lanes are maintained by push_back()/take()/pop_front()
/// and stay ordered by arrival (index 0 = oldest), matching the deque the
/// schedulers historically consumed.
class DramQueue {
 public:
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Full entry at index `i` (digest/audit walks; not the scan hot path).
  [[nodiscard]] const DramQueueEntry& operator[](std::size_t i) const {
    return entries_[i];
  }
  [[nodiscard]] const DramQueueEntry& front() const { return entries_.front(); }

  // Hot-lane accessors for scheduler pick loops.
  [[nodiscard]] std::uint64_t id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] unsigned bank(std::size_t i) const { return banks_[i]; }
  [[nodiscard]] std::uint64_t row(std::size_t i) const { return rows_[i]; }
  [[nodiscard]] Cycle arrival(std::size_t i) const { return arrivals_[i]; }
  [[nodiscard]] bool is_gpu(std::size_t i) const { return gpu_[i] != 0; }

  void push_back(DramQueueEntry&& e) {
    ids_.push_back(e.id);
    banks_.push_back(e.bank);
    rows_.push_back(e.row);
    arrivals_.push_back(e.arrival);
    gpu_.push_back(e.req.source.is_gpu() ? 1 : 0);
    entries_.push_back(std::move(e));
  }
  void push_back(const DramQueueEntry& e) { push_back(DramQueueEntry(e)); }

  /// Remove and return the entry at index `i`; later entries shift down, so
  /// both arrival order and id-sortedness (ids are assigned monotonically at
  /// enqueue) are preserved.
  DramQueueEntry take(std::size_t i) {
    DramQueueEntry out = std::move(entries_[i]);
    const auto at = static_cast<std::ptrdiff_t>(i);
    entries_.erase(entries_.begin() + at);
    ids_.erase(ids_.begin() + at);
    banks_.erase(banks_.begin() + at);
    rows_.erase(rows_.begin() + at);
    arrivals_.erase(arrivals_.begin() + at);
    gpu_.erase(gpu_.begin() + at);
    return out;
  }
  void pop_front() { (void)take(0); }
  /// Remove the entry with `id` if present.
  void erase_id(std::uint64_t id) {
    const std::ptrdiff_t i = index_of(id);
    if (i >= 0) (void)take(static_cast<std::size_t>(i));
  }

  /// Index of the entry with `id`, or -1. Ids are assigned in enqueue order
  /// and erases keep that order, so the id lane is normally sorted and the
  /// lookup binary-searches; a miss falls back to a linear scan so callers
  /// that build queues with arbitrary ids (tests) still resolve.
  [[nodiscard]] std::ptrdiff_t index_of(std::uint64_t id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it != ids_.end() && *it == id) return it - ids_.begin();
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  }

 private:
  std::vector<DramQueueEntry> entries_;  // AoS payload (request + closure)
  // Lanes: per-field mirrors of entries_, same index space.
  std::vector<std::uint64_t> ids_;
  std::vector<unsigned> banks_;
  std::vector<std::uint64_t> rows_;
  std::vector<Cycle> arrivals_;
  std::vector<std::uint8_t> gpu_;
};

/// Read-only view of per-bank state a policy may consult. Concrete and
/// inline on purpose: schedulers probe every queue entry on every DRAM
/// cycle, and an abstract interface here costs two virtual dispatches per
/// probe on the hottest loop in the memory system. Tests build arbitrary
/// bank states with Bank::for_test.
class BankView {
 public:
  explicit BankView(const std::vector<Bank>& banks)
      : banks_(banks.data()), count_(banks.size()) {}
  [[nodiscard]] bool is_row_hit(unsigned bank, std::uint64_t row) const {
    return banks_[bank].is_row_hit(row);
  }
  [[nodiscard]] Cycle bank_ready_at(unsigned bank) const {
    return banks_[bank].ready_at();
  }
  /// True when at least one bank can accept a command at `now`. Lets a
  /// policy whose every return path requires a ready bank (FR-FCFS and its
  /// filtered variants) skip the O(queue) scan with an O(banks) probe while
  /// every bank is mid-activate. Policies with per-pick internal state (SMS
  /// batch timeouts) must NOT use this to skip work.
  [[nodiscard]] bool any_ready(Cycle now) const {
    for (std::size_t b = 0; b < count_; ++b) {
      if (banks_[b].ready_at() <= now) return true;
    }
    return false;
  }

 private:
  const Bank* banks_;
  std::size_t count_;
};

class IDramScheduler {
 public:
  virtual ~IDramScheduler() = default;

  /// Called when a request enters the read queue (lets batching policies
  /// maintain internal structures).
  virtual void on_enqueue(const DramQueueEntry& entry) { (void)entry; }

  /// Pick the queue entry to service next; return its `id`, or -1 to idle.
  /// The queue is ordered by arrival (index 0 = oldest).
  [[nodiscard]] virtual std::int64_t pick(const DramQueue& queue,
                                          const BankView& banks,
                                          Cycle now) = 0;

  /// True when pick() has no side effects: it only reads the queue, the
  /// banks and the QoS signals. A DRAM channel skips a pure policy's picks
  /// while no queued request's bank is ready (dram/channel.hpp), so a policy
  /// whose pick() changes any state, checkpointed or not (SMS closes stale
  /// batches), must keep the default.
  [[nodiscard]] virtual bool pick_is_pure() const { return false; }

  /// Called when the chosen entry leaves the queue.
  virtual void on_issue(const DramQueueEntry& entry) { (void)entry; }

  /// Checkpoint hooks (docs/CHECKPOINT.md). Stateless policies (FR-FCFS and
  /// its filtered variants consult only the queue and QosSignals) keep the
  /// defaults; stateful ones (SMS: batching RNG + round-robin cursor)
  /// override all three. When has_ckpt_state() is false no section is
  /// written, which is what lets a warm snapshot taken under one policy be
  /// forked into a run under another.
  [[nodiscard]] virtual bool has_ckpt_state() const { return false; }
  virtual void save(ckpt::StateWriter& w) const { (void)w; }
  virtual void load(ckpt::StateReader& r) { (void)r; }
};

}  // namespace gpuqos
