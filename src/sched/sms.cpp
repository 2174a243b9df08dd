#include "sched/sms.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

namespace gpuqos {

unsigned SmsScheduler::source_index(const SourceId& s) {
  return s.is_gpu() ? kMaxSources - 1
                    : std::min<unsigned>(s.index, kMaxSources - 2);
}

void SmsScheduler::on_enqueue(const DramQueueEntry& entry) {
  SourceState& st = sources_[source_index(entry.req.source)];
  const bool need_new =
      st.batches.empty() || st.batches.back().closed ||
      st.batches.back().last_row != entry.row ||
      st.batches.back().ids.size() >= params_.batch_cap;
  if (need_new) {
    if (!st.batches.empty() && !st.batches.back().closed) {
      st.batches.back().closed = true;
    }
    Batch b;
    b.last_row = entry.row;
    b.opened_at = entry.arrival;
    st.batches.push_back(std::move(b));
  }
  st.batches.back().ids.push_back(entry.id);
}

void SmsScheduler::close_stale_batches(Cycle now) {
  for (auto& st : sources_) {
    if (!st.batches.empty() && !st.batches.back().closed &&
        now - st.batches.back().opened_at > params_.batch_timeout) {
      st.batches.back().closed = true;
    }
  }
}

std::int64_t SmsScheduler::pick(const DramQueue& queue, const BankView& banks,
                                Cycle now) {
  if (queue.empty()) return -1;
  close_stale_batches(now);

  auto head_id = [&](unsigned s) -> std::int64_t {
    const auto& b = sources_[s].batches;
    if (b.empty() || !b.front().closed || b.front().ids.empty()) return -1;
    return static_cast<std::int64_t>(b.front().ids.front());
  };
  // Queue index of source s's head, or -1 (no closed batch / stale id).
  auto head_index = [&](unsigned s) -> std::ptrdiff_t {
    const std::int64_t id = head_id(s);
    if (id < 0) return -1;
    return queue.index_of(static_cast<std::uint64_t>(id));
  };

  // Classify every source head: a CAS-ready head (open row, free bank) must
  // always win over opening a new row, otherwise two same-bank batches
  // livelock by destroying each other's activates before the CAS issues.
  std::vector<unsigned> cas_ready;
  std::vector<unsigned> act_ready;
  for (unsigned s = 0; s < kMaxSources; ++s) {
    const std::ptrdiff_t idx = head_index(s);
    if (idx < 0) {
      if (current_source_ == static_cast<int>(s)) current_source_ = -1;
      continue;
    }
    const auto i = static_cast<std::size_t>(idx);
    const unsigned bank = queue.bank(i);
    if (banks.bank_ready_at(bank) > now) continue;  // bank busy
    if (banks.is_row_hit(bank, queue.row(i))) {
      cas_ready.push_back(s);
    } else {
      act_ready.push_back(s);
    }
  }

  auto choose = [&](const std::vector<unsigned>& from) -> unsigned {
    // Prefer continuing the batch currently being served.
    for (unsigned s : from) {
      if (current_source_ == static_cast<int>(s)) return s;
    }
    if (rng_.bernoulli(params_.shortest_first_prob)) {
      unsigned best = from.front();
      for (unsigned s : from) {
        if (sources_[s].batches.front().ids.size() <
            sources_[best].batches.front().ids.size()) {
          best = s;
        }
      }
      return best;
    }
    for (unsigned off = 0; off < kMaxSources; ++off) {
      const unsigned s = (rr_pointer_ + off) % kMaxSources;
      if (std::find(from.begin(), from.end(), s) != from.end()) {
        rr_pointer_ = (s + 1) % kMaxSources;
        return s;
      }
    }
    return from.front();
  };

  if (!cas_ready.empty()) {
    const unsigned chosen = choose(cas_ready);
    current_source_ = static_cast<int>(chosen);
    return head_id(chosen);
  }
  if (!act_ready.empty()) {
    const unsigned chosen = choose(act_ready);
    current_source_ = static_cast<int>(chosen);
    return head_id(chosen);
  }
  return -1;  // batches forming or every candidate bank busy
}

void SmsScheduler::on_issue(const DramQueueEntry& entry) {
  // The issued request is the head of exactly one source's front batch.
  for (unsigned s = 0; s < kMaxSources; ++s) {
    SourceState& st = sources_[s];
    if (st.batches.empty() || st.batches.front().ids.empty()) continue;
    if (st.batches.front().ids.front() != entry.id) continue;
    st.batches.front().ids.pop_front();
    if (st.batches.front().ids.empty()) {
      st.batches.pop_front();
      if (current_source_ == static_cast<int>(s)) current_source_ = -1;
    }
    return;
  }
}

template <class IO>
void SmsScheduler::visit_state(IO& io) {
  for (const SourceState& st : sources_) {
    io.require(st.batches.empty(),
               "SMS has batches still forming: the simulation was not "
               "drained before checkpointing");
  }
  io.sub(rng_);
  std::int64_t src = current_source_;
  io.i64(src);
  if (src < -1 || src > std::numeric_limits<int>::max()) {
    io.fail("sms: current_source " + std::to_string(src) + " out of range");
  }
  current_source_ = static_cast<int>(src);
  io.u32(rr_pointer_);
}

void SmsScheduler::save(ckpt::StateWriter& w) { visit_state(w); }
void SmsScheduler::load(ckpt::StateReader& r) { visit_state(r); }

}  // namespace gpuqos
