#include "dram/channel.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "check/context.hpp"
#include "check/digest.hpp"
#include "common/units.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace gpuqos {

Channel::Channel(Engine& engine, const DramConfig& cfg, unsigned index,
                 StatRegistry& stats)
    : engine_(engine),
      cfg_(cfg),
      timing_(ScaledTiming::from(cfg.timing, kDramClockDivider)),
      index_(index),
      stats_(stats),
      banks_(cfg.banks_per_channel) {
  st_row_hits_ = stats_.counter_ptr("dram.row_hits");
  st_row_misses_ = stats_.counter_ptr("dram.row_misses");
  st_bytes_[0][0] = stats_.counter_ptr("dram.read_bytes.cpu");
  st_bytes_[0][1] = stats_.counter_ptr("dram.read_bytes.gpu");
  st_bytes_[1][0] = stats_.counter_ptr("dram.write_bytes.cpu");
  st_bytes_[1][1] = stats_.counter_ptr("dram.write_bytes.gpu");
  st_reads_ = stats_.counter_ptr("dram.reads");
  st_writes_ = stats_.counter_ptr("dram.writes");
  st_read_lat_ = stats_.counter_ptr("dram.read_latency_sum");
  st_read_lat_src_[0] = stats_.counter_ptr("dram.read_latency_sum.cpu");
  st_read_lat_src_[1] = stats_.counter_ptr("dram.read_latency_sum.gpu");
  st_reads_src_[0] = stats_.counter_ptr("dram.reads.cpu");
  st_reads_src_[1] = stats_.counter_ptr("dram.reads.gpu");
  // Per-channel activity counters: unconditional, so the stats digest is
  // identical with and without observability attached.
  const std::string ch = "dram.ch" + std::to_string(index_) + ".";
  st_act_ = stats_.counter_ptr(ch + "act");
  st_pre_ = stats_.counter_ptr(ch + "pre");
  st_rd_ = stats_.counter_ptr(ch + "rd");
  st_wr_ = stats_.counter_ptr(ch + "wr");
}

void Channel::enqueue(DramQueueEntry entry) {
  entry.id = next_id_++;
  entry.arrival = engine_.now();
  if (check_ != nullptr) {
    check_->on_inject(entry.req.is_write ? CheckContext::Flow::DramWrite
                                         : CheckContext::Flow::DramRead);
  }
  if (entry.req.is_write) {
    writes_.push_back(std::move(entry));
  } else {
    if (sched_) sched_->on_enqueue(entry);
    reads_.push_back(std::move(entry));
  }
  if (ticker_ != Engine::kNoTicker) engine_.wake(ticker_);
}

std::int64_t Channel::pick_write(Cycle now) const {
  // Both selectable cases (CAS, activate) need a ready bank; in drain mode
  // with every bank busy this skips a full-queue scan per DRAM cycle.
  if (!BankView(banks_).any_ready(now)) return -1;
  // Lane scan (dram/scheduler.hpp DramQueue): only bank/row words touched.
  std::ptrdiff_t act = -1;
  const std::size_t n = writes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Bank& b = banks_[writes_.bank(i)];
    if (b.is_row_hit(writes_.row(i))) {
      if (b.ready(now)) {
        // An issuable row hit always wins; nothing later can override.
        return static_cast<std::int64_t>(writes_.id(i));
      }
    } else if (b.ready(now) && act < 0) {
      act = static_cast<std::ptrdiff_t>(i);
    }
  }
  return act >= 0 ? static_cast<std::int64_t>(
                        writes_.id(static_cast<std::size_t>(act)))
                  : -1;
}

void Channel::tick() {
  SampledProfScope<16> prof(prof_, ProfModule::Dram, prof_decim_);
  const Cycle now = engine_.now();

  if (!draining_writes_ && writes_.size() >= cfg_.write_drain_high) {
    draining_writes_ = true;
  }
  if (draining_writes_ && writes_.size() <= cfg_.write_drain_low) {
    draining_writes_ = false;
  }

  const bool serve_writes =
      !writes_.empty() && (draining_writes_ || reads_.empty());
  auto& q = serve_writes ? writes_ : reads_;
  std::int64_t id = -1;
  if (serve_writes) {
    id = pick_write(now);
  } else if (!reads_.empty() && sched_ != nullptr) {
    id = sched_->pick(reads_, BankView(banks_), now);
  }
  if (id < 0) {
    park_idle(q, serve_writes || sched_ == nullptr || sched_->pick_is_pure());
    return;
  }

  // Ids are assigned in enqueue order and erases keep the order, so the id
  // lane stays sorted and index_of binary-searches.
  const std::ptrdiff_t idx = q.index_of(static_cast<std::uint64_t>(id));
  if (idx < 0) return;  // policy referenced a stale id
  const auto i = static_cast<std::size_t>(idx);
  Bank& bank = banks_[q.bank(i)];

  if (!bank.ready(now)) return;  // command slot busy (activate in flight)

  if (!bank.is_row_hit(q.row(i))) {
    // Bank-local precharge + activate; the request stays queued and other
    // banks keep streaming on the data bus meanwhile.
    ++*st_row_misses_;
    if (bank.row_open()) ++*st_pre_;  // implicit precharge before activate
    ++*st_act_;
    bank.begin_activate(q.row(i), now, timing_);
    return;
  }

  // Row hit and bank ready: issue the CAS unless the data bus is committed
  // too far ahead. The horizon (tCL + one burst) lets consecutive CAS
  // commands pipeline so bursts queue back-to-back on the bus while keeping
  // scheduling decisions reactive.
  if (bus_free_at_ > now + timing_.tCL + timing_.tBurst) return;
  ++*st_row_hits_;
  DramQueueEntry entry = q.take(i);
  if (!serve_writes && sched_ != nullptr) sched_->on_issue(entry);
  service_cas(std::move(entry), bank);
}

void Channel::park_idle(const DramQueue& q, bool pick_is_pure) {
  if (ticker_ == Engine::kNoTicker) return;
  if (reads_.empty() && writes_.empty()) {
    engine_.park(ticker_, kNoCycle);  // an empty tick never picks
    return;
  }
  // A tick issues only to a ready bank, so until a queued request's bank is
  // ready the ticks would only repeat the pick, which is skipped when pure.
  if (!pick_is_pure) return;
  Cycle until = kNoCycle;
  for (std::size_t i = 0; i < q.size(); ++i) {
    until = std::min(until, banks_[q.bank(i)].ready_at());
  }
  engine_.park(ticker_, until);
}

void Channel::service_cas(DramQueueEntry&& entry, Bank& bank) {
  const Cycle now = engine_.now();
  const bool write = entry.req.is_write;
  ++*(write ? st_wr_ : st_rd_);

  // Serialize data bursts on the channel bus.
  const Cycle earliest = std::max(now, bank.ready_at());
  const Cycle data_start =
      write ? std::max(earliest, bus_free_at_)
            : std::max(earliest + timing_.tCL, bus_free_at_);
  const Cycle cas_issue = write ? data_start : data_start - timing_.tCL;
  const Cycle done = bank.cas(write, cas_issue, timing_);
  bus_free_at_ = data_start + timing_.tBurst;

  const bool gpu = entry.req.source.is_gpu();
  if (telemetry_ != nullptr) {
    telemetry_->record_latency(
        LatStage::DramQueue, gpu,
        cas_issue >= entry.arrival ? cas_issue - entry.arrival : 0);
    telemetry_->record_latency(LatStage::DramService, gpu, done - cas_issue);
  }
  *st_bytes_[write][gpu] += 64;
  if (!write) {
    *st_read_lat_ += done - entry.arrival;
    *st_read_lat_src_[gpu] += done - entry.arrival;
    ++*st_reads_src_[gpu];
    ++*st_reads_;
  } else {
    ++*st_writes_;
  }

  ++in_service_;
  GPUQOS_CHECK(done >= now, "CAS completion " << done
                                              << " scheduled in the past (now "
                                              << now << ")");
  engine_.schedule(done - now,
                   [this, write, cb = std::move(entry.req.on_complete)]() {
                     --in_service_;
                     if (check_ != nullptr) {
                       check_->on_retire(write ? CheckContext::Flow::DramWrite
                                               : CheckContext::Flow::DramRead,
                                         engine_.now());
                     }
                     if (cb) cb(engine_.now());
                   });
}

ChannelAuditView Channel::audit_view(std::size_t read_bound,
                                     std::size_t write_bound,
                                     Cycle starvation_bound) const {
  ChannelAuditView v;
  v.index = index_;
  v.read_depth = reads_.size();
  v.write_depth = writes_.size();
  v.read_bound = read_bound;
  v.write_bound = write_bound;
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    const Cycle a = reads_.arrival(i);
    if (v.oldest_read_arrival == kNoCycle || a < v.oldest_read_arrival)
      v.oldest_read_arrival = a;
  }
  v.now = engine_.now();
  v.starvation_bound = starvation_bound;
  return v;
}

std::uint64_t Channel::digest() const {
  Fnv1a64 h;
  for (const Bank& b : banks_) b.mix_into(h);
  for (const auto* q : {&reads_, &writes_}) {
    h.mix(q->size());
    for (std::size_t i = 0; i < q->size(); ++i) {
      const DramQueueEntry& e = (*q)[i];
      h.mix(e.req.addr);
      h.mix_bool(e.req.is_write);
      h.mix_bool(e.req.source.is_gpu());
      h.mix_byte(e.req.source.index);
      h.mix(e.arrival);
      h.mix(e.id);
      h.mix(e.bank);
      h.mix(e.row);
    }
  }
  h.mix(bus_free_at_);
  h.mix_bool(draining_writes_);
  h.mix(next_id_);
  h.mix(in_service_);
  return h.value();
}

void Channel::save(ckpt::StateWriter& w) const {
  if (!idle()) {
    throw ckpt::CkptError(
        "dram channel save() with requests in flight: the simulation was not "
        "drained before checkpointing");
  }
  w.u64(banks_.size());
  for (const Bank& b : banks_) b.save(w);
  w.u64(bus_free_at_);
  w.boolean(draining_writes_);
  w.u64(next_id_);
}

void Channel::load(ckpt::StateReader& r) {
  if (!idle()) r.fail("dram channel load() target has requests in flight");
  const std::uint64_t n = r.u64();
  if (n != banks_.size()) r.fail("bank count mismatch");
  for (Bank& b : banks_) b.load(r);
  bus_free_at_ = r.u64();
  draining_writes_ = r.boolean();
  next_id_ = r.u64();
}

}  // namespace gpuqos
