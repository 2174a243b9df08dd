// Parallel sweep runner.
//
// Every experiment sweeps independent simulations (mixes × policies ×
// configs); each HeteroCmp owns its engine, RNG, and stat registry, so the
// runs are embarrassingly parallel. run_many() executes a batch of such jobs
// on a small thread pool and returns the results in job order, making a
// pooled sweep's output byte-identical to the serial one.
//
// Thread model: workers claim jobs from an atomic counter, so scheduling is
// nondeterministic but result placement (results[i] <- jobs[i]) is not. Log
// cycle sources/sinks are thread-local (common/log.hpp), so each worker's
// simulation stamps its own cycles. The first exception thrown by any job is
// rethrown on the caller's thread after the pool drains.
//
// Memory locality: result slots are cache-line aligned (two workers
// finishing adjacent jobs never write the same line), the job-claim counter
// and failure flag live on their own lines, and every job allocates on the
// worker thread that runs it — the allocator's per-thread arenas (glibc
// malloc) keep one job's engine/stat heap out of another's pages, which is
// what lets an 8-job sweep scale instead of serializing on a shared arena
// lock. bench/perf_sweep records the resulting scaling curve.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace gpuqos {

/// Worker count for a batch of `jobs`: GPUQOS_THREADS when set (0 means
/// "hardware concurrency"), else hardware concurrency; never more than the
/// job count, never less than 1.
[[nodiscard]] unsigned sweep_thread_count(std::size_t jobs);

/// Run independent jobs, at most `threads` at a time (0 = auto via
/// sweep_thread_count). results[i] always holds jobs[i]'s value. With one
/// thread (or one job) the jobs run inline on the caller's thread, in order —
/// the serial reference the tests compare the pool against.
template <typename R>
[[nodiscard]] std::vector<R> run_many(std::vector<std::function<R()>> jobs,
                                      unsigned threads = 0) {
  const std::size_t n = jobs.size();
  if (threads == 0) threads = sweep_thread_count(n);

  if (threads <= 1 || n <= 1) {
    std::vector<R> out;
    out.reserve(n);
    for (auto& job : jobs) out.push_back(job());
    return out;
  }

  // One cache line per result slot: adjacent std::optional<R> objects would
  // otherwise share lines, and two workers completing neighboring jobs would
  // ping-pong them for the whole emplace (R is typically a multi-hundred-byte
  // stats struct). The claim counter and failure flag get the same treatment
  // so job claiming never invalidates a result line.
  struct alignas(64) Slot {
    std::optional<R> value;
  };
  struct alignas(64) AlignedCounter {
    std::atomic<std::size_t> v{0};
  };
  struct alignas(64) AlignedFlag {
    std::atomic<bool> v{false};
  };
  std::vector<Slot> slots(n);
  AlignedCounter next;
  AlignedFlag failed;
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.v.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.v.load(std::memory_order_relaxed)) return;
      try {
        slots[i].value.emplace(jobs[i]());
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.v.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  if (error) std::rethrow_exception(error);
  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot.value));
  return out;
}

}  // namespace gpuqos
