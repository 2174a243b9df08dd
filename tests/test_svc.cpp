// Simulation-service tests (docs/SERVICE.md): job canonicalization and its
// dedup keys, the CRC-guarded result container, the persistent result store,
// the warm checkpoint cache, and the batch executor's canonical-execution
// guarantee (cold run == warm fork == store hit, byte for byte).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.hpp"
#include "sim/runner.hpp"
#include "svc/exec.hpp"
#include "svc/jobspec.hpp"
#include "svc/result_io.hpp"
#include "svc/store.hpp"
#include "svc/warm_cache.hpp"

namespace gpuqos::svc {
namespace {

RunScale tiny_scale() {
  RunScale s;
  s.warm_instrs = 20'000;
  s.measure_instrs = 60'000;
  s.warm_frames = 1;
  s.measure_frames = 1;
  s.warm_min_cycles = 300'000;
  s.max_cycles = 60'000'000;
  return s;
}

JobSpec tiny_hetero(const std::string& mix_id, const std::string& policy) {
  JobSpec spec = hetero_job(mix_id, policy, tiny_scale());
  return spec;
}

JobSpec tiny_cpu_alone(int spec_id) {
  JobSpec spec;
  spec.kind = JobKind::kCpuAlone;
  spec.spec_id = spec_id;
  spec.scale = tiny_scale();
  return spec;
}

/// Fabricated result for the container/store tests — no simulation needed.
HeteroResult fake_result() {
  HeteroResult r;
  r.mix_id = "M1";
  r.policy = Policy::DynPrio;
  r.spec_ids = {403, 450};
  r.cpu_ipc = {1.25, 0.75};
  r.fps = 42.5;
  r.gpu_frame_cycles = 123456.0;
  r.seconds = 0.125;
  r.hit_cycle_cap = false;
  r.est_error_pct = -3.5;
  r.est_samples = 17;
  r.est_relearns = 2;
  r.stat_delta = {{"llc.miss", 1234}, {"mc.reads", 5678}};
  return r;
}

struct TempDir {
  TempDir()
      : path((std::filesystem::temp_directory_path() /
              ("gpuqos_svc_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter++)))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  static int counter;
  std::string path;
};
int TempDir::counter = 0;

// ---------------------------------------------------------------------------
// Job canonicalization (the dedup identity).

TEST(SvcJobSpec, CanonicalFormIsStable) {
  // Pinned rendering: this string is the persistent content address — if it
  // changes, every existing result store silently cold-runs. Extend the spec
  // by appending fields, never by reshaping these.
  const JobSpec spec = tiny_hetero("M8", "DynPrio");
  EXPECT_EQ(canonical(spec),
            "v1;kind=hetero;preset=scaled;mix=M8;policy=DynPrio;seed=42;"
            "tfps=40;wi=20000;mi=60000;wf=1;mf=1;wmc=300000;cap=60000000");
  EXPECT_EQ(warm_canonical(spec),
            "warm;v1;kind=hetero;preset=scaled;mix=M8;seed=42;"
            "tfps=40;wi=20000;mi=60000;wf=1;mf=1;wmc=300000;cap=60000000");
}

TEST(SvcJobSpec, PoliciesShareWarmKeyButNotJobKey) {
  const JobSpec a = tiny_hetero("M8", "Baseline");
  const JobSpec b = tiny_hetero("M8", "DynPrio");
  EXPECT_EQ(warm_canonical(a), warm_canonical(b));
  EXPECT_NE(job_key(a), job_key(b));
  EXPECT_EQ(job_key_hex(a).size(), 16u);
  EXPECT_EQ(job_key_hex(a), u64_hex(job_key(a)));
  EXPECT_EQ(u64_hex(0xDEADBEEFull), "00000000deadbeef");
}

TEST(SvcJobSpec, ValidateRejectsUnknownNames) {
  EXPECT_NO_THROW(validate(tiny_hetero("M8", "DynPrio")));
  EXPECT_THROW(validate(tiny_hetero("M99", "DynPrio")), SpecError);
  EXPECT_THROW(validate(tiny_hetero("M8", "Turbo")), SpecError);
  EXPECT_THROW(validate(tiny_cpu_alone(999)), SpecError);

  JobSpec bad_preset = tiny_hetero("M8", "DynPrio");
  bad_preset.preset = "huge";
  EXPECT_THROW(validate(bad_preset), SpecError);

  JobSpec hang = tiny_hetero("M8", "DynPrio");
  hang.scale.max_cycles = 0;
  EXPECT_THROW(validate(hang), SpecError);

  JobSpec app = tiny_cpu_alone(403);
  app.kind = JobKind::kGpuAlone;
  app.gpu_app = "Pong";
  EXPECT_THROW(validate(app), SpecError);
}

TEST(SvcJobSpec, ConfigForAppliesCoreConventions) {
  JobSpec alone = tiny_cpu_alone(481);
  alone.seed = 7;
  alone.target_fps = 30.0;
  const SimConfig cfg = config_for(alone);
  EXPECT_EQ(cfg.cpu_cores, 1u);  // standalone CPU IPC is the one-core number
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.qos.target_fps, 30.0);

  // W-mixes are the Section II one-core setup; M-mixes keep the preset CMP.
  EXPECT_EQ(config_for(tiny_hetero("W1", "Baseline")).cpu_cores, 1u);
  EXPECT_EQ(config_for(tiny_hetero("M1", "Baseline")).cpu_cores,
            Presets::scaled().cpu_cores);
}

// ---------------------------------------------------------------------------
// Result container.

TEST(SvcResultIo, EncodeDecodeRoundTripsEveryField) {
  const JobSpec spec = tiny_hetero("M1", "DynPrio");
  const HeteroResult r = fake_result();
  const std::vector<std::uint8_t> bytes = encode_result(spec, r);
  EXPECT_EQ(bytes, encode_result(spec, r)) << "encode must be deterministic";

  const HeteroResult back = decode_result(spec, bytes);
  EXPECT_EQ(back.mix_id, r.mix_id);
  EXPECT_EQ(back.policy, r.policy);
  EXPECT_EQ(back.spec_ids, r.spec_ids);
  EXPECT_EQ(back.cpu_ipc, r.cpu_ipc);
  EXPECT_EQ(back.fps, r.fps);
  EXPECT_EQ(back.gpu_frame_cycles, r.gpu_frame_cycles);
  EXPECT_EQ(back.seconds, r.seconds);
  EXPECT_EQ(back.hit_cycle_cap, r.hit_cycle_cap);
  EXPECT_EQ(back.est_error_pct, r.est_error_pct);
  EXPECT_EQ(back.est_samples, r.est_samples);
  EXPECT_EQ(back.est_relearns, r.est_relearns);
  EXPECT_EQ(back.stat_delta, r.stat_delta);
}

TEST(SvcResultIo, CorruptionAndWrongSpecAreRejected) {
  const JobSpec spec = tiny_hetero("M1", "DynPrio");
  std::vector<std::uint8_t> bytes = encode_result(spec, fake_result());

  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_THROW((void)decode_result(spec, flipped), ckpt::CkptError);
  EXPECT_NE(result_digest(flipped), result_digest(bytes));

  // Intact bytes requested for a different job: the canonical binding in
  // the "svc.job" section must refuse (an FNV collision can never serve the
  // wrong job's numbers).
  EXPECT_THROW((void)decode_result(tiny_hetero("M1", "Baseline"), bytes),
               ckpt::CkptError);
}

TEST(SvcResultIo, CountsPastTheSectionEndAreRejected) {
  // CRC-valid containers whose element count claims more entries than the
  // section has bytes left: the decoder must refuse with the count's own
  // CkptError before it sizes a vector from the count (a forged count would
  // otherwise reach reserve() and throw bad_alloc / length_error instead).
  const JobSpec spec = tiny_hetero("M1", "DynPrio");
  const std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const char* const kCounts[] = {"spec_ids", "cpu_ipc", "stat_delta"};
  for (int bad = 0; bad < 3; ++bad) {
    SCOPED_TRACE(kCounts[bad]);
    ckpt::StateWriter w;
    w.begin_section("svc.job");
    w.u32(kResultFormat);
    w.str(canonical(spec));
    w.end_section();
    w.begin_section("svc.result");
    w.str("M1");
    w.str(to_string(Policy::DynPrio));
    w.u64(bad == 0 ? kHuge : 0);  // spec_ids count
    if (bad >= 1) w.u64(bad == 1 ? kHuge : 0);  // cpu_ipc count
    if (bad == 2) {
      w.f64(42.5);       // fps
      w.f64(1000.0);     // gpu_frame_cycles
      w.f64(0.125);      // seconds
      w.boolean(false);  // hit_cycle_cap
      w.f64(-3.5);       // est_error_pct
      w.u64(17);         // est_samples
      w.u64(2);          // est_relearns
      w.u64(kHuge);      // stat_delta count
    }
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    try {
      (void)decode_result(spec, bytes);
      ADD_FAILURE() << "forged count decoded";
    } catch (const ckpt::CkptError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(kCounts[bad]) +
                                           " overrun"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Persistent result store.

TEST(SvcStore, PutGetRoundTripAndCounters) {
  TempDir dir;
  ResultStore store(dir.path);
  ASSERT_TRUE(store.enabled());
  const JobSpec spec = tiny_hetero("M1", "DynPrio");
  const std::vector<std::uint8_t> bytes = encode_result(spec, fake_result());

  EXPECT_FALSE(store.get(spec).has_value());
  EXPECT_EQ(store.misses(), 1u);

  store.put(spec, bytes);
  const auto got = store.get(spec);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
  EXPECT_EQ(store.hits(), 1u);

  // A second store over the same directory sees the same entry.
  ResultStore reopened(dir.path);
  EXPECT_TRUE(reopened.get(spec).has_value());
}

TEST(SvcStore, CorruptFileBehavesAsMiss) {
  TempDir dir;
  ResultStore store(dir.path);
  const JobSpec spec = tiny_hetero("M1", "DynPrio");
  store.put(spec, encode_result(spec, fake_result()));

  std::ofstream(dir.path + "/" + job_key_hex(spec) + ".gqr",
                std::ios::binary | std::ios::trunc)
      << "garbage, not a container";
  EXPECT_FALSE(store.get(spec).has_value());
  EXPECT_EQ(store.rejects(), 1u);
}

TEST(SvcStore, StoresSharingADirectoryPutConcurrently) {
  // Two stores on one directory stand in for two processes sharing a store.
  // Each round releases both writers together, so their puts overlap.
  TempDir dir;
  ResultStore store_a(dir.path);
  ResultStore store_b(dir.path);
  const JobSpec spec_a = tiny_hetero("M1", "DynPrio");
  const JobSpec spec_b = tiny_hetero("M1", "Throttle");
  const std::vector<std::uint8_t> bytes_a =
      encode_result(spec_a, fake_result());
  const std::vector<std::uint8_t> bytes_b =
      encode_result(spec_b, fake_result());
  constexpr int kRounds = 200;
  std::atomic<int> arrived{0};
  std::atomic<int> failures{0};
  auto writer = [&](ResultStore& store, const JobSpec& spec,
                    const std::vector<std::uint8_t>& bytes) {
    for (int round = 1; round <= kRounds; ++round) {
      arrived.fetch_add(1);
      while (arrived.load() < 2 * round) std::this_thread::yield();
      try {
        store.put(spec, bytes);
      } catch (const std::exception&) {
        ++failures;
      }
    }
  };
  std::thread ta(writer, std::ref(store_a), std::cref(spec_a),
                 std::cref(bytes_a));
  std::thread tb(writer, std::ref(store_b), std::cref(spec_b),
                 std::cref(bytes_b));
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);

  // Each store sees both jobs, intact.
  const auto got_a = store_b.get(spec_a);
  const auto got_b = store_a.get(spec_b);
  ASSERT_TRUE(got_a.has_value());
  ASSERT_TRUE(got_b.has_value());
  EXPECT_EQ(*got_a, bytes_a);
  EXPECT_EQ(*got_b, bytes_b);
  EXPECT_EQ(store_a.rejects() + store_b.rejects(), 0u);
}

TEST(SvcStore, EmptyDirDisablesPersistence) {
  ResultStore store("");
  EXPECT_FALSE(store.enabled());
  const JobSpec spec = tiny_hetero("M1", "DynPrio");
  store.put(spec, encode_result(spec, fake_result()));  // dropped
  EXPECT_FALSE(store.get(spec).has_value());
}

// ---------------------------------------------------------------------------
// Warm checkpoint cache.

TEST(SvcWarmCache, SecondLookupHitsWithoutRebuilding) {
  WarmCache cache(0);
  int builds = 0;
  auto build = [&builds] {
    ++builds;
    return std::vector<std::uint8_t>(64, 0xAA);
  };
  const auto a = cache.get_or_build("k", build);
  const auto b = cache.get_or_build("k", build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.get(), b.get()) << "hit must share the snapshot";
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 64u);
}

TEST(SvcWarmCache, EvictsLeastRecentlyUsedToFit) {
  WarmCache cache(200);
  auto snap = [](std::uint8_t fill) {
    return [fill] { return std::vector<std::uint8_t>(80, fill); };
  };
  (void)cache.get_or_build("a", snap(1));
  (void)cache.get_or_build("b", snap(2));
  (void)cache.get_or_build("a", snap(1));  // touch: b becomes LRU
  (void)cache.get_or_build("c", snap(3));  // 240 > 200: evict b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 160u);

  const std::uint64_t hits_before = cache.hits();
  (void)cache.get_or_build("a", snap(1));
  EXPECT_EQ(cache.hits(), hits_before + 1) << "a must have survived";
  (void)cache.get_or_build("b", snap(2));
  EXPECT_EQ(cache.misses(), 4u) << "b was evicted and rebuilt";
}

TEST(SvcWarmCache, BuilderFailureClearsTheKeyForRetry) {
  WarmCache cache(0);
  auto boom = []() -> std::vector<std::uint8_t> {
    throw std::runtime_error("warm-up failed");
  };
  EXPECT_THROW((void)cache.get_or_build("k", boom), std::runtime_error);
  const auto ok = cache.get_or_build(
      "k", [] { return std::vector<std::uint8_t>(8, 1); });
  EXPECT_EQ(ok->size(), 8u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SvcWarmCache, ConcurrentCallersJoinTheBuilder) {
  WarmCache cache(0);
  std::atomic<int> builds{0};
  auto build = [&builds] {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return std::vector<std::uint8_t>(16, 7);
  };
  std::shared_ptr<const std::vector<std::uint8_t>> got[2];
  std::thread t0([&] { got[0] = cache.get_or_build("k", build); });
  std::thread t1([&] { got[1] = cache.get_or_build("k", build); });
  t0.join();
  t1.join();
  EXPECT_EQ(builds.load(), 1) << "one builder, one joiner";
  EXPECT_EQ(got[0].get(), got[1].get());
  EXPECT_EQ(cache.misses() + cache.joins() + cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ---------------------------------------------------------------------------
// Batch executor: the canonical-execution guarantee.

TEST(SvcExecutor, WarmForkIsByteIdenticalToColdRun) {
  ExecOptions serial;
  serial.threads = 1;

  // One batch, two policies of the same mix: the first warms and forks, the
  // second forks from the cached warm snapshot.
  Executor batch_exec(serial);
  BatchStats stats;
  const std::vector<JobResult> batch = batch_exec.run_batch(
      {tiny_hetero("W1", "Baseline"), tiny_hetero("W1", "DynPrio")}, {},
      &stats);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.cold_runs, 1u);
  EXPECT_EQ(stats.warm_forks, 1u);
  EXPECT_EQ(batch[0].source, JobSource::kCold);
  EXPECT_EQ(batch[1].source, JobSource::kWarmFork);

  // A fresh executor running only the forked policy pays the full warm-up —
  // and must still produce the identical container.
  Executor fresh(serial);
  const std::vector<JobResult> cold =
      fresh.run_batch({tiny_hetero("W1", "DynPrio")});
  EXPECT_EQ(cold[0].source, JobSource::kCold);
  EXPECT_EQ(cold[0].bytes, batch[1].bytes);
  EXPECT_EQ(cold[0].digest, batch[1].digest);
}

TEST(SvcExecutor, StoreResubmissionIsAPureReplay) {
  TempDir dir;
  ExecOptions opts;
  opts.threads = 1;
  opts.store_dir = dir.path;

  Executor first(opts);
  const std::vector<JobResult> cold =
      first.run_batch({tiny_hetero("W1", "Baseline")});
  EXPECT_EQ(cold[0].source, JobSource::kCold);

  // New executor, same store (a restarted sweep): zero simulation.
  Executor second(opts);
  BatchStats stats;
  const std::vector<JobResult> replay =
      second.run_batch({tiny_hetero("W1", "Baseline")}, {}, &stats);
  EXPECT_EQ(replay[0].source, JobSource::kStore);
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(second.sim_runs(), 0u);
  EXPECT_EQ(replay[0].bytes, cold[0].bytes);
}

TEST(SvcExecutor, InBatchDuplicatesRunOnceAndProgressStaysOrdered) {
  ExecOptions serial;
  serial.threads = 1;
  Executor exec(serial);

  std::vector<std::pair<std::size_t, std::size_t>> seen;
  BatchStats stats;
  const std::vector<JobResult> out = exec.run_batch(
      {tiny_cpu_alone(481), tiny_cpu_alone(481)},
      [&seen](std::size_t done, std::size_t total, const JobResult&) {
        seen.emplace_back(done, total);
      },
      &stats);
  EXPECT_EQ(stats.dup_jobs, 1u);
  EXPECT_EQ(exec.sim_runs(), 1u);
  EXPECT_EQ(out[0].bytes, out[1].bytes);
  EXPECT_EQ(seen, (std::vector<std::pair<std::size_t, std::size_t>>{{1, 2},
                                                                    {2, 2}}));

  // Standalone CPU results carry the one-core IPC in the hetero envelope.
  ASSERT_EQ(out[0].result.cpu_ipc.size(), 1u);
  EXPECT_GT(out[0].result.cpu_ipc[0], 0.0);
  EXPECT_EQ(out[0].result.spec_ids, std::vector<int>{481});
}

TEST(SvcExecutor, RunBatchValidatesEverySpecBeforeRunning) {
  ExecOptions serial;
  serial.threads = 1;
  Executor exec(serial);

  // Presets are lower-case; "Paper" must not fall back to the scaled preset
  // and be stored under a key that names a preset it never ran.
  JobSpec bad_preset = tiny_cpu_alone(403);
  bad_preset.preset = "Paper";
  EXPECT_THROW((void)exec.run_batch({tiny_cpu_alone(481), bad_preset}),
               SpecError);
  EXPECT_THROW((void)exec.run_batch({tiny_hetero("M99", "DynPrio")}),
               SpecError);
  EXPECT_EQ(exec.sim_runs(), 0u) << "no job of an invalid batch may run";
}

}  // namespace
}  // namespace gpuqos::svc
