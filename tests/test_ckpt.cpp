// Checkpoint/restore subsystem tests (docs/CHECKPOINT.md): the byte format
// (round-trip, forward-compatible skip, corruption rejection), the meta
// compatibility check, whole-CMP save -> load -> digest equality, warm-state
// forking, and the deprecated runner overloads.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/context.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_io.hpp"
#include "sim/runner.hpp"
#include "workloads/gpu_apps.hpp"
#include "workloads/spec.hpp"

namespace gpuqos {
namespace {

using ckpt::CkptError;
using ckpt::RestoreMode;
using ckpt::SnapshotMeta;
using ckpt::StateReader;
using ckpt::StateWriter;

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

// ---------------------------------------------------------------------------
// Byte format.

TEST(StateIo, PrimitivesRoundTrip) {
  StateWriter w;
  w.begin_section("prims");
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello snapshot");
  const std::uint8_t raw[4] = {1, 2, 3, 4};
  w.bytes(raw, sizeof raw);
  w.end_section();

  StateReader r(w.finish());
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.tag(), "prims");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello snapshot");
  std::uint8_t back[4] = {};
  r.bytes(back, sizeof back);
  EXPECT_EQ(back[0], 1);
  EXPECT_EQ(back[3], 4);
  EXPECT_NO_THROW(r.expect_section_end());
  EXPECT_FALSE(r.next_section());
}

TEST(StateIo, UnknownSectionsAreSkipped) {
  StateWriter w;
  w.begin_section("known");
  w.u64(7);
  w.end_section();
  w.begin_section("from_the_future");
  w.str("payload an old reader has never heard of");
  w.u64(99);
  w.end_section();
  w.begin_section("also_known");
  w.u64(8);
  w.end_section();

  StateReader r(w.finish());
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.tag(), "known");
  EXPECT_EQ(r.u64(), 7u);
  // The reader never touches the unknown payload; next_section() steps over
  // whatever is left of the current section.
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.tag(), "from_the_future");
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.tag(), "also_known");
  EXPECT_EQ(r.u64(), 8u);
  EXPECT_FALSE(r.next_section());
}

TEST(StateIo, TruncatedSnapshotIsRejected) {
  StateWriter w;
  w.begin_section("mod");
  for (int i = 0; i < 64; ++i) w.u64(static_cast<std::uint64_t>(i));
  w.end_section();
  std::vector<std::uint8_t> data = w.finish();

  // Chop mid-payload: framing claims more bytes than remain.
  std::vector<std::uint8_t> cut(data.begin(), data.begin() + data.size() / 2);
  StateReader r(std::move(cut));
  EXPECT_THROW((void)r.next_section(), CkptError);
}

TEST(StateIo, HeaderTooShortIsRejected) {
  EXPECT_THROW(StateReader(std::vector<std::uint8_t>{1, 2, 3}), CkptError);
}

TEST(StateIo, BadMagicIsRejected) {
  StateWriter w;
  w.begin_section("mod");
  w.u64(1);
  w.end_section();
  std::vector<std::uint8_t> data = w.finish();
  data[0] ^= 0xFF;
  EXPECT_THROW(StateReader{std::move(data)}, CkptError);
}

TEST(StateIo, BitFlipFailsCrc) {
  StateWriter w;
  w.begin_section("mod");
  for (int i = 0; i < 32; ++i) w.u64(0x1111'2222'3333'4444ull);
  w.end_section();
  std::vector<std::uint8_t> data = w.finish();
  data[data.size() - 10] ^= 0x01;  // flip one payload bit

  StateReader r(std::move(data));
  try {
    (void)r.next_section();
    FAIL() << "corrupt section was accepted";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << "error should name the CRC failure: " << e.what();
  }
}

TEST(StateIo, OverreadWithinSectionIsRejected) {
  StateWriter w;
  w.begin_section("mod");
  w.u32(5);
  w.end_section();
  StateReader r(w.finish());
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_THROW((void)r.u64(), CkptError);  // past the section payload
}

TEST(StateIo, UnconsumedBytesFailExpectSectionEnd) {
  StateWriter w;
  w.begin_section("mod");
  w.u64(1);
  w.u64(2);
  w.end_section();
  StateReader r(w.finish());
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.u64(), 1u);
  EXPECT_THROW(r.expect_section_end(), CkptError);
}

TEST(StateIo, FileRoundTripAndMissingFile) {
  StateWriter w;
  w.begin_section("mod");
  w.str("on disk");
  w.end_section();
  const std::string path =
      (std::filesystem::temp_directory_path() / "gpuqos_ckpt_io_test.snap")
          .string();
  ckpt::write_snapshot_file(path, w.finish());
  StateReader r(ckpt::read_snapshot_file(path));
  ASSERT_TRUE(r.next_section());
  EXPECT_EQ(r.str(), "on disk");
  std::filesystem::remove(path);
  EXPECT_THROW((void)ckpt::read_snapshot_file(path), CkptError);
}

// ---------------------------------------------------------------------------
// Meta validation.

SnapshotMeta test_meta() {
  SnapshotMeta m;
  m.mix_id = "M8";
  m.policy = "ThrotCPUprio";
  m.seed = 1234;
  m.cpu_cores = 4;
  m.fps_scale = 2.0;
  m.cfg_digest = 0xABCDEF;
  m.warm_instrs = 100;
  m.measure_instrs = 200;
  m.warm_frames = 3;
  m.measure_frames = 4;
  m.warm_min_cycles = 500;
  m.max_cycles = 600;
  return m;
}

TEST(SnapshotMetaTest, RoundTripsThroughItsSection) {
  StateWriter w;
  ckpt::save_meta(w, test_meta());
  StateReader r(w.finish());
  ASSERT_TRUE(r.next_section());
  const SnapshotMeta back = ckpt::load_meta(r);
  EXPECT_EQ(back.mix_id, "M8");
  EXPECT_EQ(back.policy, "ThrotCPUprio");
  EXPECT_EQ(back.seed, 1234u);
  EXPECT_EQ(back.cpu_cores, 4u);
  EXPECT_EQ(back.fps_scale, 2.0);
  EXPECT_EQ(back.cfg_digest, 0xABCDEFu);
  EXPECT_EQ(back.max_cycles, 600u);
}

TEST(SnapshotMetaTest, ResumeRequiresExactMatchForkExemptsPolicy) {
  const SnapshotMeta snap = test_meta();
  SnapshotMeta live = test_meta();
  EXPECT_NO_THROW(ckpt::validate_meta(snap, live, RestoreMode::kResume));

  live.policy = "Baseline";
  EXPECT_THROW(ckpt::validate_meta(snap, live, RestoreMode::kResume),
               CkptError);
  EXPECT_NO_THROW(ckpt::validate_meta(snap, live, RestoreMode::kFork));

  live = test_meta();
  live.seed = 9999;
  EXPECT_THROW(ckpt::validate_meta(snap, live, RestoreMode::kResume),
               CkptError);
  EXPECT_THROW(ckpt::validate_meta(snap, live, RestoreMode::kFork), CkptError);

  live = test_meta();
  live.cfg_digest ^= 1;
  EXPECT_THROW(ckpt::validate_meta(snap, live, RestoreMode::kFork), CkptError);
}

TEST(SnapshotMetaTest, ConfigDigestSeesConfigChanges) {
  SimConfig a = Presets::scaled();
  SimConfig b = a;
  EXPECT_EQ(config_digest(a), config_digest(b));
  b.llc.size_bytes *= 2;
  EXPECT_NE(config_digest(a), config_digest(b));
  b = a;
  b.qos.target_fps += 1.0;
  EXPECT_NE(config_digest(a), config_digest(b));
}

// ---------------------------------------------------------------------------
// Whole-CMP drain -> save -> load -> digest equality.

std::unique_ptr<HeteroCmp> build_m8(const SimConfig& cfg, Policy policy) {
  const HeteroMix& m = mix("M8");
  std::vector<SpecProfile> profiles;
  for (int id : m.cpu_specs) profiles.push_back(spec_profile(id));
  const GpuAppDesc& app = gpu_app(m.gpu_app);
  auto cmp = std::make_unique<HeteroCmp>(cfg, policy, std::move(profiles),
                                         build_frames(app, cfg.seed),
                                         app.fps_scale);
  cmp->gpu().set_repeat(true);
  return cmp;
}

TEST(CkptCmp, SaveLoadContinuationMatchesOriginalDigests) {
  const SimConfig cfg = Presets::scaled();
  CheckOptions copts;
  copts.audit_interval = 0;
  copts.digest_interval = 50'000;

  // Original: run, drain at a barrier, snapshot, keep running.
  auto a = build_m8(cfg, Policy::ThrottleCpuPrio);
  CheckContext ca(copts);
  a->attach_checks(ca);
  a->engine().run_for(400'000);
  a->drain();
  ASSERT_TRUE(a->quiesced());
  StateWriter w;
  a->save_state(w);
  const std::vector<std::uint8_t> snap = w.finish();
  const Cycle save_cycle = a->engine().now();
  a->unfreeze_injectors();
  a->engine().run_for(400'000);

  // Restored copy: fresh CMP with identical instrumentation, then the same
  // continuation.
  auto b = build_m8(cfg, Policy::ThrottleCpuPrio);
  CheckContext cb(copts);
  b->attach_checks(cb);
  StateReader r(snap);
  b->load_state(r, RestoreMode::kResume);
  EXPECT_EQ(b->engine().now(), save_cycle);
  ASSERT_TRUE(b->quiesced());
  b->engine().run_for(400'000);

  // Digest records after the save cycle must agree record-for-record.
  std::vector<DigestRecord> da(ca.digest_records());
  std::erase_if(da, [save_cycle](const DigestRecord& rec) {
    return rec.cycle < save_cycle;
  });
  ASSERT_FALSE(da.empty());
  const auto div = first_divergence(da, cb.digest_records());
  EXPECT_FALSE(div.has_value())
      << "diverged at cycle " << div->cycle << ", module " << div->module;
}

TEST(CkptCmp, SaveStateRequiresQuiescence) {
  const SimConfig cfg = Presets::scaled();
  auto cmp = build_m8(cfg, Policy::Baseline);
  cmp->engine().run_for(100'000);  // in-flight work almost surely present
  if (!cmp->quiesced()) {
    StateWriter w;
    EXPECT_THROW(cmp->save_state(w), CkptError);
  }
  cmp->drain();
  StateWriter w2;
  EXPECT_NO_THROW(cmp->save_state(w2));
}

TEST(CkptCmp, MissingSectionIsRejectedOnResume) {
  const SimConfig cfg = Presets::scaled();
  auto a = build_m8(cfg, Policy::Baseline);
  a->engine().run_for(200'000);
  a->drain();
  StateWriter w;
  a->save_state(w);

  // Re-frame the snapshot without the "gpu" section.
  StateReader in(w.finish());
  StateWriter out;
  while (in.next_section()) {
    if (in.tag() == "gpu") continue;
    StateWriter* dst = &out;
    dst->begin_section(in.tag());
    std::vector<std::uint8_t> payload(in.remaining());
    in.bytes(payload.data(), payload.size());
    dst->bytes(payload.data(), payload.size());
    dst->end_section();
  }

  auto b = build_m8(cfg, Policy::Baseline);
  StateReader r(out.finish());
  try {
    b->load_state(r, RestoreMode::kResume);
    FAIL() << "snapshot missing a section was accepted";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("gpu"), std::string::npos)
        << "error should name the missing section: " << e.what();
  }
}

TEST(CkptCmp, ForgedContainerLengthIsRejectedBeforeSizing) {
  const SimConfig cfg = Presets::scaled();
  auto a = build_m8(cfg, Policy::Baseline);
  a->engine().run_for(200'000);
  a->drain();
  StateWriter w;
  a->save_state(w);

  // Re-frame the snapshot with the "frpu" section's tile_updates length set
  // to 2^62 (a fresh CRC, so only the length is wrong). The frpu payload
  // starts with phase (u8), the RTP table (u64 entry count, 17 bytes per
  // entry, u32 u32 u64 u64 u64), in_frame (u8), frame_start (u64),
  // num_tiles (u32) and px_per_tile (u64); the length follows.
  StateReader in(w.finish());
  StateWriter out;
  while (in.next_section()) {
    std::vector<std::uint8_t> payload(in.remaining());
    in.bytes(payload.data(), payload.size());
    if (in.tag() == "frpu") {
      std::uint64_t entries = 0;
      std::memcpy(&entries, payload.data() + 1, sizeof entries);
      const std::size_t tiles_at = 1 + 8 + entries * 17 + 32 + 1 + 8;
      const std::size_t length_at = tiles_at + 4 + 8;
      std::uint32_t tiles = 0;
      std::uint64_t length = 0;
      std::memcpy(&tiles, payload.data() + tiles_at, sizeof tiles);
      std::memcpy(&length, payload.data() + length_at, sizeof length);
      ASSERT_EQ(length, tiles) << "frpu layout changed; update the offsets";
      const std::uint64_t forged = std::uint64_t{1} << 62;
      std::memcpy(payload.data() + length_at, &forged, sizeof forged);
    }
    out.begin_section(in.tag());
    out.bytes(payload.data(), payload.size());
    out.end_section();
  }

  auto b = build_m8(cfg, Policy::Baseline);
  StateReader r(out.finish());
  try {
    b->load_state(r, RestoreMode::kResume);
    FAIL() << "snapshot with a forged length was accepted";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("section 'frpu'"), std::string::npos)
        << "error should name the forged section: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Runner integration: warm forking and in-memory resume.

TEST(CkptRunner, WarmForkProducesResultsForEveryPolicy) {
  SimConfig cfg = Presets::scaled();
  const HeteroMix& m = mix("M8");
  const std::vector<Policy> policies = {Policy::Baseline,
                                        Policy::ThrottleCpuPrio};
  const std::vector<HeteroResult> results =
      run_hetero_forked(cfg, m, policies, tiny_scale());
  ASSERT_EQ(results.size(), policies.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].policy, policies[i]);
    EXPECT_GT(results[i].fps, 0.0);
    EXPECT_EQ(results[i].cpu_ipc.size(), m.cpu_specs.size());
    for (double ipc : results[i].cpu_ipc) EXPECT_GT(ipc, 0.0);
  }
}

TEST(CkptRunner, ForkedRunsFromOneWarmupAreDeterministic) {
  SimConfig cfg = Presets::scaled();
  const HeteroMix& m = mix("M8");
  const std::vector<uint8_t> warm =
      warm_hetero_snapshot(cfg, m, Policy::Baseline, tiny_scale());
  ASSERT_FALSE(warm.empty());

  RunHooks hooks;
  hooks.resume_data = &warm;
  hooks.resume_mode = RestoreMode::kFork;
  const HeteroResult r1 =
      run_hetero(cfg, m, Policy::ThrottleCpuPrio, tiny_scale(), hooks);
  const HeteroResult r2 =
      run_hetero(cfg, m, Policy::ThrottleCpuPrio, tiny_scale(), hooks);
  EXPECT_EQ(r1.fps, r2.fps);
  EXPECT_EQ(r1.cpu_ipc, r2.cpu_ipc);
  EXPECT_EQ(r1.stat_delta, r2.stat_delta);
}

TEST(CkptRunner, ResumeRejectsConfigMismatch) {
  SimConfig cfg = Presets::scaled();
  const HeteroMix& m = mix("M8");
  const std::vector<uint8_t> warm =
      warm_hetero_snapshot(cfg, m, Policy::Baseline, tiny_scale());

  SimConfig other = cfg;
  other.seed += 1;
  RunHooks hooks;
  hooks.resume_data = &warm;
  EXPECT_THROW((void)run_hetero(other, m, Policy::Baseline, tiny_scale(),
                                hooks),
               CkptError);
}

TEST(CkptRunner, ResumeRejectsPolicyMismatchButForkAllowsIt) {
  SimConfig cfg = Presets::scaled();
  const HeteroMix& m = mix("M8");
  const std::vector<uint8_t> warm =
      warm_hetero_snapshot(cfg, m, Policy::Baseline, tiny_scale());

  RunHooks hooks;
  hooks.resume_data = &warm;
  EXPECT_THROW(
      (void)run_hetero(cfg, m, Policy::DynPrio, tiny_scale(), hooks),
      CkptError);
  hooks.resume_mode = RestoreMode::kFork;
  EXPECT_GT(run_hetero(cfg, m, Policy::DynPrio, tiny_scale(), hooks).fps, 0.0);
}

// ---------------------------------------------------------------------------
// RunHooks is the one run-configuration surface (the deprecated
// telemetry/check pointer-tail overloads are gone).

TEST(RunHooksApi, CheckAttachesThroughHooks) {
  SimConfig cfg = Presets::scaled();
  const HeteroMix& m = mix("M1");
  CheckOptions copts;
  copts.audit_interval = 0;
  copts.digest_interval = 100'000;
  CheckContext check(copts);
  RunHooks hooks;
  hooks.check = &check;
  const HeteroResult r = run_hetero(cfg, m, Policy::Baseline, tiny_scale(),
                                    hooks);
  EXPECT_GT(r.fps, 0.0);
  EXPECT_FALSE(check.digest_records().empty());
}

}  // namespace
}  // namespace gpuqos
