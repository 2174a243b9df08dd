#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ckpt/state_io.hpp"

namespace gpuqos {
namespace {

TEST(StatRegistry, CountersAccumulate) {
  StatRegistry s;
  s.add("a");
  s.add("a", 4);
  EXPECT_EQ(s.counter("a"), 5u);
  EXPECT_EQ(s.counter("missing"), 0u);
  EXPECT_TRUE(s.has_counter("a"));
  EXPECT_FALSE(s.has_counter("missing"));
}

TEST(StatRegistry, CounterPtrStableAcrossInsertions) {
  StatRegistry s;
  std::uint64_t* p = s.counter_ptr("hot");
  for (int i = 0; i < 1000; ++i) {
    // Built with += rather than `"k" + std::to_string(i)`: GCC 12's
    // -Wrestrict false-positives on the inlined operator+ insert at -O3.
    std::string name = "k";
    name += std::to_string(i);
    s.add(name);
  }
  *p += 7;
  EXPECT_EQ(s.counter("hot"), 7u);
}

TEST(StatRegistry, ClearZeroesButKeepsPointersValid) {
  StatRegistry s;
  std::uint64_t* p = s.counter_ptr("x");
  *p = 42;
  s.clear();
  EXPECT_EQ(s.counter("x"), 0u);
  *p = 3;
  EXPECT_EQ(s.counter("x"), 3u);
}

TEST(StatRegistry, SinceSubtractsBaseline) {
  StatRegistry s;
  s.add("n", 10);
  const auto snap = s.counters();
  s.add("n", 5);
  s.add("m", 2);
  EXPECT_EQ(s.since("n", snap), 5u);
  EXPECT_EQ(s.since("m", snap), 2u);
  EXPECT_EQ(s.since("absent", snap), 0u);
}

// A lazily-counting component (a parked CPU core) owes counts until its
// settle hook runs; every read, clear() and load() must run it first.
TEST(StatRegistry, SettleHooksRunBeforeEveryReadClearAndLoad) {
  StatRegistry s;
  std::uint64_t* lazy = s.counter_ptr("lazy");
  std::uint64_t owed = 0;
  const int owner = 0;
  s.add_settle_hook(&owner, [&] {
    *lazy += owed;
    owed = 0;
  });
  owed = 3;
  EXPECT_EQ(s.counter("lazy"), 3u);
  owed = 2;
  EXPECT_EQ(s.counters().at("lazy"), 5u);
  owed = 1;
  EXPECT_NE(s.to_json().find("\"lazy\":6"), std::string::npos);
  owed = 1;
  EXPECT_NE(s.report().find("lazy 7"), std::string::npos);
  StatRegistry settled;
  settled.add("lazy", 8);
  owed = 1;
  EXPECT_EQ(s.digest(), settled.digest());

  owed = 4;  // owed before clear(): belongs to the period being cleared
  s.clear();
  EXPECT_EQ(s.counter("lazy"), 0u);

  owed = 5;
  ckpt::StateWriter w;
  w.begin_section("stats");
  s.save(w);
  w.end_section();
  ckpt::StateReader r(w.finish());
  ASSERT_TRUE(r.next_section());
  owed = 9;  // owed before load(): must not land on the loaded value
  s.load(r);
  EXPECT_EQ(s.counter("lazy"), 5u);

  s.remove_settle_hooks(&owner);
  owed = 100;
  EXPECT_EQ(s.counter("lazy"), 5u);
}

TEST(StatRegistry, ScalarsStored) {
  StatRegistry s;
  s.set("f", 2.5);
  EXPECT_DOUBLE_EQ(s.scalar("f"), 2.5);
  EXPECT_DOUBLE_EQ(s.scalar("g"), 0.0);
}

TEST(StatRegistry, ReportFiltersByPrefix) {
  StatRegistry s;
  s.add("llc.hit", 1);
  s.add("dram.reads", 2);
  const std::string rep = s.report("llc.");
  EXPECT_NE(rep.find("llc.hit 1"), std::string::npos);
  EXPECT_EQ(rep.find("dram"), std::string::npos);
}

TEST(StatRegistry, ToJsonEmitsCountersAndScalarsInStableOrder) {
  StatRegistry s;
  s.add("b.count", 2);
  s.add("a.count", 1);
  s.set("z.rate", 0.5);
  s.set("y.rate", 1.5);
  EXPECT_EQ(s.to_json(),
            "{\"counters\":{\"a.count\":1,\"b.count\":2},"
            "\"scalars\":{\"y.rate\":1.5,\"z.rate\":0.5}}");
}

TEST(StatRegistry, ToJsonEmptyRegistry) {
  StatRegistry s;
  EXPECT_EQ(s.to_json(), "{\"counters\":{},\"scalars\":{}}");
}

TEST(StatRegistry, ToJsonEscapesKeys) {
  StatRegistry s;
  s.add("weird\"key\\n", 1);
  const std::string j = s.to_json();
  EXPECT_NE(j.find("\\\"key\\\\n"), std::string::npos);
}

TEST(Geomean, Basics) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);  // non-positive guard
}

}  // namespace
}  // namespace gpuqos
