// gpuqos-lint rule semantics (docs/ANALYSIS.md, "gpuqos-lint").
//
// Each test lints a small inline fixture snippet through the same engine the
// CLI uses (run_lint from gpuqos_lint_core), covering for every rule family:
// a positive (the violation is found), a negative (compliant code is clean),
// and a suppression (NOLINT-gpuqos / skip annotations are honored). The
// self-lint of the real tree runs as the separate `lint_src` and `lint_tree`
// ctests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "absint.hpp"
#include "ast.hpp"
#include "cfg.hpp"
#include "lint.hpp"

namespace gpuqos::lint {
namespace {

LintResult lint_files(const std::vector<SourceFile>& files) {
  return run_lint(files);
}

LintResult lint_one(const std::string& path, const std::string& text) {
  return lint_files({SourceFile{path, text}});
}

int count_rule(const LintResult& r, const std::string& rule) {
  int n = 0;
  for (const Finding& f : r.findings) n += f.rule == rule ? 1 : 0;
  return n;
}

bool has_symbol(const LintResult& r, const std::string& symbol) {
  for (const Finding& f : r.findings) {
    if (f.symbol == symbol) return true;
  }
  return false;
}

// ---- R1: state-coverage ---------------------------------------------------

// A checkpointed module whose save/load/digest cover every field.
constexpr const char* kCoveredModule = R"cpp(
#pragma once
struct CoveredModule {
  void save(StateWriter& w) const { w.u64(count_); w.u64(acc_); }
  void load(StateReader& r) { count_ = r.u64(); acc_ = r.u64(); }
  std::uint64_t digest() const {
    Fnv1a64 h;
    h.mix(count_);
    h.mix(acc_);
    return h.value();
  }
  std::uint64_t count_ = 0;
  std::uint64_t acc_ = 0;
};
)cpp";

TEST(StateCoverage, CoveredModuleIsClean) {
  const LintResult r = lint_one("fx/covered.hpp", kCoveredModule);
  EXPECT_TRUE(r.findings.empty());
}

// The acceptance demo: adding a field to a checkpointed module without
// extending save/load/digest must fail the lint with one finding per
// uncovered method.
TEST(StateCoverage, AddedFieldWithoutCoverageFails) {
  std::string text = kCoveredModule;
  const std::string anchor = "std::uint64_t count_ = 0;";
  text.insert(text.find(anchor), "std::uint64_t added_ = 0;\n  ");
  const LintResult r = lint_one("fx/covered.hpp", text);
  EXPECT_EQ(count_rule(r, kRuleStateCoverage), 3);  // save, load, digest
  EXPECT_TRUE(has_symbol(r, "CoveredModule::added_"));
}

TEST(StateCoverage, DigestOnlyDriftIsFound) {
  const LintResult r = lint_one("fx/drift.hpp", R"cpp(
#pragma once
struct Drifting {
  void save(StateWriter& w) const { w.u64(a_); w.u64(b_); }
  void load(StateReader& r) { a_ = r.u64(); b_ = r.u64(); }
  std::uint64_t digest() const { Fnv1a64 h; h.mix(a_); return h.value(); }
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};
)cpp");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, kRuleStateCoverage);
  EXPECT_EQ(r.findings[0].symbol, "Drifting::b_");
  EXPECT_NE(r.findings[0].message.find("digest"), std::string::npos);
}

TEST(StateCoverage, SkipAnnotationsAndWiringAreExempt) {
  const LintResult r = lint_one("fx/exempt.hpp", R"cpp(
#pragma once
struct Exempt {
  void save(StateWriter& w) const { w.u64(a_); }
  void load(StateReader& r) { a_ = r.u64(); }
  std::uint64_t digest() const { Fnv1a64 h; h.mix(a_); return h.value(); }
  Engine& engine_;          // references are non-owning wiring
  Telemetry* telemetry_;    // raw pointers likewise
  Config cfg_;              // ckpt:skip digest:skip: construction parameter
  std::uint64_t memo_ = 0;  // ckpt:skip digest:skip: derived cache
  std::uint64_t a_ = 0;
};
)cpp");
  EXPECT_TRUE(r.findings.empty());
}

TEST(StateCoverage, CkptSkipStillRequiresDigestCoverage) {
  // A drained queue is not serialized but its in-flight size is digested;
  // ckpt:skip alone must keep the digest obligation.
  const LintResult r = lint_one("fx/drained.hpp", R"cpp(
#pragma once
struct Drained {
  void save(StateWriter& w) const { w.u64(a_); }
  void load(StateReader& r) { a_ = r.u64(); }
  std::uint64_t digest() const { Fnv1a64 h; h.mix(a_); return h.value(); }
  std::deque<Request> queue_;  // ckpt:skip: drained at the barrier
  std::uint64_t a_ = 0;
};
)cpp");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].symbol, "Drained::queue_");
  EXPECT_NE(r.findings[0].message.find("digest"), std::string::npos);
}

TEST(StateCoverage, OutOfLineBodiesMergeAcrossFiles) {
  const char* hpp = R"cpp(
#pragma once
struct Split {
  void save(StateWriter& w) const;
  void load(StateReader& r);
  std::uint64_t digest() const;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};
)cpp";
  const char* cpp = R"cpp(
#include "split.hpp"
void Split::save(StateWriter& w) const { w.u64(a_); w.u64(b_); }
void Split::load(StateReader& r) { a_ = r.u64(); b_ = r.u64(); }
std::uint64_t Split::digest() const {
  Fnv1a64 h;
  h.mix(a_);
  return h.value();  // b_ deliberately missing
}
)cpp";
  const LintResult r = lint_files(
      {SourceFile{"fx/split.hpp", hpp}, SourceFile{"fx/split.cpp", cpp}});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].symbol, "Split::b_");
}

TEST(StateCoverage, DeclaredButUndefinedMethodIsNotChecked) {
  // Only the header is in the input set: there is no digest body to check
  // fields against, so the rule must stay silent rather than guess.
  const LintResult r = lint_one("fx/decl_only.hpp", R"cpp(
#pragma once
struct DeclOnly {
  void save(StateWriter& w) const;
  void load(StateReader& r);
  std::uint64_t digest() const;
  std::uint64_t a_ = 0;
};
)cpp");
  EXPECT_TRUE(r.findings.empty());
}

TEST(StateCoverage, NolintSuppressesTheFinding) {
  const LintResult r = lint_one("fx/nolint.hpp", R"cpp(
#pragma once
struct Legacy {
  void save(StateWriter& w) const { w.u64(a_); }
  void load(StateReader& r) { a_ = r.u64(); }
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;  // NOLINT-gpuqos(state-coverage): migration pending
};
)cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.nolint_suppressed, 2);  // save and load findings for b_
}

// save() and load() forward to one visit_state() walk, defined out of line
// the way src/ does it; the walk names every checkpointed field.
constexpr const char* kWalkHpp = R"cpp(
#pragma once
struct Walked {
  void save(StateWriter& w) { visit_state(w); }
  void load(StateReader& r) { visit_state(r); }
  std::uint64_t digest() const;
 private:
  template <class IO>
  void visit_state(IO& io);
  std::uint64_t count_ = 0;
  std::vector<std::uint32_t> slots_;
  bool flag_ = false;
};
)cpp";

constexpr const char* kWalkCpp = R"cpp(
#include "walked.hpp"
template <class IO>
void Walked::visit_state(IO& io) {
  io.u64(count_);
  io.length(slots_);
  for (std::uint32_t& s : slots_) io.u32(s);
  io.boolean(flag_);
}
std::uint64_t Walked::digest() const {
  Fnv1a64 h;
  h.mix(count_);
  for (std::uint32_t s : slots_) h.mix(s);
  h.mix_bool(flag_);
  return h.value();
}
)cpp";

TEST(StateCoverage, SaveAndLoadForwardingToACompleteWalkAreClean) {
  const LintResult r = lint_files({SourceFile{"fx/walked.hpp", kWalkHpp},
                                   SourceFile{"fx/walked.cpp", kWalkCpp}});
  EXPECT_TRUE(r.findings.empty());
}

TEST(StateCoverage, FieldMissingFromTheWalkIsFoundForSaveAndLoad) {
  std::string cpp = kWalkCpp;
  const std::string dropped = "  io.boolean(flag_);\n";
  cpp.erase(cpp.find(dropped), dropped.size());
  const LintResult r = lint_files({SourceFile{"fx/walked.hpp", kWalkHpp},
                                   SourceFile{"fx/walked.cpp", cpp}});
  EXPECT_EQ(count_rule(r, kRuleStateCoverage), 2);  // save and load
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.symbol, "Walked::flag_");
  }
}

// ---- R2: thread-purity ----------------------------------------------------

TEST(ThreadPurity, NamespaceStateReachableFromRootIsFound) {
  const LintResult r = lint_one("fx/purity.cpp", R"cpp(
namespace {
int g_calls = 0;
void helper() { ++g_calls; }
}  // namespace
void run_many() { helper(); }
)cpp");
  ASSERT_EQ(count_rule(r, kRuleThreadPurity), 1);
  EXPECT_TRUE(has_symbol(r, "g_calls"));
}

TEST(ThreadPurity, LocalStaticInReachableFunctionIsFound) {
  const LintResult r = lint_one("fx/purity.cpp", R"cpp(
void helper() {
  static int calls = 0;
  ++calls;
}
void run_many() { helper(); }
)cpp");
  ASSERT_EQ(count_rule(r, kRuleThreadPurity), 1);
  EXPECT_TRUE(has_symbol(r, "calls"));
}

TEST(ThreadPurity, UnreachableAndConstStateIsClean) {
  const LintResult r = lint_one("fx/purity.cpp", R"cpp(
const int kTable[] = {1, 2, 3};
constexpr int kLimit = 4;
void cold_path() { static int debug_hits = 0; ++debug_hits; }
void run_many() { (void)kTable; (void)kLimit; }
)cpp");
  EXPECT_TRUE(r.findings.empty());  // cold_path is never called from a root
}

TEST(ThreadPurity, MacroIndirectionStillReaches) {
  // run_many only touches the state through a macro body, the way
  // GPUQOS_LOG expands to log_message(): the edge must still resolve.
  const LintResult r = lint_one("fx/purity.cpp", R"cpp(
int g_hits = 0;
void bump() { ++g_hits; }
#define BUMP() bump()
void run_many() { BUMP(); }
)cpp");
  EXPECT_EQ(count_rule(r, kRuleThreadPurity), 1);
}

TEST(ThreadPurity, OwnLineNolintCoversTheDeclarationBelow) {
  const LintResult r = lint_one("fx/purity.cpp", R"cpp(
void io_lock() {
  // NOLINT-gpuqos(thread-purity): audited — serializes stdout only, and a
  // multi-line justification must still reach the declaration below.
  static std::mutex m;
  (void)m;
}
void run_many() { io_lock(); }
)cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.nolint_suppressed, 1);
}

// ---- R3: check-hygiene ----------------------------------------------------

TEST(CheckHygiene, BannedConstructsAreFound) {
  const LintResult r = lint_one("fx/hygiene.cpp", R"cpp(
#include <cassert>
void f(int x) {
  assert(x > 0);
  std::cerr << "raw log\n";
  int* p = new int[4];
  delete[] p;
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleCheckHygiene), 4);
}

TEST(CheckHygiene, ProjectIdiomsAreClean) {
  const LintResult r = lint_one("fx/hygiene.cpp", R"cpp(
#include <new>
void g(void* buf, int x) {
  GPUQOS_CHECK(x > 0, "positive");
  GPUQOS_LOG(Info, "stamped");
  ::new (buf) int(x);      // placement new: no allocation
  auto owned = std::make_unique<int>(x);
}
struct NoCopy {
  NoCopy(const NoCopy&) = delete;
  void* operator new(std::size_t) = delete;
};
)cpp");
  EXPECT_TRUE(r.findings.empty());
}

TEST(CheckHygiene, ArenaNolintIsHonored) {
  const LintResult r = lint_one("fx/hygiene.cpp", R"cpp(
void arena(int x) {
  // NOLINT-gpuqos(check-hygiene): heap-fallback arena, freed by the pool
  int* p = new int(x);
  // NOLINT-gpuqos(check-hygiene): arena release
  delete p;
}
)cpp");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.nolint_suppressed, 2);
}

// A suppression naming no rule (typically one since deleted or renamed)
// silences nothing, so it is reported where it stands.
TEST(CheckHygiene, StaleNolintRuleNamesAreFound) {
  const LintResult r = lint_one("fx/stale.cpp", R"cpp(
int f() {
  // NOLINT-gpuqos(concurrency-discipline): the rule is gone
  return 1;
}
void g() {}  // NOLINT-gpuqos(det-hazard, lock-discipline)
// NOLINT-gpuqos-file(input-taint): file-wide, just as stale
)cpp");
  EXPECT_EQ(count_rule(r, kRuleCheckHygiene), 3);
  EXPECT_TRUE(has_symbol(r, "stale-nolint:concurrency-discipline"));
  EXPECT_TRUE(has_symbol(r, "stale-nolint:lock-discipline"));
  EXPECT_TRUE(has_symbol(r, "stale-nolint:input-taint"));
}

TEST(CheckHygiene, KnownRulesWildcardAndProsePlaceholdersAreNotStale) {
  const LintResult r = lint_one("fx/fresh.cpp", R"cpp(
// Syntax: `NOLINT-gpuqos(<rule>,...): reason` on the line, or
// `NOLINT-gpuqos-file(...)` anywhere in the file.
int f() {
  return 1;  // NOLINT-gpuqos(*): every rule, on purpose
}
void g() {}  // NOLINT-gpuqos(det-hazard, narrowing-cast): listed rules
)cpp");
  EXPECT_TRUE(r.findings.empty());
}

// ---- R4: header-hygiene ---------------------------------------------------

TEST(HeaderHygiene, UnguardedHeaderIsFound) {
  const LintResult r = lint_one("fx/raw.hpp", "struct Unguarded {};\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, kRuleHeaderHygiene);
}

TEST(HeaderHygiene, PragmaOnceAndIncludeGuardsAreClean) {
  EXPECT_TRUE(
      lint_one("fx/a.hpp", "// comment\n#pragma once\nstruct A {};\n")
          .findings.empty());
  EXPECT_TRUE(lint_one("fx/b.hpp",
                       "#ifndef FX_B_HPP\n#define FX_B_HPP\nstruct B {};\n"
                       "#endif\n")
                  .findings.empty());
  // Non-headers carry no guard obligation.
  EXPECT_TRUE(lint_one("fx/c.cpp", "struct C {};\n").findings.empty());
}

TEST(HeaderHygiene, FileWideNolintSuppresses) {
  const LintResult r = lint_one(
      "fx/gen.hpp",
      "// NOLINT-gpuqos-file(header-hygiene): generated fragment\n"
      "struct Generated {};\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.nolint_suppressed, 1);
}

// ---- output format --------------------------------------------------------

TEST(Formats, GithubCarriesRuleFileLine) {
  const LintResult r = lint_one("fx/raw.hpp", "struct Unguarded {};\n");
  ASSERT_EQ(r.findings.size(), 1u);
  const std::string gh = format_github(r);
  EXPECT_NE(gh.find("::error file=fx/raw.hpp,line=1,"
                    "title=gpuqos-lint(header-hygiene)::"),
            std::string::npos);
}

// ---- R5: det-hazard -------------------------------------------------------

// The acceptance demo: folding an unordered_map in digest() without an
// order-independent annotation is the textbook seeded violation.
constexpr const char* kUnorderedDigest = R"cpp(
#pragma once
struct Table {
  std::uint64_t digest() const {
    std::uint64_t h = 0;
    for (const auto& [k, v] : entries_) { h += k; }
    return h;
  }
  std::unordered_map<std::uint64_t, int> entries_;
};
)cpp";

TEST(DetHazard, UnorderedIterationInDigestIsFound) {
  const LintResult r = lint_one("fx/table.hpp", kUnorderedDigest);
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 1);
  EXPECT_TRUE(has_symbol(r, "Table::digest#unordered-iter:entries_"));
}

TEST(DetHazard, DetOkAnnotationEscapes) {
  std::string text = kUnorderedDigest;
  const std::string anchor = "for (const auto& [k, v] : entries_)";
  text.insert(text.find(anchor), "/*det:ok: order-independent fold*/ ");
  const LintResult r = lint_one("fx/table.hpp", text);
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 0);
  EXPECT_EQ(r.nolint_suppressed, 0);  // escaped inside the rule, not NOLINT
}

TEST(DetHazard, NolintSuppressionAlsoWorks) {
  std::string text = kUnorderedDigest;
  const std::string anchor = "for (const auto& [k, v] : entries_)";
  text.insert(text.find(anchor),
              "// NOLINT-gpuqos(det-hazard): audited\n    ");
  const LintResult r = lint_one("fx/table.hpp", text);
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 0);
  EXPECT_EQ(r.nolint_suppressed, 1);
}

TEST(DetHazard, OrderedIntKeyedIterationIsClean) {
  const LintResult r = lint_one("fx/table.hpp", R"cpp(
#pragma once
struct Table {
  std::uint64_t digest() const {
    std::uint64_t h = 0;
    for (const auto& [k, v] : entries_) { h += k; }
    return h;
  }
  std::map<std::uint64_t, int> entries_;
};
)cpp");
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 0);
}

TEST(DetHazard, WallClockAndPrngReadsAreFoundOnDetPathsOnly) {
  // tick() is a det root; helper() is reachable through it, unused() is not.
  const LintResult r = lint_files({
      SourceFile{"fx/a.cpp", "void helper();\nvoid tick() { helper(); }\n"},
      SourceFile{"fx/b.cpp",
                 "void helper() { int x = rand(); }\n"
                 "void unused() { int y = rand(); }\n"},
  });
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 1);
  EXPECT_TRUE(has_symbol(r, "helper#wall-clock:rand"));
}

TEST(DetHazard, PtrKeyedLocalIsFlaggedEvenOffDetPaths) {
  // Output/report paths must be run-to-run stable too: the ptr-key check is
  // deliberately reachability-free. tick() exists and never calls report().
  const LintResult r = lint_one("fx/rep.cpp", R"cpp(
struct Def {};
void tick() {}
void report() {
  std::map<const Def*, int> counts;
  counts.clear();
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 1);
  EXPECT_TRUE(has_symbol(r, "report#ptr-key:counts"));
}

TEST(DetHazard, FloatAccumulationInUnorderedLoopIsFound) {
  const LintResult r = lint_one("fx/avg.hpp", R"cpp(
#pragma once
struct Averager {
  std::uint64_t digest() const {
    double sum = 0;
    for (const auto& [k, v] : vals_) { sum += v; }
    return static_cast<std::uint64_t>(sum);
  }
  std::unordered_map<int, double> vals_;
};
)cpp");
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 2);  // unordered-iter + float-accum
  EXPECT_TRUE(has_symbol(r, "Averager::digest#float-accum:sum"));
}

TEST(DetHazard, PtrKeyedFieldOfDetClassIsFound) {
  const LintResult r = lint_one("fx/owner.hpp", R"cpp(
#pragma once
struct Line {};
struct Owner {
  std::uint64_t digest() const { return 0; }
  std::map<const Line*, int> by_ptr_;
};
)cpp");
  EXPECT_EQ(count_rule(r, kRuleDetHazard), 1);
  EXPECT_TRUE(has_symbol(r, "Owner::by_ptr_"));
}

// ---- CFG builder (v3 substrate) -------------------------------------------

Cfg cfg_of(const std::string& src) {
  ParsedFile pf = parse("fx/cfg.cpp", lex(src));
  EXPECT_EQ(pf.functions.size(), 1u);
  const FunctionDef& fn = pf.functions.front();
  return build_cfg(pf.ts.tokens, fn.body_begin, fn.body_end);
}

TEST(CfgBuild, LoopHeadAndEarlyReturn) {
  const Cfg cfg = cfg_of(R"cpp(
void f(int n) {
  if (n < 0) return;
  while (n > 0) {
    --n;
  }
}
)cpp");
  // Exactly one loop head (the while); the plain if is conditional but not
  // a loop.
  std::size_t head = 0, ifhead = 0;
  int loops = 0, plain = 0;
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    if (cfg.blocks[i].loop_head) {
      ++loops;
      head = i;
    } else if (cfg.blocks[i].has_cond) {
      ++plain;
      ifhead = i;
    }
  }
  EXPECT_EQ(loops, 1);
  EXPECT_EQ(plain, 1);
  // The loop body's flow returns to the head (the back edge).
  ASSERT_EQ(cfg.blocks[head].succ.size(), 2u);
  const std::size_t body = cfg.blocks[head].succ[0];
  EXPECT_TRUE(std::find(cfg.blocks[body].succ.begin(),
                        cfg.blocks[body].succ.end(),
                        head) != cfg.blocks[body].succ.end());
  // The early return's true edge reaches the unified exit.
  ASSERT_EQ(cfg.blocks[ifhead].succ.size(), 2u);
  const std::size_t ret = cfg.blocks[ifhead].succ[0];
  EXPECT_TRUE(std::find(cfg.blocks[ret].succ.begin(),
                        cfg.blocks[ret].succ.end(),
                        cfg.exit) != cfg.blocks[ret].succ.end());
}

// ---- abstract interpreter (v3 substrate) ----------------------------------

// A must-fact probe: `mark()` establishes fact "m", `unmark()` kills it, and
// every `probe()` statement records whether the converged state still holds
// it. join_missing = kDrop models lock-set semantics.
class ProbeDomain : public Domain {
 public:
  explicit ProbeDomain(const std::vector<Token>& t) : t_(t) {}
  int join(const std::string&, int a, int b) const override {
    return std::min(a, b);
  }
  int join_missing(const std::string&, int) const override { return kDrop; }
  void transfer(AbsState& s, const CfgStmt& stmt) override {
    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (t_[k].kind != Tok::Ident) continue;
      if (t_[k].text == "mark") s["m"] = 1;
      if (t_[k].text == "unmark") s.erase("m");
    }
  }
  void visit(const AbsState& s, const CfgStmt& stmt) override {
    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (t_[k].kind == Tok::Ident && t_[k].text == "probe") {
        saw.push_back(s.count("m") != 0);
        return;
      }
    }
  }
  std::vector<bool> saw;

 private:
  const std::vector<Token>& t_;
};

std::vector<bool> probe_run(const std::string& src) {
  ParsedFile pf = parse("fx/abs.cpp", lex(src));
  EXPECT_EQ(pf.functions.size(), 1u);
  const FunctionDef& fn = pf.functions.front();
  const Cfg cfg = build_cfg(pf.ts.tokens, fn.body_begin, fn.body_end);
  ProbeDomain d(pf.ts.tokens);
  const AbsResult r = solve(cfg, d);
  report(cfg, d, r);
  return d.saw;
}

TEST(AbsInt, MustFactDiesAtOneSidedJoin) {
  const std::vector<bool> saw = probe_run(R"cpp(
void f(bool c) {
  if (c) { mark(); }
  probe();
}
)cpp");
  ASSERT_EQ(saw.size(), 1u);
  EXPECT_FALSE(saw[0]);  // only the true path established it
}

TEST(AbsInt, MustFactSurvivesWhenBothBranchesEstablishIt) {
  const std::vector<bool> saw = probe_run(R"cpp(
void f(bool c) {
  if (c) { mark(); } else { mark(); }
  probe();
}
)cpp");
  ASSERT_EQ(saw.size(), 1u);
  EXPECT_TRUE(saw[0]);
}

TEST(AbsInt, LoopBackEdgeReachesFixpointNotFirstPass) {
  // On the first sweep the loop body still sees "m"; the back edge joins in
  // the unmarked state, and report() replays the *converged* facts.
  const std::vector<bool> saw = probe_run(R"cpp(
void f(bool c) {
  mark();
  while (c) {
    probe();
    unmark();
  }
}
)cpp");
  ASSERT_EQ(saw.size(), 1u);
  EXPECT_FALSE(saw[0]);
}

TEST(AbsInt, EarlyReturnDoesNotPolluteTheFallThroughPath) {
  const std::vector<bool> saw = probe_run(R"cpp(
void f(bool c) {
  mark();
  if (c) { return; }
  probe();
}
)cpp");
  ASSERT_EQ(saw.size(), 1u);
  EXPECT_TRUE(saw[0]);  // the taken return leaves one reachable predecessor
}

// ---- R11: narrowing-cast --------------------------------------------------

// The acceptance demo: a 64-bit snapshot value squeezed into int unchecked.
constexpr const char* kUncheckedNarrow = R"cpp(
void load(ckpt::StateReader& r, int& out) {
  const std::int64_t wide = r.i64();
  out = static_cast<int>(wide);
}
)cpp";

TEST(NarrowingCast, UncheckedSixtyFourToIntIsFound) {
  const LintResult r = lint_one("fx/load.cpp", kUncheckedNarrow);
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 1);
}

TEST(NarrowingCast, CallChainResultCountsAsWide) {
  const LintResult r = lint_one("fx/load.cpp", R"cpp(
void load(ckpt::StateReader& r, int& out) {
  out = static_cast<int>(r.i64());
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 1);
}

TEST(NarrowingCast, DominatingRangeCheckIsClean) {
  const LintResult r = lint_one("fx/load.cpp", R"cpp(
void load(ckpt::StateReader& r, int& out) {
  const std::int64_t wide = r.i64();
  if (wide > 65535) {
    return;
  }
  out = static_cast<int>(wide);
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 0);
}

TEST(NarrowingCast, MaskAndMinIdiomsAreClean) {
  const LintResult r = lint_one("fx/load.cpp", R"cpp(
void load(std::uint64_t wide, std::uint32_t& lo, std::uint32_t& capped) {
  lo = static_cast<std::uint32_t>(wide & 0xffffffffULL);
  capped = static_cast<std::uint32_t>(std::min<std::uint64_t>(wide, 64));
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 0);
}

TEST(NarrowingCast, SameStatementTernaryGuardIsClean) {
  const LintResult r = lint_one("fx/load.cpp", R"cpp(
void pick(std::size_t n, const std::vector<int>& v, unsigned& out) {
  out = n < v.size() ? 0u : static_cast<unsigned>(v.size()) - 1u;
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 0);
}

TEST(NarrowingCast, SubscriptIndexChainsAreNotTheCastOperand) {
  const LintResult r = lint_one("fx/load.cpp", R"cpp(
void scan(const std::string& src, std::size_t pos, bool& digit) {
  digit = isdigit(static_cast<unsigned char>(src[pos])) != 0;
}
)cpp");
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 0);
}

TEST(NarrowingCast, NarrowOkAnnotationEscapes) {
  std::string text = kUncheckedNarrow;
  const std::string anchor = "out = static_cast<int>(wide);";
  text.insert(text.find(anchor) + anchor.size(),
              "  /*narrow:ok: bounded by the writer*/");
  const LintResult r = lint_one("fx/load.cpp", text);
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 0);
}

TEST(NarrowingCast, NolintSuppresses) {
  std::string text = kUncheckedNarrow;
  const std::string anchor = "out = static_cast<int>(wide);";
  text.insert(text.find(anchor) + anchor.size(),
              "  // NOLINT-gpuqos(narrowing-cast)");
  const LintResult r = lint_one("fx/load.cpp", text);
  EXPECT_EQ(count_rule(r, kRuleNarrowingCast), 0);
}

// ---- parser regressions ---------------------------------------------------

// operator< used to open a phantom angle bracket and swallow the following
// field declarations; weight_ must still be visible to state-coverage.
TEST(ParserRegression, FieldsAfterOperatorLessAreSeen) {
  const LintResult r = lint_one("fx/ranked.hpp", R"cpp(
#pragma once
struct Ranked {
  bool operator<(const Ranked& o) const { return key_ < o.key_; }
  std::uint64_t digest() const { Fnv1a64 h; h.mix(key_); return h.value(); }
  std::uint64_t key_ = 0;
  std::uint64_t weight_ = 0;
};
)cpp");
  EXPECT_EQ(count_rule(r, kRuleStateCoverage), 1);
  EXPECT_TRUE(has_symbol(r, "Ranked::weight_"));
}

// Out-of-line class-template members (`Box<T>::digest`) must merge into the
// class's method table: payload_ is covered there, uses_ is not.
TEST(ParserRegression, ClassTemplateOutOfLineBodyMerges) {
  const LintResult r = lint_one("fx/box.hpp", R"cpp(
#pragma once
template <typename T>
struct Box {
  std::uint64_t digest() const;
  T payload_{};
  std::uint64_t uses_ = 0;
};
template <typename T>
std::uint64_t Box<T>::digest() const {
  Fnv1a64 h;
  h.mix(payload_);
  return h.value();
}
)cpp");
  EXPECT_TRUE(has_symbol(r, "Box::uses_"));
  EXPECT_FALSE(has_symbol(r, "Box::payload_"));
}

// decltype(...) members used to parse as method declarations and vanish.
TEST(ParserRegression, DecltypeFieldIsAField) {
  const LintResult r = lint_one("fx/d.hpp", R"cpp(
#pragma once
struct D {
  std::uint64_t digest() const { Fnv1a64 h; h.mix(a_); return h.value(); }
  std::uint64_t a_ = 0;
  decltype(0u) counter_ = 0;
};
)cpp");
  EXPECT_EQ(count_rule(r, kRuleStateCoverage), 1);
  EXPECT_TRUE(has_symbol(r, "D::counter_"));
}

}  // namespace
}  // namespace gpuqos::lint
