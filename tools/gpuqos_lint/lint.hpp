// gpuqos-lint public API (docs/ANALYSIS.md, "gpuqos-lint").
//
// A self-contained static analyzer for the project contracts the test suite
// can only probe dynamically:
//   state-coverage  (R1)  every non-transient field of a class that declares
//                         save()/load()/digest() is referenced in all three
//                         (/*ckpt:skip*/ exempts save+load, /*digest:skip*/
//                         exempts digest);
//   thread-purity   (R2)  no mutable namespace-scope variables, function-
//                         local statics, or non-atomic static data members
//                         reachable from the run_many()/run_hetero call
//                         graph — the structural guarantee behind pooled-
//                         sweep determinism;
//   check-hygiene   (R3)  no bare assert(), no raw new/delete outside
//                         annotated arenas, no un-stamped std::cerr/clog
//                         logging (use GPUQOS_CHECK / GPUQOS_LOG);
//   header-hygiene  (R4)  every header opens with #pragma once or an include
//                         guard (self-containment is enforced by the
//                         header_compile ctest target);
//   det-hazard      (R5)  no unordered-container iteration, pointer-keyed
//                         ordering, address-as-value, wall-clock/PRNG reads,
//                         or float accumulation-order dependence in code
//                         reachable from tick()/digest()/save()/load()
//                         (/*det:ok: reason*/ escapes a deliberate use);
//   narrowing-cast  (R11) static_cast of 64-bit size/cycle expressions to a
//                         narrower type with no dominating range check and
//                         no masking/shift (/*narrow:ok: reason*/).
//
// R5 and R11 run on a cross-TU symbol table + call graph (symtab.hpp,
// callgraph.hpp): receivers with a known declared type bind to that class's
// methods, everything else falls back to name matching. R11 additionally
// runs a forward abstract interpretation over per-function CFGs (cfg.hpp,
// absint.hpp) so its range-check facts are path-joined, not just
// body-scanned.
//
// Suppressions: a `NOLINT-gpuqos(<rule>,...): reason` comment on the
// finding's line or the line above; `NOLINT-gpuqos-file(<rule>,...): reason`
// anywhere in a file. `*` matches every rule; any other name that is not a
// rule is itself a check-hygiene finding, so a suppression cannot outlive
// the rule it silences.
#pragma once

#include <string>
#include <vector>

namespace gpuqos::lint {

inline constexpr const char* kRuleStateCoverage = "state-coverage";
inline constexpr const char* kRuleThreadPurity = "thread-purity";
inline constexpr const char* kRuleCheckHygiene = "check-hygiene";
inline constexpr const char* kRuleHeaderHygiene = "header-hygiene";
inline constexpr const char* kRuleDetHazard = "det-hazard";
inline constexpr const char* kRuleNarrowingCast = "narrowing-cast";

/// All rule names, in reporting order.
[[nodiscard]] const std::vector<std::string>& all_rules();

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string symbol;   // "Class::field", variable name; empty for token hits
  std::string message;
};

struct SourceFile {
  std::string path;     // as reported in findings
  std::string content;
};

struct LintResult {
  std::vector<Finding> findings;  // post-NOLINT, sorted by file/line/rule
  int nolint_suppressed = 0;
};

/// Lex + parse every file, run every rule, apply NOLINT suppressions. Never
/// touches the filesystem.
[[nodiscard]] LintResult run_lint(const std::vector<SourceFile>& files);

[[nodiscard]] std::string format_human(const LintResult& result);
/// GitHub workflow annotations (::error file=...,line=...::message).
[[nodiscard]] std::string format_github(const LintResult& result);

}  // namespace gpuqos::lint
