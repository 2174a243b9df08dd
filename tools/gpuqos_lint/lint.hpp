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
//   concurrency-    (R6)  fields of shared classes (mutex-owning or
//     discipline          /*own:shared*/) written from pool-worker-reachable
//                         code need an RAII lock in the same function, no
//                         bare mutex lock()/unlock(), no code-running
//                         static-local initializers (/*own:worker*/,
//                         /*own:guarded*/, *_locked naming escape);
//   event-capture   (R7)  lambdas posted to the engine's deferred event
//                         calls must not capture by reference or capture
//                         stack addresses (/*cap:ok: reason*/ escapes);
//   state-order     (R8)  save()/load()/digest() must walk state in the
//                         *same order*, not just cover it: primitive
//                         write/read sequences and field first-touch order
//                         are compared pairwise (/*order:ok: reason*/);
//   lock-discipline (R9)  flow-sensitive lock sets over RAII guard scopes:
//                         inconsistent mutex acquisition order, locks held
//                         across blocking calls (socket IO, future/condvar
//                         waits), guarded-field writes with an empty lock
//                         set in locking functions (/*lock:ok: reason*/);
//   input-taint     (R10) untrusted bytes (StateReader primitives — sources
//                         scoped to the service layer) must pass a
//                         dominating bound check before reaching
//                         resize/reserve/new[] sizes, memcpy lengths, loop
//                         bounds, or indexing (/*taint:ok*/);
//   narrowing-cast  (R11) static_cast of 64-bit size/cycle expressions to a
//                         narrower type with no dominating range check and
//                         no masking/shift (/*narrow:ok: reason*/).
//
// R5-R7 run on a cross-TU symbol table + call graph (symtab.hpp,
// callgraph.hpp): receivers with a known declared type bind to that class's
// methods, everything else falls back to name matching. R9-R11 additionally
// run a forward abstract interpretation over per-function CFGs (cfg.hpp,
// absint.hpp) so facts are path-joined, not just body-scanned.
//
// Suppressions: `// NOLINT-gpuqos(rule): reason` on the finding's line or
// the line above; `// NOLINT-gpuqos-file(rule): reason` anywhere in a file.
// Findings can also be parked in a committed baseline file (one fingerprint
// per line) and burned down over time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace gpuqos::lint {

struct ParsedFile;

inline constexpr const char* kRuleStateCoverage = "state-coverage";
inline constexpr const char* kRuleThreadPurity = "thread-purity";
inline constexpr const char* kRuleCheckHygiene = "check-hygiene";
inline constexpr const char* kRuleHeaderHygiene = "header-hygiene";
inline constexpr const char* kRuleDetHazard = "det-hazard";
inline constexpr const char* kRuleConcurrency = "concurrency-discipline";
inline constexpr const char* kRuleEventCapture = "event-capture";
inline constexpr const char* kRuleStateOrder = "state-order";
inline constexpr const char* kRuleLockDiscipline = "lock-discipline";
inline constexpr const char* kRuleInputTaint = "input-taint";
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

/// Stable identity for baseline matching: rule|file|symbol (or the message
/// when the finding has no symbol). Deliberately line-number-free so
/// unrelated edits don't invalidate the baseline.
[[nodiscard]] std::string fingerprint(const Finding& f);

struct SourceFile {
  std::string path;     // as reported in findings
  std::string content;
};

struct LintOptions {
  std::set<std::string> rules;  // empty = run all
  /// Roots of the thread-purity/concurrency reachability walk. When none of
  /// them is defined in the scanned set, every function is treated as
  /// reachable (conservative fallback, also what lets test snippets lint).
  std::vector<std::string> purity_roots = {"run_many", "run_hetero"};
  /// Roots of the determinism-hazard (R5) reachability walk.
  std::vector<std::string> det_roots = {"tick", "digest", "save", "load"};
  /// Calls whose lambda arguments are deferred event payloads (R7).
  std::vector<std::string> event_calls = {"schedule", "add_ticker"};
  /// Path substrings whose files carry untrusted-input taint *sources* (R10):
  /// StateReader primitives only taint in files whose path contains one of
  /// these. Empty = every file.
  std::vector<std::string> taint_scopes = {"svc"};
  /// Parse worker threads; 0 = one per hardware thread (capped at 8).
  unsigned threads = 0;
};

struct RuleStat {
  std::string rule;
  double millis = 0;
  int findings = 0;  // pre-NOLINT/baseline
};

struct LintResult {
  std::vector<Finding> findings;  // post-NOLINT, sorted by file/line/rule
  int nolint_suppressed = 0;
  int baseline_filtered = 0;  // filled in by apply_baseline()
  // --stats instrumentation:
  std::vector<RuleStat> rule_stats;  // per rule family, reporting order
  double parse_millis = 0;
  int files_parsed = 0;  // parse-cache misses
  int cache_hits = 0;
};

/// A file plus its cache key. `stamp` is any value that changes when the
/// content changes (the CLI uses mtime ^ size); 0 disables caching for the
/// file.
struct FileInput {
  std::string path;
  std::string content;
  std::uint64_t stamp = 0;
};

/// Thread-safe (path, stamp)-keyed parse cache for embedders that lint
/// repeatedly (watch modes, tests): only files whose stamp changed are
/// re-parsed. Entries are shared_ptrs, so results stay valid while a run
/// still holds them even if the cache evicts/replaces concurrently.
class ParseCache {
 public:
  ParseCache();
  ~ParseCache();
  ParseCache(const ParseCache&) = delete;
  ParseCache& operator=(const ParseCache&) = delete;

  /// nullptr on miss (stamp 0 never hits).
  [[nodiscard]] std::shared_ptr<const ParsedFile> lookup(
      const std::string& path, std::uint64_t stamp) const;
  void store(const std::string& path, std::uint64_t stamp,
             std::shared_ptr<const ParsedFile> pf);
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t stamp = 0;
    std::shared_ptr<const ParsedFile> pf;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Lex + parse every file, run the selected rules, apply NOLINT
/// suppressions. Never touches the filesystem.
[[nodiscard]] LintResult run_lint(const std::vector<SourceFile>& files,
                                  const LintOptions& opts = {});

/// run_lint with a parse cache: files whose (path, stamp) is cached skip
/// lexing+parsing. Parsing fans out over opts.threads workers.
[[nodiscard]] LintResult run_lint_cached(const std::vector<FileInput>& files,
                                         ParseCache& cache,
                                         const LintOptions& opts = {});

/// Parse a baseline file's contents into fingerprints ('#' comments and
/// blank lines ignored).
[[nodiscard]] std::set<std::string> parse_baseline(const std::string& text);

/// Drop findings whose fingerprint is in `baseline`, counting them in
/// result.baseline_filtered.
void apply_baseline(LintResult& result, const std::set<std::string>& baseline);

/// Serialize findings as baseline fingerprints (sorted, with a header).
[[nodiscard]] std::string to_baseline(const LintResult& result);

[[nodiscard]] std::string format_human(const LintResult& result);
[[nodiscard]] std::string format_json(const LintResult& result);
/// GitHub workflow annotations (::error file=...,line=...::message).
[[nodiscard]] std::string format_github(const LintResult& result);
/// SARIF 2.1.0 (one run, one result per finding, stable partialFingerprints
/// reusing the baseline fingerprint) for code-scanning upload.
[[nodiscard]] std::string format_sarif(const LintResult& result);
/// Per-rule timing table (--stats; written to stderr by the CLI so piped
/// JSON stays parseable).
[[nodiscard]] std::string format_stats(const LintResult& result);

}  // namespace gpuqos::lint
