// Internal rule entry points; each appends findings for its rule family.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "ast.hpp"
#include "callgraph.hpp"
#include "lint.hpp"
#include "symtab.hpp"

namespace gpuqos::lint {

// ---- helpers shared by the rule files -------------------------------------

inline Finding make(const char* rule, const std::string& file, int line,
                    std::string symbol, std::string message) {
  return Finding{rule, file, line, std::move(symbol), std::move(message)};
}

inline bool is_one_of(const std::string& s,
                      std::initializer_list<const char*> set) {
  return std::any_of(set.begin(), set.end(),
                     [&](const char* v) { return s == v; });
}

/// `Outer::Inner` -> `Inner`.
inline std::string simple_name(const std::string& name) {
  return name.substr(name.rfind(':') + 1);
}

/// Matching close for the punct group opened at t[open] ('(', '[', '{' or
/// '<'), or `limit` when the group does not close before it.
inline std::size_t match_close(const std::vector<Token>& t, std::size_t open,
                               const char* o, const char* c,
                               std::size_t limit) {
  int depth = 0;
  for (std::size_t k = open; k < limit; ++k) {
    if (t[k].kind != Tok::Punct) continue;
    if (t[k].text == o) ++depth;
    if (t[k].text == c && --depth == 0) return k;
  }
  return limit;
}

// ---- rule families ---------------------------------------------------------

/// R1: save/load/digest field coverage, cross-file (out-of-line bodies); a
/// save()/load() that forwards to visit_state() is read through the walk.
void rule_state_coverage(const std::vector<const ParsedFile*>& files,
                         std::vector<Finding>& out);

/// R2: mutable statics reachable from the purity roots' call graph.
void rule_thread_purity(const std::vector<const ParsedFile*>& files,
                        const std::vector<std::string>& roots,
                        std::vector<Finding>& out);

/// R3: bare assert(), raw new/delete, un-stamped cerr/clog. Token-level.
void rule_check_hygiene(const ParsedFile& file, std::vector<Finding>& out);

/// R4: #pragma once / include-guard presence in headers.
void rule_header_hygiene(const ParsedFile& file, std::vector<Finding>& out);

/// R5: determinism hazards (unordered iteration, pointer-keyed ordering,
/// address-as-value, wall-clock/PRNG reads, float accumulation order) in
/// functions reachable from the det roots. /*det:ok: reason*/ escapes.
void rule_det_hazard(const Symtab& st, const CallGraph& cg,
                     const std::vector<std::string>& det_roots,
                     std::vector<Finding>& out);

/// R11: narrowing static_casts of 64-bit size/cycle expressions without a
/// dominating range check or masking idiom. /*narrow:ok: reason*/.
void rule_narrowing_cast(const Symtab& st, std::vector<Finding>& out);

}  // namespace gpuqos::lint
