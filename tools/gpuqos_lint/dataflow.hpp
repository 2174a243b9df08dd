// Per-function dataflow helpers for the semantic rules (R5, R11): local
// declaration scanning, type classification, and annotation lookup. All
// heuristics over the flat token stream — precise enough for the project's
// house style, over-approximate elsewhere.
#pragma once

#include <map>
#include <string>

#include "symtab.hpp"

namespace gpuqos::lint {

struct LocalVar {
  std::string type;  // space-joined declaration tokens
  int line = 0;
  bool is_param = false;
};

/// Parameters plus block-scope `Type name ...;` declarations recovered from
/// the function body by a statement-head heuristic. Returns an empty map for
/// bodyless functions (declarations, macro pseudo-functions).
[[nodiscard]] std::map<std::string, LocalVar> scan_locals(const SymFn& fn);

// Type-string classifiers over the parser's space-joined token strings.
[[nodiscard]] bool type_is_unordered(const std::string& type);
[[nodiscard]] bool type_is_float(const std::string& type);
/// std::map / std::set (and multi- variants) keyed by a raw pointer: the
/// iteration order is the allocator's, different run to run under ASLR.
[[nodiscard]] bool type_is_ptr_keyed_ordered(const std::string& type);

/// Whether a comment containing `tag` sits on `line` or on an own-line
/// comment directly above it — the escape-hatch placement rule for
/// /*det:ok: ...*/ and /*narrow:ok: ...*/ annotations.
[[nodiscard]] bool line_annotated(const ParsedFile& pf, int line,
                                  const char* tag);

/// Resolve the declared type of `name` inside `fn`: locals/params first,
/// then fields of the enclosing class, then namespace-scope variables of the
/// defining file. Empty when unknown.
[[nodiscard]] std::string resolve_type(
    const SymFn& fn, const std::map<std::string, LocalVar>& locals,
    const Symtab& st, const std::string& name);

}  // namespace gpuqos::lint
