// Intra-procedural control-flow graph over a function body's token range
// (docs/ANALYSIS.md, "gpuqos-lint").
//
// The builder walks the flat token stream between FunctionDef::body_begin and
// body_end and recovers basic blocks at statement granularity: if/else,
// while/for/do, switch/case, break/continue, return/throw, and nested brace
// scopes. It is the substrate the flow-sensitive narrowing-cast rule (R11)
// runs its abstract interpretation on; precision follows the project house
// style and degrades gracefully elsewhere:
//   * a statement is a token range [begin, end) inside one basic block;
//   * conditional blocks expose their condition token range and order their
//     successors [true-edge, false-edge] so branch-sensitive transfer
//     functions (a range check dominating a cast) can refine per edge;
//   * brace groups inside expressions (lambda bodies, init-lists) are kept
//     opaque: their tokens belong to the enclosing statement and contribute
//     no blocks. Lambdas execute on a different frame; rules that care scan
//     them separately.
#pragma once

#include <cstddef>
#include <vector>

#include "token.hpp"

namespace gpuqos::lint {

struct CfgStmt {
  std::size_t begin = 0;  // token range [begin, end) in the owning stream
  std::size_t end = 0;
};

struct CfgBlock {
  std::vector<CfgStmt> stmts;
  /// Token range of the branch condition when this block ends in one
  /// (if/while/for/do/switch heads). Empty range otherwise.
  std::size_t cond_begin = 0;
  std::size_t cond_end = 0;
  bool has_cond = false;
  /// This conditional is a while/for/do loop head: its condition bounds the
  /// trip count, unlike a plain if.
  bool loop_head = false;
  /// Successor block ids. For has_cond blocks succ[0] is the true edge and
  /// succ[1] the false edge; switch heads list one edge per label plus the
  /// fall-past edge last.
  std::vector<std::size_t> succ;
};

struct Cfg {
  std::vector<CfgBlock> blocks;
  std::size_t entry = 0;
  std::size_t exit = 0;  // unified exit: returns, throws, and fall-off-end
};

/// Build the CFG for the body brace group at [body_begin, body_end) ('{'
/// included, one past '}' excluded). Returns an entry-and-exit-only graph for
/// an empty or missing body.
[[nodiscard]] Cfg build_cfg(const std::vector<Token>& tokens,
                            std::size_t body_begin, std::size_t body_end);

}  // namespace gpuqos::lint
