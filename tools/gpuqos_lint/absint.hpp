// Forward abstract interpretation over the lint CFG (docs/ANALYSIS.md,
// "gpuqos-lint").
//
// The engine is rule-agnostic: a state is a string-keyed map of small
// integer lattice values (R11 keeps range-checked marks), and each rule
// supplies a Domain describing its lattice join and its transfer functions.
// Two passes run per function:
//   solve()  — worklist fixpoint over block-entry states. Joins are
//              pointwise; a key missing on one side is resolved by
//              Domain::join_missing, which lets one domain mix may-facts
//              (missing = bottom, keep the other side) and must-facts
//              (checks: missing = not established, drop) in one state.
//   report() — one replay over the stabilized states, calling visit hooks
//              with the state *before* each statement / branch so rules emit
//              findings against converged facts. Blocks never reached in
//              solve() (dead code after return/break) are skipped.
#pragma once

#include <climits>
#include <cstddef>
#include <map>
#include <string>

#include "cfg.hpp"

namespace gpuqos::lint {

/// Abstract environment: lattice value per tracked key. Keys are
/// rule-defined (variable names, member chains).
using AbsState = std::map<std::string, int>;

class Domain {
 public:
  virtual ~Domain() = default;

  /// State on entry to the function (default: empty).
  [[nodiscard]] virtual AbsState entry_state() const { return {}; }

  /// Join two present values for `key` (must be monotone).
  [[nodiscard]] virtual int join(const std::string& key, int a, int b) const = 0;

  /// Resolve `key` present on one side of a join with value `v` and missing
  /// on the other. Return the joined value, or kDrop to remove the key
  /// (must-facts: an unestablished path kills the fact).
  [[nodiscard]] virtual int join_missing(const std::string& key,
                                         int v) const = 0;
  static constexpr int kDrop = INT_MIN;

  /// Apply one statement's effect to the state.
  virtual void transfer(AbsState& s, const CfgStmt& stmt) = 0;

  /// Refine the state along a conditional edge. `taken` is true on the
  /// condition's true edge. Default: no refinement.
  virtual void transfer_branch(AbsState& s, const CfgBlock& b, bool taken) {
    (void)s;
    (void)b;
    (void)taken;
  }

  /// Reporting hooks, called by report() with the pre-state.
  virtual void visit(const AbsState& s, const CfgStmt& stmt) {
    (void)s;
    (void)stmt;
  }
  virtual void visit_branch(const AbsState& s, const CfgBlock& b) {
    (void)s;
    (void)b;
  }
};

struct AbsResult {
  std::vector<AbsState> block_in;  // entry state per block
  std::vector<bool> reached;
};

/// Run the worklist fixpoint. Iteration is bounded (the lattices are finite
/// — keys come from program tokens, values from small enums — but the bound
/// keeps a buggy domain from hanging the lint).
[[nodiscard]] AbsResult solve(const Cfg& cfg, Domain& d);

/// Replay each reached block from its converged entry state, calling
/// Domain::visit before every statement and Domain::visit_branch before the
/// block's conditional exit.
void report(const Cfg& cfg, Domain& d, const AbsResult& r);

}  // namespace gpuqos::lint
