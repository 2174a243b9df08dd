#!/usr/bin/env bash
# gpuqos-lint CLI acceptance (docs/ANALYSIS.md, "gpuqos-lint"): for each rule
# family, seeding a deliberate violation into a scratch file must exit
# non-zero and name the rule; a compliant file must exit 0; the GitHub format
# must carry the rule, file and line; an unknown flag must exit 2.
set -euo pipefail

LINT=$1
WORK=$2

rm -rf "$WORK"
mkdir -p "$WORK"

expect_rule() {
  local rule=$1 file=$2
  local out
  if out=$("$LINT" "$file"); then
    echo "FAIL: $rule violation in $file exited 0"
    echo "$out"
    exit 1
  fi
  if ! grep -q "\[$rule\]" <<<"$out"; then
    echo "FAIL: output for $file does not name rule '$rule'"
    echo "$out"
    exit 1
  fi
  echo "ok: $rule named for $file"
}

# R1 state-coverage: field saved but missing from digest.
cat > "$WORK/r1.hpp" <<'EOF'
#pragma once
struct Module {
  void save(StateWriter& w) const { w.u64(a_); w.u64(b_); }
  void load(StateReader& r) { a_ = r.u64(); b_ = r.u64(); }
  std::uint64_t digest() const { Fnv1a64 h; h.mix(a_); return h.value(); }
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};
EOF
expect_rule state-coverage "$WORK/r1.hpp"

# R2 thread-purity: mutable namespace state reachable from run_many().
cat > "$WORK/r2.cpp" <<'EOF'
int g_calls = 0;
void helper() { ++g_calls; }
void run_many() { helper(); }
EOF
expect_rule thread-purity "$WORK/r2.cpp"

# R3 check-hygiene: bare assert().
cat > "$WORK/r3.cpp" <<'EOF'
void f(int x) { assert(x > 0); }
EOF
expect_rule check-hygiene "$WORK/r3.cpp"

# R4 header-hygiene: header without a guard.
cat > "$WORK/r4.hpp" <<'EOF'
struct Unguarded {};
EOF
expect_rule header-hygiene "$WORK/r4.hpp"

# R5 det-hazard: unordered_map folded in digest() without a det:ok escape.
cat > "$WORK/r5.hpp" <<'EOF'
#pragma once
struct Table {
  std::uint64_t digest() const {
    std::uint64_t h = 0;
    for (const auto& [k, v] : entries_) { h += k; }
    return h;
  }
  std::unordered_map<std::uint64_t, int> entries_;
};
EOF
expect_rule det-hazard "$WORK/r5.hpp"

# R1 state-coverage through a walk: save() and load() forward to
# visit_state(), which leaves out b_.
cat > "$WORK/r1_walk.hpp" <<'EOF'
#pragma once
struct Walked {
  void save(StateWriter& w) { visit_state(w); }
  void load(StateReader& r) { visit_state(r); }
  template <class IO>
  void visit_state(IO& io) { io.u64(a_); }
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};
EOF
expect_rule state-coverage "$WORK/r1_walk.hpp"

# R11 narrowing-cast: a 64-bit read truncated to int with no range check.
cat > "$WORK/r11.cpp" <<'EOF'
void load(ckpt::StateReader& r, int& out) {
  const std::uint64_t wide = r.u64();
  out = static_cast<int>(wide);
}
EOF
expect_rule narrowing-cast "$WORK/r11.cpp"

# A compliant file exits 0 and says so.
cat > "$WORK/clean.hpp" <<'EOF'
#pragma once
struct Clean {};
EOF
"$LINT" "$WORK/clean.hpp" > "$WORK/clean.txt"
grep -qx '0 finding(s)' "$WORK/clean.txt"
echo "ok: clean file exits 0"

# GitHub annotations name the rule, the file and the line.
if "$LINT" --format=github "$WORK/r4.hpp" > "$WORK/r4.github"; then
  echo "FAIL: --format=github run with a finding exited 0"
  exit 1
fi
grep -qF "::error file=$WORK/r4.hpp,line=1,title=gpuqos-lint(header-hygiene)::" \
  "$WORK/r4.github"
echo "ok: github format carries rule, file and line"

# An unknown flag is a usage error (exit 2), not a lint result.
status=0
"$LINT" --no-baseline "$WORK/clean.hpp" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: unknown flag exited $status, want 2"
  exit 1
fi
echo "ok: unknown flag exits 2"
