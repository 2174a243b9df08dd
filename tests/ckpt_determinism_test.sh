#!/usr/bin/env bash
# Checkpoint-resume determinism (docs/CHECKPOINT.md): a run resumed from a
# mid-run snapshot must replay the rest of the simulation bit-for-bit — its
# digest stream must match the uninterrupted run's stream from the snapshot
# cycle onward. Also checks that truncated snapshots are rejected with a
# clear error and a nonzero exit.
#
# usage: ckpt_determinism_test.sh GPUQOS_RUN DIGEST_DIFF MIX WORK [POLICY]
# POLICY defaults to ThrotCPUprio; SMS-0.9 also round-trips the DRAM
# schedulers' dramsched<c> sections, which a resume must restore.
set -euo pipefail

GPUQOS_RUN=$1
DIGEST_DIFF=$2
MIX=$3
WORK=$4
POLICY=${5:-ThrotCPUprio}

mkdir -p "$WORK"
export GPUQOS_FAST=1

# Dense digests so even a short post-snapshot suffix yields records to
# compare; barriers every 2M cycles so at least one lands mid-run.
DIGEST_ARGS=(--digest-interval 100000)
SNAP="$WORK/$MIX.snap"

# Straight run: snapshot overwritten at every barrier, each write announced
# on stderr ("# ckpt: wrote <path> at cycle <C>").
"$GPUQOS_RUN" "$MIX" "$POLICY" \
    --ckpt-interval 2000000 --ckpt-out "$SNAP" \
    --digest-out "$WORK/$MIX.straight.digest" "${DIGEST_ARGS[@]}" \
    > /dev/null 2> "$WORK/$MIX.straight.err"

# The file holds the LAST barrier's snapshot; recover its cycle from the
# final announcement.
CYCLE=$(grep -o 'at cycle [0-9]*' "$WORK/$MIX.straight.err" \
        | tail -1 | awk '{print $3}')
if [ -z "${CYCLE:-}" ]; then
  echo "FAIL: no checkpoint announcement on stderr" >&2
  cat "$WORK/$MIX.straight.err" >&2
  exit 1
fi
echo "last snapshot written at cycle $CYCLE"

# Resume with the same instrumentation; must replay the suffix identically.
"$GPUQOS_RUN" "$MIX" "$POLICY" --resume "$SNAP" \
    --digest-out "$WORK/$MIX.resumed.digest" "${DIGEST_ARGS[@]}" > /dev/null

RECORDS=$(grep -c . "$WORK/$MIX.resumed.digest" || true)
if [ "$RECORDS" -lt 10 ]; then
  echo "FAIL: resumed digest stream is trivial ($RECORDS records)" >&2
  exit 1
fi

echo "straight-vs-resumed (from cycle $CYCLE, $RECORDS resumed records):"
"$DIGEST_DIFF" --from "$CYCLE" \
    "$WORK/$MIX.straight.digest" "$WORK/$MIX.resumed.digest"

# Negative: a truncated snapshot must fail gracefully, not crash or run.
head -c 150 "$SNAP" > "$WORK/$MIX.trunc.snap"
if "$GPUQOS_RUN" "$MIX" "$POLICY" --resume "$WORK/$MIX.trunc.snap" \
    "${DIGEST_ARGS[@]}" --digest-out "$WORK/$MIX.trunc.digest" \
    > /dev/null 2> "$WORK/$MIX.trunc.err"; then
  echo "FAIL: truncated snapshot was accepted" >&2
  exit 1
fi
if ! grep -q "checkpoint error:" "$WORK/$MIX.trunc.err"; then
  echo "FAIL: no clear error message for the truncated snapshot" >&2
  cat "$WORK/$MIX.trunc.err" >&2
  exit 1
fi
echo "truncated snapshot rejected: $(cat "$WORK/$MIX.trunc.err")"
