#!/usr/bin/env bash
# Determinism regression (docs/ANALYSIS.md): two seeded runs of the same mix
# must produce byte-identical digest streams, and the stream must match the
# committed fixture in tests/fixtures/. Run b also writes every telemetry
# sink, so the run-vs-run diff checks that observability does not perturb
# the simulation. Regenerate a fixture after an intentional behaviour change
# with:
#   GPUQOS_FAST=1 gpuqos_run <mix> ThrotCPUprio --digest-out \
#       tests/fixtures/<mix>.digest --digest-interval 500000
set -euo pipefail

GPUQOS_RUN=$1
DIGEST_DIFF=$2
MIX=$3
FIXTURE=$4
WORK=$5

mkdir -p "$WORK"
export GPUQOS_FAST=1

"$GPUQOS_RUN" "$MIX" ThrotCPUprio --check \
    --digest-out "$WORK/$MIX.a.digest" --digest-interval 500000 > /dev/null
"$GPUQOS_RUN" "$MIX" ThrotCPUprio --check \
    --sample-interval 100000 \
    --samples-out "$WORK/$MIX.samples.jsonl" \
    --journal-out "$WORK/$MIX.journal.jsonl" \
    --trace-out "$WORK/$MIX.trace.json" \
    --prof-out "$WORK/$MIX.profile.json" \
    --counters-out "$WORK/$MIX.counters.json" \
    --stats-json "$WORK/$MIX.stats.json" \
    --digest-out "$WORK/$MIX.b.digest" --digest-interval 500000 > /dev/null

echo "run-vs-run:"
"$DIGEST_DIFF" "$WORK/$MIX.a.digest" "$WORK/$MIX.b.digest"
echo "run-vs-fixture:"
"$DIGEST_DIFF" "$WORK/$MIX.a.digest" "$FIXTURE"

# --samples-out without --sample-interval is a usage error: the sampler would
# never tick, so the file would be empty. It must fail before simulating and
# leave no file behind.
rm -f "$WORK/$MIX.unsampled.jsonl"
if "$GPUQOS_RUN" "$MIX" ThrotCPUprio \
    --samples-out "$WORK/$MIX.unsampled.jsonl" > /dev/null 2>&1; then
    echo "--samples-out without --sample-interval was accepted" >&2
    exit 1
fi
if [ -e "$WORK/$MIX.unsampled.jsonl" ]; then
    echo "--samples-out without --sample-interval created a file" >&2
    exit 1
fi
echo "samples-out without interval: rejected"
