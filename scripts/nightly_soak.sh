#!/usr/bin/env bash
# Nightly long-haul jobs — everything too slow for the tier-1 suite.
#
#   1. The partition-heal soak: fabric campaigns run back to back while
#      every link keeps falling into multi-second asymmetric partitions
#      that heal mid-campaign (internal/fabric/soak_test.go, gated behind
#      SWIFI_SOAK=1). SWIFI_SOAK_FOR overrides the 2-minute default.
#   2. The journal fuzzer: arbitrary bytes against the journal loader,
#      seeded from real journal files. SWIFI_FUZZ_FOR overrides the
#      budget.
#   3. The disk-chaos drill: ENOSPC + SIGKILL + resume + pipe chaos through
#      the real binary (scripts/drill.sh disk-chaos).
#
# Wire this into the nightly CI job; a clean exit means every drill passed.
set -euo pipefail
cd "$(dirname "$0")/.."

SWIFI_SOAK=1 SWIFI_SOAK_FOR="${SWIFI_SOAK_FOR:-2m}" \
  go test ./internal/fabric/ -run 'TestFabricPartitionHealSoak' -v -timeout 30m

go test ./internal/journal/ -run=NONE -fuzz 'FuzzJournalOpen' \
  -fuzztime "${SWIFI_FUZZ_FOR:-60s}" -timeout 30m

scripts/drill.sh disk-chaos

echo "nightly soak passed"
