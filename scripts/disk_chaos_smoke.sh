#!/usr/bin/env bash
# Disk-chaos smoke: the DESIGN.md §5j storage/IPC contract end to end
# through the real binary. A journaled fig7 campaign runs with the
# journal's own file handle under deterministic disk chaos — injected
# ENOSPC, short and torn writes, failed fsyncs — and is SIGKILLed
# mid-campaign. The restart resumes from whatever intact prefix survived
# the faults, runs the rest under pipe chaos on supervised worker
# subprocesses, and must still finish with output AND canonical journal
# bytes identical to a clean run's.
#
# Checkpoint poison (disk.poison) is deliberately absent: poisoned
# checkpoints degrade real units, and the journal truthfully records that
# provenance — so a poisoned run's journal is NOT byte-identical to a
# clean one. That plane is covered by the campaign tests.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/swifi" ./cmd/swifi
cd "$workdir"

# Clean golden: output and canonical journal bytes.
./swifi -scale 0.05 -seed 7 -journal golden.wal fig7 > fig7_golden.txt

# Leg 1: disk chaos on the journal, SIGKILLed mid-campaign. The seed is
# pinned so the header write survives (the file stays resumable: a seed
# that faults the very first write leaves an empty journal -resume cannot
# read) while the very first record append degrades the journal — the
# draw schedule is a pure function of (seed, file ordinal, write index),
# so this holds on any machine.
DISK='seed=6,disk.enospc=0.08,disk.short-write=0.04,disk.torn-write=0.04,disk.sync-fail=0.5,disk.read-corrupt=0.01'
./swifi -scale 0.05 -seed 7 -journal chaos.wal -chaos "$DISK" \
  fig7 > fig7_chaos.txt 2> leg1.log &
LEG1=$!
sleep 3
kill -9 "$LEG1" 2>/dev/null || echo "leg 1 already done; resume degenerates to a replay"
wait "$LEG1" || true

# The injected disk failure must have actually bitten (degraded journal)
# unless the campaign outran the kill and recovered at completion.
if ! grep -q 'continuing without the journal' leg1.log &&
   ! grep -q 'recovered at completion' leg1.log; then
  echo "disk chaos never bit the journal; the smoke proved nothing" >&2
  cat leg1.log >&2
  exit 1
fi

# Leg 2: resume from the surviving prefix. The disk pressure has "lifted"
# (no disk.* keys) — completion-time recovery must canonicalize the
# journal back to clean-run bytes — while the proc-isolation pipes run
# under corruption, truncation and resets: CRC framing rejects poisoned
# frames, the supervisor restarts the worker and redelivers. Every sever
# costs a worker respawn, so the rates are set for a few dozen severs
# over the campaign's frames — enough to prove the restart/redeliver
# path (asserted below) without grinding the pool into respawn churn —
# and the delivery/restart headroom keeps the seeded bad luck from
# quarantining a unit or tripping the breaker: chaos must cost time,
# never verdicts. Faults are drawn per pipe write and read, and the
# pipelined worker pool moves a window of frames in each, so the rates
# are six times what one-frame-per-write delivery needed for the same
# few dozen severs.
PIPE='seed=9,pipe.corrupt=0.012,pipe.truncate=0.003,pipe.reset=0.003'
./swifi -scale 0.05 -seed 7 -journal chaos.wal -resume \
  -isolation proc -proc-max-deliveries 10 -proc-max-restarts 10000 \
  -chaos "$PIPE" -report report.json \
  fig7 > fig7_chaos.txt 2> leg2.log ||
  { echo "resume leg failed:" >&2; cat leg2.log >&2; exit 1; }

# The pipe chaos must have severed at least one worker (CRC reject or
# injected reset → restart → redeliver) and the pool must have absorbed it.
if ! grep -q 'redelivered' leg2.log; then
  echo "pipe chaos never severed a proc worker" >&2
  exit 1
fi

# Bit-identical output and journal despite ENOSPC, a SIGKILL and mangled
# worker pipes.
diff fig7_golden.txt fig7_chaos.txt
cmp golden.wal chaos.wal

# The absorbed abuse must be visible: at least one nonzero chaos_*
# counter in the end-of-run report.
if ! grep -Eq '"chaos_[a-z_]+": *[1-9]' report.json; then
  echo "no nonzero chaos_* counter in report.json" >&2
  exit 1
fi
echo "disk chaos smoke passed"
