#!/usr/bin/env bash
# Chaos smoke: the DESIGN.md §5i–5j contract end to end through the real
# binary, TCP, fault injection and the signal path — all three chaos
# planes combined. A journaled fig7 campaign is sharded over two
# executors with every fabric link running under the deterministic chaos
# proxy; the coordinator's journal disk injects ENOSPC/short/torn writes
# (the journal degrades to in-memory mode mid-campaign); one executor
# runs proc-isolation workers over corrupted pipes; and the coordinator
# is SIGKILLed mid-campaign — no goodbye, no journal close, no sidecar
# cleanup — and restarted with -resume. The merged output AND the
# canonical journal bytes must be identical to a clean single-host run,
# and the scheduling sidecar must be gone once the campaign completes.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/swifi" ./cmd/swifi
cd "$workdir"

# Single-host golden: output and canonical journal bytes.
./swifi -scale 0.05 -seed 7 -journal golden.wal fig7 > fig7_golden.txt

# Coordinator leg 1: network chaos on every link plus disk chaos on the
# journal's own file handle. The chaos seed is pinned: the fault schedule
# is a pure function of (seed, file ordinal, write index), and seed 53
# lets the journal header persist (a resumable file), degrades the
# journal within the first few merged verdicts, and leaves the fabric
# sidecar (file ordinal 1) clean until well past the kill — so crash
# recovery below is exercised from an intact session table.
CHAOS='seed=53,corrupt=0.01,drop=0.01,truncate=0.005,reset=0.005'
DISK='disk.enospc=0.08,disk.short-write=0.04,disk.torn-write=0.04'
# Leg 2 resumes after the disk pressure has "lifted": network chaos only,
# so completion-time recovery (journal.Canonicalize) runs on a healthy
# disk and must reproduce the clean run's bytes exactly.
CHAOS2='seed=7,corrupt=0.01,drop=0.01,truncate=0.005,reset=0.005'
FLAGS='-scale 0.05 -seed 7 -heartbeat-interval 100ms -heartbeat-timeout 2s'

# Coordinator 1: chaos on every accepted link, scheduling state journaled
# through the sidecar next to chaos.wal. The session timeout only has to
# cover redial-and-reattach (seconds — its clock restarts when a resumed
# coordinator recovers the session table), and it bounds how long the
# campaign stalls when an executor is truly killed below.
# shellcheck disable=SC2086
./swifi $FLAGS -journal chaos.wal \
  -fabric-listen 127.0.0.1:9372 -fabric-hosts 2 \
  -fabric-session-timeout 15s -chaos "$CHAOS,$DISK" \
  fig7 > fig7_chaos.txt 2> coord1.log &
COORD=$!

# Two executors with their own chaos streams. The dial timeout covers the
# coordinator's planning phase; the reconnect window covers its death and
# restart.
./swifi -fabric-join 127.0.0.1:9372 -workers 2 \
  -fabric-dial-timeout 60s -fabric-reconnect-window 120s \
  -chaos 'seed=8,corrupt=0.01,drop=0.01' 2> exec1.log &
EXEC1=$!
# Executor 2 (the survivor) additionally runs its units in supervised
# worker subprocesses with pipe chaos: corrupted frames are rejected by
# the CRC framing, the supervisor restarts the worker and redelivers.
# Delivery/restart headroom keeps bad luck from quarantining a unit —
# chaos must cost time, never verdicts. The pipe rates are an order of
# magnitude below the single-host disk smoke's: every CRC sever here
# costs a worker respawn AND rides on fabric link chaos, so ~10 expected
# severs over the campaign's units proves the restart/redeliver path
# without grinding the pool into respawn churn (the asserted
# 'redelivered' line below fails the drill if chaos never bites). Faults
# are drawn per pipe write and read; the pipelined pool moves a window
# of frames in each, hence six times the rates one-frame-per-write
# delivery needed for the same severs.
./swifi -fabric-join 127.0.0.1:9372 -workers 2 \
  -fabric-dial-timeout 60s -fabric-reconnect-window 120s \
  -isolation proc -proc-max-deliveries 10 -proc-max-restarts 10000 \
  -chaos 'seed=9,corrupt=0.01,drop=0.01,pipe.corrupt=0.006,pipe.truncate=0.003' 2> exec2.log &
EXEC2=$!

# Wait for the disk chaos to bite the journal (seed 53 faults the fifth
# journal write — within the first few merged verdicts), then SIGKILL
# the coordinator while it is running degraded — the crash the recovery
# path exists for. Polling for the degrade line rather than sleeping a
# fixed interval keeps the kill behind the fault on any machine speed.
for _ in $(seq 1 480); do
  grep -q 'continuing without the journal' coord1.log 2>/dev/null && break
  kill -0 "$COORD" 2>/dev/null || break
  sleep 0.5
done
if ! grep -q 'continuing without the journal' coord1.log; then
  echo "disk chaos never bit the coordinator journal" >&2
  exit 1
fi
kill -9 "$COORD" 2>/dev/null || echo "coordinator already done; restart degenerates to a journal replay"
wait "$COORD" || true

# Restart: -resume replays finished units from the journal, the sidecar
# rebuilds the session table and outstanding ranges, and the executors
# re-attach with their session tokens mid-flight. The report carries the
# injected-fault counts, and -debug-addr exposes the federated fleet view
# scraped below while the campaign is still running.
# shellcheck disable=SC2086
./swifi $FLAGS -journal chaos.wal -resume \
  -fabric-listen 127.0.0.1:9372 -fabric-hosts 1 \
  -fabric-session-timeout 15s -chaos "$CHAOS2" \
  -report report.json -debug-addr 127.0.0.1:9373 \
  fig7 > fig7_chaos.txt 2> coord2.log &
COORD2=$!

fetch() {
  curl -sf --max-time 5 "$1" 2>/dev/null || wget -qO- -T 5 "$1" 2>/dev/null
}

# Once the recovered campaign is back underway, SIGKILL an executor too:
# its session expires and its units redeliver to the survivor.
sleep 4
kill -9 "$EXEC1" 2>/dev/null || echo "executor 1 already done; campaign must still finish clean"

# Mid-campaign, the coordinator's debug endpoints must already show the
# federated fleet: host-labeled executor counters on /metrics (pushed over
# the same chaos-ridden links as the verdicts) and the live roster on
# /fleet. Polling covers the push latency (one heartbeat) without racing
# campaign completion — past the first heartbeat the series can only grow.
fleet_seen=
for _ in $(seq 1 240); do
  if fetch http://127.0.0.1:9373/metrics | grep -q 'fabric_units_executed_total{host="'; then
    fleet_seen=1
    break
  fi
  kill -0 "$COORD2" 2>/dev/null || break
  sleep 0.5
done
if [ -z "$fleet_seen" ]; then
  echo "no host-labeled federated series ever appeared on /metrics" >&2
  exit 1
fi
fetch http://127.0.0.1:9373/healthz | grep -q ok || {
  echo "/healthz not ok mid-campaign" >&2
  exit 1
}
# The JSON is indented; assert on host-row fields, not layout.
fetch http://127.0.0.1:9373/fleet > fleet.json
grep -q '"name"' fleet.json && grep -q '"attached"' fleet.json || {
  echo "/fleet returned no live host rows: $(cat fleet.json)" >&2
  exit 1
}

wait "$COORD2"
wait "$EXEC1" || true
# The surviving executor must ride out everything and exit clean.
wait "$EXEC2"

# Bit-identical output and journal; no scheduling state left behind.
diff fig7_golden.txt fig7_chaos.txt
cmp golden.wal chaos.wal
if [ -e chaos.wal.fabric ]; then
  echo "fabric sidecar survived a completed campaign" >&2
  exit 1
fi
# The pipe chaos must have severed at least one proc worker (CRC reject →
# restart → redeliver) and the pool must have absorbed it.
if ! grep -q 'redelivered' exec2.log; then
  echo "pipe chaos never severed a proc worker on executor 2" >&2
  exit 1
fi
# The absorbed abuse must be visible: at least one nonzero chaos_*
# counter in the end-of-run report (a chaos run that injected nothing
# tested nothing).
if ! grep -Eq '"chaos_[a-z_]+": *[1-9]' report.json; then
  echo "no nonzero chaos_* counter in report.json" >&2
  exit 1
fi
echo "chaos smoke passed"
