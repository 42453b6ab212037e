#!/usr/bin/env bash
# End-to-end drills: the scaled Figure 7 campaign through the real binary,
# TCP and signal path must reproduce one golden, computed once for every
# scenario: the stdout and canonical journal of a clean, journaled,
# single-host run. Each scenario also fails if its perturbation never
# happened.
#
#   scripts/drill.sh <scenario>... | all
#
# Scenarios (DESIGN.md §5d–5j): resume (SIGINT, resume), proc-kill
# (SIGKILL a proc worker), fabric-kill (SIGKILL one of two executors),
# chaos (link, disk and pipe chaos, SIGKILL and resume the coordinator,
# SIGKILL an executor), disk-chaos (disk chaos, SIGKILL, resume under pipe
# chaos), telemetry (/metrics mid-run, trace and report written).
# Everything runs in a temporary directory; a failure names its scenario.
# The drills bind the loopback ports 9190 and 9371–9373.
set -euo pipefail

all=(resume proc-kill fabric-kill chaos disk-chaos telemetry)
usage() {
  echo "usage: $0 <scenario>... | all (scenarios: ${all[*]})" >&2
  exit 2
}
[ $# -gt 0 ] || usage
scenarios=("$@")
[ "$*" != all ] || scenarios=("${all[@]}")
for s in "${scenarios[@]}"; do
  [[ " ${all[*]} " == *" $s "* ]] || usage
done

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
current=
cleanup() {
  local status=$?
  # shellcheck disable=SC2046
  kill -9 $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$work"
  [ "$status" = 0 ] || [ -z "$current" ] || echo "drill $current: FAILED" >&2
}
trap cleanup EXIT

fail() { echo "drill $current: $*" >&2; exit 1; }

# same <output> [<journal>]: byte-identical to the golden's.
same() {
  diff "$work/golden.txt" "$1" >&2 || fail "$1 differs from the golden output"
  [ $# = 1 ] || cmp "$work/golden.wal" "$2" >&2 || fail "$2 differs from the golden journal"
}

# wait_for_log <file> <pattern> <pid>: poll until the pattern appears (0)
# or the process exits or 4 minutes pass (1).
wait_for_log() {
  local i
  for ((i = 0; i < 2400; i++)); do
    grep -q -- "$2" "$1" 2>/dev/null && return 0
    kill -0 "$3" 2>/dev/null || break
    sleep 0.1
  done
  grep -q -- "$2" "$1" 2>/dev/null
}

fetch() { curl -sf --max-time 5 "$1" 2>/dev/null || wget -qO- -T 5 "$1" 2>/dev/null; }

# A chaos run whose report has no nonzero chaos_* counter tested nothing.
chaos_bit() { grep -Eq '"chaos_[a-z_]+": *[1-9]' "$1" || fail "no nonzero chaos_* counter in $1"; }

swifi="$work/swifi"
FIG7=(-scale 0.05 -seed 7)

drill_resume() {
  timeout -s INT 6 "$swifi" "${FIG7[@]}" -journal run.wal fig7 > part.txt 2> part.log || true
  grep -q 'swifi: interrupted:' part.log || fail "the SIGINT did not land mid-campaign"
  "$swifi" "${FIG7[@]}" -journal run.wal -resume fig7 > resumed.txt
  same resumed.txt run.wal
}

# A worker up for 6 s is past its handshake (re-planning takes seconds) and
# holds units in flight; the supervisor must restart it and redeliver them.
drill_proc-kill() {
  "$swifi" "${FIG7[@]}" -isolation=proc -workers 4 fig7 > proc.txt 2> proc.log &
  local camp=$! killed= pid
  while [ -z "$killed" ] && kill -0 "$camp" 2>/dev/null; do
    for pid in $(pgrep -P "$camp" -f worker-mode || true); do
      if [ "$(ps -o etimes= -p "$pid")" -ge 6 ] 2>/dev/null && kill -9 "$pid"; then
        killed=1
        break
      fi
    done
    sleep 0.1
  done
  wait "$camp"
  [ -n "$killed" ] || fail "no worker-mode child of the campaign appeared to be killed"
  grep -E 'worker\[[0-9]+\]:' proc.log >&2 || fail "the supervisor logged no worker death"
  same proc.txt
}

# Executor 1 dies only after the shard is cut (killed earlier, it would
# leave the coordinator waiting for a second host). Both executors run
# under this machine's hostname, so the coordinator must name them apart,
# and each must learn its own name from the welcome ('ready as "<name>"').
drill_fabric-kill() {
  timeout 600 "$swifi" "${FIG7[@]}" -fabric-listen 127.0.0.1:9371 -fabric-hosts 2 \
    fig7 > fabric.txt 2> coord.log &
  local coord=$! killed= e name
  "$swifi" -fabric-join 127.0.0.1:9371 -workers 2 -fabric-dial-timeout 60s 2> exec1.log &
  local exec1=$!
  "$swifi" -fabric-join 127.0.0.1:9371 -workers 2 -fabric-dial-timeout 60s 2> exec2.log &
  local exec2=$!
  while [ -z "$killed" ] && kill -0 "$coord" 2>/dev/null; do
    if grep -qF '2 executor(s) ready; sharding' coord.log &&
      grep -qF 'ready as "' exec1.log && kill -9 "$exec1"; then
      killed=1
    fi
    sleep 0.1
  done
  wait "$coord" || { cat coord.log >&2; fail "the coordinator failed or hung"; }
  [ -n "$killed" ] || { cat coord.log >&2; fail "executor 1 was not killed after the shard was cut"; }
  [ "$(grep -o 'executor [^ ]* joined' coord.log | sort -u | wc -l)" = 2 ] ||
    { cat coord.log >&2; fail "want 2 distinct executor names"; }
  wait "$exec2" || true
  for e in exec1.log exec2.log; do
    name=$(grep -o 'ready as "[^"]*"' "$e" | head -n 1 | cut -d'"' -f2)
    if [ -z "$name" ] || ! grep -qF "executor $name joined" coord.log; then
      cat coord.log "$e" >&2
      fail "$e: ready as \"$name\" names none of the coordinator's joined executors"
    fi
    echo "$name" >> names.txt
  done
  [ "$(sort -u names.txt | wc -l)" = 2 ] || fail "both executors hold one name: $(cat names.txt)"
  same fabric.txt
}

# All three chaos planes at once, then a coordinator crash. The restarted
# coordinator keeps nothing on disk but the journal, so an executor must
# re-attach to its session.
drill_chaos() {
  # The fault schedule is a pure function of (seed, file ordinal, write
  # index). For the coordinator's journal, seed 53 lets the header persist
  # (a resumable file) and degrades the journal within the first few merged
  # verdicts. Leg 2 runs with the disk pressure lifted, so completion-time
  # recovery (journal.Canonicalize) runs on a healthy disk.
  local chaos1='seed=53,corrupt=0.01,drop=0.01,truncate=0.005,reset=0.005'
  local disk='disk.enospc=0.08,disk.short-write=0.04,disk.torn-write=0.04'
  local chaos2='seed=7,corrupt=0.01,drop=0.01,truncate=0.005,reset=0.005'
  local flags=("${FIG7[@]}" -heartbeat-interval 100ms -heartbeat-timeout 2s)
  local join=(-fabric-join 127.0.0.1:9372 -workers 2 -fabric-dial-timeout 60s -fabric-reconnect-window 120s)
  "$swifi" "${flags[@]}" -journal chaos.wal -fabric-listen 127.0.0.1:9372 -fabric-hosts 2 \
    -fabric-session-timeout 15s -chaos "$chaos1,$disk" fig7 > chaos.txt 2> coord1.log &
  local coord=$!
  "$swifi" "${join[@]}" -chaos 'seed=8,corrupt=0.01,drop=0.01' 2> exec1.log &
  local exec1=$!
  # The survivor runs proc workers over corrupted pipes. Every sever costs
  # a respawn on top of link chaos, so its rates are an order of magnitude
  # below disk-chaos's; the headroom keeps bad luck from quarantining.
  "$swifi" "${join[@]}" -isolation proc -proc-max-deliveries 10 -proc-max-restarts 10000 \
    -chaos 'seed=9,corrupt=0.01,drop=0.01,pipe.corrupt=0.006,pipe.truncate=0.003' 2> exec2.log &
  local exec2=$!

  # Kill the coordinator once the disk chaos has degraded its journal.
  wait_for_log coord1.log 'continuing without the journal' "$coord" ||
    fail "disk chaos never bit the coordinator journal"
  local killed_mid_campaign=
  kill -9 "$coord" 2>/dev/null && killed_mid_campaign=1 ||
    echo "drill chaos: coordinator already done; the restart degenerates to a replay" >&2
  wait "$coord" || true

  "$swifi" "${flags[@]}" -journal chaos.wal -resume -fabric-listen 127.0.0.1:9372 -fabric-hosts 1 \
    -fabric-session-timeout 15s -chaos "$chaos2" -report report.json -debug-addr 127.0.0.1:9373 \
    fig7 > chaos.txt 2> coord2.log &
  local coord2=$!
  # Once the recovered campaign is under way, kill an executor too: its
  # session expires and its units go to the survivor.
  sleep 4
  kill -9 "$exec1" 2>/dev/null || echo "drill chaos: executor 1 already done" >&2

  # Mid-campaign, /metrics must carry host-labelled executor series
  # (federated over the chaos-ridden links) and /fleet live host rows.
  local fleet_seen= i
  for ((i = 0; i < 240; i++)); do
    if fetch http://127.0.0.1:9373/metrics | grep -q 'fabric_units_executed_total{host="'; then
      fleet_seen=1
      break
    fi
    kill -0 "$coord2" 2>/dev/null || break
    sleep 0.5
  done
  [ -n "$fleet_seen" ] || fail "no host-labelled federated series ever appeared on /metrics"
  fetch http://127.0.0.1:9373/healthz | grep -q ok || fail "/healthz not ok mid-campaign"
  fetch http://127.0.0.1:9373/fleet > fleet.json || true
  grep -q '"name"' fleet.json && grep -q '"attached"' fleet.json ||
    fail "/fleet returned no live host rows: $(cat fleet.json)"

  wait "$coord2"
  wait "$exec1" || true
  wait "$exec2" # the survivor must ride out everything and exit clean
  same chaos.txt chaos.wal
  if [ -n "$killed_mid_campaign" ] && ! grep -q 're-attached to session' coord2.log; then
    fail "no executor re-attached to its session after the coordinator restart"
  fi
  grep -q 'redelivered' exec2.log || fail "pipe chaos never severed a proc worker on executor 2"
  chaos_bit report.json
}

# Checkpoint poison (disk.poison) is left out: a poisoned unit really
# degrades, and the journal truthfully records that, so its bytes differ.
# The campaign tests cover it.
drill_disk-chaos() {
  # Seed 6 lets the header write survive (the file stays resumable) and
  # degrades the journal at the first record append.
  local disk='seed=6,disk.enospc=0.08,disk.short-write=0.04,disk.torn-write=0.04,disk.sync-fail=0.5,disk.read-corrupt=0.01'
  "$swifi" "${FIG7[@]}" -journal chaos.wal -chaos "$disk" fig7 > chaos.txt 2> leg1.log &
  local leg1=$!
  sleep 3
  kill -9 "$leg1" 2>/dev/null || echo "drill disk-chaos: leg 1 already done; the resume degenerates to a replay" >&2
  wait "$leg1" || true
  grep -q 'continuing without the journal' leg1.log || grep -q 'recovered at completion' leg1.log ||
    { cat leg1.log >&2; fail "disk chaos never bit the journal"; }

  # Leg 2: the disk pressure has lifted, so completion-time recovery must
  # canonicalize the journal back to the clean bytes, while CRC framing
  # rejects mangled pipe frames and the supervisor restarts and redelivers.
  # The rates give a few dozen severs; the headroom keeps seeded bad luck
  # from quarantining a unit or tripping the breaker.
  local pipe='seed=9,pipe.corrupt=0.012,pipe.truncate=0.003,pipe.reset=0.003'
  "$swifi" "${FIG7[@]}" -journal chaos.wal -resume \
    -isolation proc -proc-max-deliveries 10 -proc-max-restarts 10000 \
    -chaos "$pipe" -report report.json fig7 > chaos.txt 2> leg2.log ||
    { cat leg2.log >&2; fail "the resume leg failed"; }
  grep -q 'redelivered' leg2.log || fail "pipe chaos never severed a proc worker"
  same chaos.txt chaos.wal
  chaos_bit report.json
}

drill_telemetry() {
  "$swifi" "${FIG7[@]}" -debug-addr 127.0.0.1:9190 -trace trace.jsonl -report report.json \
    -progress on fig7 > telemetry.txt 2> telemetry.log &
  local camp=$! live= i
  for ((i = 0; i < 30; i++)); do
    if fetch http://127.0.0.1:9190/metrics | grep -E '^campaign_units_done_total [1-9]'; then
      live=1
      break
    fi
    sleep 1
  done
  [ -n "$live" ] || { cat telemetry.log >&2; fail "no nonzero campaign_units_done_total on /metrics mid-run"; }
  fetch http://127.0.0.1:9190/debug/vars > /dev/null || fail "/debug/vars unreachable"
  wait "$camp"
  same telemetry.txt
  [ -s trace.jsonl ] || fail "the trace sink is empty"
  grep -q '"tallies"' report.json || fail "report.json carries no tallies"
}

current=build
go -C "$root" build -o "$swifi" ./cmd/swifi
current=golden
"$swifi" "${FIG7[@]}" -journal "$work/golden.wal" fig7 > "$work/golden.txt"
for s in "${scenarios[@]}"; do
  current=$s
  start=$SECONDS
  mkdir "$work/$s"
  cd "$work/$s"
  "drill_$s"
  echo "drill $s: passed ($((SECONDS - start)) s)"
done
current=
