#!/usr/bin/env bash
# The watchdog must track the *serving* generation through a failed
# upgrade (DESIGN.md §16): a successor announces itself as soon as it
# listens, but it leads only once it is ready. Walk:
#
#   1. jslice_watchdog runs jslice_serve with a long readiness delay.
#   2. SIGUSR2 to the watchdog: generation 1 spawns a successor.
#   3. kill -9 the successor before it is ready: generation 1 rolls
#      back and keeps serving. The watchdog must keep watching
#      generation 1 — never "now watching leader pid <successor>".
#   4. A second SIGUSR2 through the watchdog must reach generation 1
#      and spawn a new successor, which this time becomes ready and
#      takes over; the watchdog then watches it.
#   5. SIGTERM drains the tree; the watchdog exits 0.
#
#   service_watchdog_rollback.sh <jslice_watchdog> <jslice_serve> <workdir>
set -u

WATCHDOG="$1"
SERVE="$2"
WORK="$3"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

PIDS=()
cleanup() {
  for P in "${PIDS[@]}"; do
    kill -9 "$P" 2>/dev/null
  done
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1"
  echo "--- err.log ---"
  cat err.log 2>/dev/null
  exit 1
}

# Waits until err.log holds $1 at least ${2:-1} times.
wait_log() {
  for _ in $(seq 1 300); do
    [ "$(grep -cF "$1" err.log 2>/dev/null)" -ge "${2:-1}" ] && return 0
    sleep 0.1
  done
  return 1
}

spawned_pid() {
  sed -n "s/^jslice_serve: spawning generation $1 (pid \([0-9]*\))\$/\1/p" \
    err.log | sed -n "${2:-1}p"
}

"$WATCHDOG" --health-interval-ms 200 -- "$SERVE" --listen 127.0.0.1:0 \
  --journal wal.jsonl --quarantine quarantine --ready-delay-ms 4000 \
  > out.log 2> err.log &
WD=$!
PIDS+=("$WD")

wait_log "jslice_serve: generation 1 pid" || fail "generation 1 never started"
GEN1=$(sed -n 's/^jslice_serve: generation 1 pid \([0-9]*\)$/\1/p' err.log)
PIDS+=("$GEN1") # A SIGKILLed watchdog would orphan it.

# --- A successor killed before readiness ------------------------------
kill -USR2 "$WD"
wait_log "spawning generation 2 (pid" || fail "SIGUSR2 spawned no successor"
SUCC=$(spawned_pid 2)
PIDS+=("$SUCC")
wait_log "jslice_serve: generation 2 pid $SUCC" \
  || fail "successor never listened"
kill -9 "$SUCC"
wait_log "rolling back to generation 1" || fail "generation 1 never rolled back"
sleep 0.5
grep -qF "now watching leader pid $SUCC" err.log \
  && fail "watchdog adopted the successor that died before readiness"
kill -0 "$GEN1" 2>/dev/null || fail "generation 1 died after the rollback"
grep -qF "jslice_watchdog: leader pid" err.log \
  && fail "watchdog declared a death after a rollback"

# --- The next upgrade still goes through ------------------------------
kill -USR2 "$WD"
wait_log "spawning generation 2 (pid" 2 \
  || fail "second SIGUSR2 through the watchdog spawned nothing"
SUCC2=$(spawned_pid 2 2)
PIDS+=("$SUCC2")
wait_log "ready; draining generation 1" || fail "second upgrade never ready"
wait_log "now watching leader pid $SUCC2" \
  || fail "watchdog never adopted the ready successor"

# --- Drain ------------------------------------------------------------
kill -TERM "$WD"
wait "$WD"
RC=$?
[ "$RC" -eq 0 ] || fail "watchdog exited $RC on SIGTERM (want 0)"
grep -c "jslice_serve: spawning generation" err.log | grep -qx 2 \
  || fail "unexpected extra generations spawned"
echo "PASS: watchdog followed the serving generation through a rollback"
exit 0
