#!/usr/bin/env bash
# Usage errors are decided before the server touches anything: exit 2,
# and the journal is left exactly as it was.
#
#   service_usage_errors.sh conflict <jslice_serve> <workdir> <journal>
#     --listen with --input over a copy of <journal> (a journal with an
#     unmatched begin). Recovery must not run: the copy stays
#     byte-identical and no quarantine directory appears.
#   service_usage_errors.sh range <jslice_serve>
#     Numeric flags whose fields are narrower than 64 bits reject values
#     they cannot hold instead of wrapping them.
set -u

MODE="$1"
SERVE="$2"

fail() {
  echo "FAIL($MODE): $*"
  exit 1
}

case "$MODE" in
conflict)
  WORK="$3"
  rm -rf "$WORK"
  mkdir -p "$WORK"
  cp "$4" "$WORK/journal.jsonl"
  cp "$4" "$WORK/pristine.jsonl"
  : > "$WORK/requests.jsonl"
  "$SERVE" --journal "$WORK/journal.jsonl" --quarantine "$WORK/q" \
    --listen 127.0.0.1:0 --input "$WORK/requests.jsonl" \
    < /dev/null > "$WORK/out.log" 2> "$WORK/err.log"
  RC=$?
  [ "$RC" -eq 2 ] || fail "exit $RC (want 2)"
  grep -q "exclusive" "$WORK/err.log" || fail "no conflict diagnostic"
  cmp -s "$WORK/journal.jsonl" "$WORK/pristine.jsonl" ||
    fail "the rejected command line rewrote the journal"
  [ ! -e "$WORK/q" ] || fail "the rejected command line quarantined requests"
  ;;
range)
  for ARGS in "--threads 4294967296" "--shards 4294967297" \
      "--workers 4294967296" "--max-conns 4294967296" \
      "--cache-entries 4294967296" "--send-buffer-bytes 2147483648" \
      "--threads 18446744073709551616"; do
    # shellcheck disable=SC2086
    "$SERVE" $ARGS < /dev/null > /dev/null 2>&1
    RC=$?
    [ "$RC" -eq 2 ] || fail "'$ARGS' exited $RC (want 2)"
  done
  # The widest values that fit are still accepted.
  "$SERVE" --threads 1 --shards 4294967295 --send-buffer-bytes 2147483647 \
    < /dev/null > /dev/null 2>&1 || fail "in-range values were rejected"
  ;;
*)
  fail "unknown mode"
  ;;
esac
echo "PASS($MODE)"
