#!/usr/bin/env bash
# The line cap on the stdin transport: one 64 MiB newline-free line,
# then one valid request. The oversized line must draw exactly one
# `shed` refusal and be dropped as it streams in (never buffered), and
# the request after it must be served.
#
#   service_line_cap.sh <jslice_serve> <workdir>
set -u

SERVE="$1"
WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

REQ='{"id":"after-flood","program":"read(a);\nb = a + 1;\nwrite(b);\n","line":3,"vars":["b"]}'

{
  head -c $((64 << 20)) /dev/zero | tr '\0' 'z'
  printf '\n%s\n' "$REQ"
} | "$SERVE" --max-line-bytes 1024 > out.log 2> err.log
RC=$?

if [ "$RC" -ne 0 ]; then
  echo "FAIL: server exited $RC"
  cat err.log
  exit 1
fi
SHED=$(grep -c '"status":"shed"' out.log)
CAP=$(grep -c 'line exceeds' out.log)
OK=$(grep -c '"id":"after-flood".*"status":"ok"' out.log)
LINES=$(wc -l < out.log)
if [ "$SHED" -ne 1 ] || [ "$CAP" -ne 1 ] || [ "$OK" -ne 1 ] ||
    [ "$LINES" -ne 2 ]; then
  echo "FAIL: want one line-cap shed and one ok, got:"
  cut -c1-200 out.log
  exit 1
fi
echo "PASS: one refusal, one served request"
