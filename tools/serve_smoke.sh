#!/bin/sh
# End-to-end smoke of the serving daemon: launch expmk_serve on an
# ephemeral port, run one inline eval twice, then a reformatted copy of
# the same graph (which must hit the same cache entry), and a STATS frame
# through expmk_client, then shut the daemon down over the protocol and
# assert a clean exit. Run from the build directory (the ctest working dir):
#
#   sh ../tools/serve_smoke.sh
#
# Used by the expmk_serve_smoke ctest entry and the CI serve-smoke steps
# (Release and TSan lanes).
set -e

BIN_DIR=${BIN_DIR:-.}
LOG=serve_smoke.log

"$BIN_DIR/expmk_cli" generate --class lu --k 4 --out serve_smoke.tg

"$BIN_DIR/expmk_serve" --port 0 >"$LOG" 2>&1 &
SERVE_PID=$!

# The daemon prints its bound port on startup; poll for the line.
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^expmk_serve: listening on port \([0-9]*\)$/\1/p' "$LOG")
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve_smoke: daemon died during startup" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "serve_smoke: daemon never reported a port" >&2
  cat "$LOG" >&2
  kill "$SERVE_PID" 2>/dev/null
  exit 1
fi
echo "serve_smoke: daemon on port $PORT"

fail() {
  echo "serve_smoke: $1" >&2
  kill "$SERVE_PID" 2>/dev/null
  exit 1
}

OUT=$("$BIN_DIR/expmk_client" --port "$PORT" --graph serve_smoke.tg \
      --pfail 0.01 --method fo --repeat 2) || fail "eval request failed"
echo "$OUT"
echo "$OUT" | grep -q '"type": "result"' || fail "no result frame"
echo "$OUT" | grep -q '"cache": "hit"' || fail "second request did not hit"

# The same graph reformatted (CRLF line ends, comments, extra blanks and
# tabs) is the same cache key: it must hit without a second compile.
awk 'BEGIN { printf "# serve_smoke.tg, reformatted\r\n" }
     { gsub(/ /, " \t "); printf "  %s   # note\r\n\r\n", $0 }' \
  serve_smoke.tg >serve_smoke_reformatted.tg
OUT=$("$BIN_DIR/expmk_client" --port "$PORT" \
      --graph serve_smoke_reformatted.tg --pfail 0.01 --method fo) \
  || fail "reformatted eval request failed"
echo "$OUT"
echo "$OUT" | grep -q '"cache": "hit"' \
  || fail "reformatted graph did not hit the canonical entry"

OUT=$("$BIN_DIR/expmk_client" --port "$PORT" --stats) \
  || fail "stats request failed"
echo "$OUT"
echo "$OUT" | grep -q '"type": "stats"' || fail "no stats frame"
echo "$OUT" | grep -q '"compiles": 1' || fail "expected exactly 1 compile"

"$BIN_DIR/expmk_client" --port "$PORT" --shutdown >/dev/null \
  || fail "shutdown request failed"

wait "$SERVE_PID"
STATUS=$?
[ "$STATUS" -eq 0 ] || { echo "serve_smoke: daemon exit $STATUS" >&2; exit 1; }
grep -q "shutting down (shutdown frame)" "$LOG" \
  || { echo "serve_smoke: daemon did not log a clean shutdown" >&2; exit 1; }
echo "serve_smoke: OK"
