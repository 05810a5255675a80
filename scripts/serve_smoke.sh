#!/usr/bin/env bash
# Smoke test for `pdn3d serve` (wired into ctest as cli_serve_smoke).
#
# Pipes a small NDJSON request mix -- evaluate (twice, so the second is a
# cache hit), ping, stats, metrics, a bad line, validate -- through the stdin
# transport and asserts the exactly-one-response-per-request contract
# (request_id echo included) plus a schema-v9 run report with the session
# block and its result-cache stats. The server runs with a tiny --slow-ms, so
# the first evaluate must also leave a serve.slow_request event on stderr.
#
# Usage: serve_smoke.sh /path/to/pdn3d scratch-dir
set -euo pipefail

bin="$1"
scratch="$2"
mkdir -p "$scratch"
out="$scratch/serve_out.ndjson"
report="$scratch/serve_report.json"
err="$scratch/serve_err.log"

printf '%s\n' \
  '{"id":1,"op":"evaluate","benchmark":"off-chip","state":"0-0-0-2","design":{"bd":"f2f"},"request_id":"smoke-eval"}' \
  '{"id":2,"op":"ping","request_id":"smoke-ping"}' \
  'this line is not json' \
  '{"id":4,"op":"validate","benchmark":"wide-io"}' \
  '{"id":5,"op":"stats"}' \
  '{"id":6,"op":"metrics"}' \
  '{"id":7,"op":"evaluate","benchmark":"off-chip","state":"0-0-0-2","design":{"bd":"f2f"}}' \
  | "$bin" serve --queue 8 --threads 1 --slow-ms 0.001 --report "$report" > "$out" 2> "$err"

fail() { echo "serve_smoke: FAIL: $1" >&2; cat "$out" >&2; exit 1; }

[[ "$(wc -l < "$out")" -eq 7 ]] || fail "expected 7 response lines"
grep -q '"id":1.*"ok":true.*"op":"evaluate"' "$out" || fail "missing evaluate response"
grep -q '"id":7.*"cache":"hit"' "$out"              || fail "repeat request was not a cache hit"
grep -q '"id":2,"ok":true,"op":"ping"' "$out"       || fail "missing ping response"
grep -q '"request_id":"smoke-ping"' "$out"          || fail "client request_id not echoed"
grep -q '"kind":"bad_request"' "$out"               || fail "missing bad_request response"
grep -q '"id":4.*validation passed' "$out"          || fail "missing validate response"
grep -q '"id":5.*"op":"stats".*"windows"' "$out"    || fail "missing stats response"
grep -q '"id":6.*"op":"metrics".*pdn3d_service_requests' "$out" || fail "missing metrics response"
grep -q '"request_id":"r-' "$out"                   || fail "missing generated request_id"
grep -q '"session"' "$report"                       || fail "report lacks session block"
grep -q '"windows"' "$report"                       || fail "report lacks metrics.windows"
grep -q '"cache"' "$report"                         || fail "report lacks session cache block"
grep -q 'service.cache.hits' "$report"              || fail "report lacks cache counters"
grep -q 'serve\.slow_request.*smoke-eval' "$err" || { cat "$err" >&2; fail "no serve.slow_request event for smoke-eval"; }

echo "serve_smoke: OK ($out)"
