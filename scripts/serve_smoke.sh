#!/usr/bin/env bash
# Smoke-test the `sciborq-served` stdio server end to end: issue bounded
# queries, feed it a fixed set of protocol-fuzz seeds (hostile lines that
# must draw typed errors, never a crash or a hang), scrape the `metrics`
# and `trace` introspection commands off the wire, and assert the
# telemetry registry observed the traffic. The final registry snapshot is
# written to crates/bench/BENCH_serving_metrics.json so CI can upload it
# next to the serving bench summary.
set -euo pipefail

cd "$(dirname "$0")/.."
SNAPSHOT="crates/bench/BENCH_serving_metrics.json"
REPLIES="$(mktemp)"
BAD="$(mktemp)"
trap 'rm -f "$REPLIES" "$BAD"' EXIT

cargo build --release -p sciborq-serve --bin sciborq-served

{
  for i in 1 2 3 4; do
    printf '{"id":%d,"query":{"table":"photoobj","kind":"count","predicate":{"op":"lt","column":"ra","value":%d.0}},"bounds":{"max_relative_error":0.05}}\n' "$i" "$((i * 45))"
  done
  printf '{"id":5,"query":{"table":"photoobj","kind":"sum","column":"r_mag","predicate":{"op":"between","column":"ra","low":10.0,"high":200.0}},"bounds":{"max_relative_error":0.05}}\n'
  # a SELECT with a LIMIT rides the same shared scan passes
  printf '{"id":8,"query":{"table":"photoobj","kind":"select","limit":25,"predicate":{"op":"lt","column":"ra","value":90.0}}}\n'
  # protocol-fuzz seeds: hostile lines the server must answer with a
  # typed error reply — never a crash, a hang, or a blown stack
  head -c 1100000 /dev/zero | tr '\0' 'x'   # > 1 MiB line -> malformed (too large)
  printf '\n'
  printf '%0.s[' $(seq 1 200)               # 200-deep nesting bomb -> malformed (too deep)
  printf '\n'
  printf '{"id":6,"query":{"table":\n'      # truncated mid-document -> malformed (syntax)
  printf 'plain garbage, not json\n'        # not json at all -> malformed (syntax)
  printf '{"id":7,"hello":"world"}\n'       # valid json, not a request -> invalid-request
  # let the query workers drain so the introspection replies see them
  sleep 2
  printf '{"id":100,"cmd":"metrics"}\n'
  printf '{"id":101,"cmd":"trace","limit":8}\n'
} | ./target/release/sciborq-served \
      --rows 50000 --layers 5000,500 --traces on --log-level info \
      --metrics-out "$SNAPSHOT" > "$REPLIES"

echo "--- server replies ---"
cat "$REPLIES"
echo "--- metrics snapshot ---"
cat "$SNAPSHOT"

fail() { echo "serve_smoke: $1" >&2; exit 1; }

# every request (6 queries + metrics + trace) answered ok
ok_count="$(grep -c '"status":"ok"' "$REPLIES")"
[ "$ok_count" -eq 8 ] || fail "expected 8 ok replies, got $ok_count"

# the SELECT answered with its rows and an estimate of every match
select_reply="$(grep '"id":8,' "$REPLIES")" || fail "no reply to the SELECT"
grep -q '"status":"ok"' <<<"$select_reply" || fail "the SELECT failed: $select_reply"
grep -q '"rows_returned":' <<<"$select_reply" || fail "the SELECT reply lacks rows_returned"
grep -q '"estimated_total_matches":' <<<"$select_reply" \
  || fail "the SELECT reply lacks estimated_total_matches"

# every fuzz seed drew a typed error reply: 4 malformed (oversized,
# nesting bomb, truncated, garbage) + 1 invalid-request — and none of
# them leaked through as an internal fault
malformed_count="$(grep -c '"code":"malformed"' "$REPLIES")"
[ "$malformed_count" -eq 4 ] || fail "expected 4 malformed replies, got $malformed_count"
invalid_count="$(grep -c '"code":"invalid-request"' "$REPLIES")"
[ "$invalid_count" -eq 1 ] || fail "expected 1 invalid-request reply, got $invalid_count"
if grep -q '"code":"internal-fault"' "$REPLIES"; then
  fail "fuzz seeds triggered an internal fault"
fi

# answers report their admission queue wait and embed escalation traces
grep -q '"queued_micros":' "$REPLIES" || fail "replies lack queued_micros"
grep -q '"trace":{' "$REPLIES" || fail "replies lack embedded traces"

# the metrics command returned live (non-zero) counters over the wire
grep -q '"metrics":{' "$REPLIES" || fail "no metrics reply"
grep -Eq '"engine.queries":[1-9]' "$REPLIES" || fail "engine.queries is zero on the wire"

# the trace command returned per-level traces
grep -q '"traces":\[{' "$REPLIES" || fail "no trace reply"
grep -q '"levels":\[{' "$REPLIES" || fail "traces lack per-level detail"

# the exported snapshot (written after all workers joined) saw all traffic
[ -s "$SNAPSHOT" ] || fail "metrics snapshot missing or empty"
grep -q '"engine.queries":6' "$SNAPSHOT" || fail "snapshot engine.queries != 6"
grep -q '"serve.queries_served":6' "$SNAPSHOT" || fail "snapshot serve.queries_served != 6"
grep -Eq '"engine.rows_scanned":[1-9]' "$SNAPSHOT" || fail "snapshot rows_scanned is zero"
grep -Eq '"engine.query_micros":\{"count":6' "$SNAPSHOT" || fail "latency histogram count != 6"

# an invalid request keeps its id, and a negative row floor is rejected
# rather than read as 0 (a second, separate run, so the counts above stay
# those of the first)
{
  printf '{"id":41,"query":{"table":"photoobj","kind":"median"}}\n'
  printf '{"id":42,"query":{"table":"photoobj","kind":"select","limit":25,"predicate":{"op":"lt","column":"ra","value":90.0}},"bounds":{"min_result_rows":-5}}\n'
} | ./target/release/sciborq-served --rows 5000 --layers 500,50 > "$BAD"
cat "$BAD"
id41="$(grep '"id":41,' "$BAD")" || fail "the invalid request lost its id"
grep -q '"code":"invalid-request"' <<<"$id41" || fail "id 41 is not invalid-request: $id41"
id42="$(grep '"id":42,' "$BAD")" || fail "no reply to the negative min_result_rows"
grep -q '"code":"invalid-request"' <<<"$id42" \
  || fail "a negative min_result_rows was accepted: $id42"

echo "serve_smoke: ok (8 ok replies, 5 typed fuzz rejections, registry saw 6 queries, invalid requests keep their id)"
