#!/usr/bin/env bash
# Fleet smoke test: the end-to-end proof for the process-fleet
# transport (internal/net). Boots the chaos driver in -fleet mode on
# the ghost2d workload — a coordinator in the driver plus 4 worker
# subprocesses joined over unix sockets — SIGKILLs two workers
# mid-run, and asserts:
#
#   1. the run converges and its state bytes are identical to the
#      clean in-process run (the driver itself enforces this and
#      prints "state identical"),
#   2. the kills really landed (driver reports them delivered),
#   3. the reconnection is observable: the driver's SSE /events
#      stream carries the coordinator's "worker rejoined" event.
#
# Then it runs the 1-D ghost workload — 3 strip workers over tcp —
# with two more SIGKILLs and asserts 1 and 2 again, so the workers'
# peer links are tested on both socket families with real deaths.
# Last, a ghost2d run over unix with no kills: every worker exits
# cleanly, and the driver fails if any left its peer socket behind.
#
# Exits nonzero with a diagnostic on the first failed assertion.
set -u -o pipefail

cd "$(dirname "$0")/.."

SCRATCH="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

fail() {
  echo "fleet-smoke: FAIL: $*" >&2
  exit 1
}

echo "fleet-smoke: building chaos"
go build -o "$SCRATCH/chaos" ./cmd/chaos || fail "build"

echo "fleet-smoke: 4-rank ghost2d fleet over unix sockets, 2 SIGKILLs"
"$SCRATCH/chaos" -fleet -workload ghost2d -transport unix -quick \
  -kills 2 -seed 3 -dir "$SCRATCH/fleet" -obs-listen 127.0.0.1:0 \
  >"$SCRATCH/stdout" 2>"$SCRATCH/stderr" &
DRIVER=$!
PIDS+=("$DRIVER")

# The driver announces its telemetry address on stderr; attach to the
# SSE event stream while the run is live so we see the rejoin happen.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's#.*live telemetry on http://\([^ ]*\) .*#\1#p' "$SCRATCH/stderr")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || fail "driver never announced its telemetry address (stderr: $(cat "$SCRATCH/stderr"))"
curl -sSN --max-time 120 "http://$ADDR/events" >"$SCRATCH/events" &
PIDS+=("$!")

wait "$DRIVER" || fail "driver exited nonzero (stdout: $(cat "$SCRATCH/stdout"); stderr: $(tail -c 800 "$SCRATCH/stderr"))"
sleep 0.2 # let the SSE tail flush

grep -q 'fleet-ghost2d: PASS' "$SCRATCH/stdout" \
  || fail "no PASS line: $(cat "$SCRATCH/stdout")"
grep -q 'state identical' "$SCRATCH/stdout" \
  || fail "byte-equality not asserted: $(cat "$SCRATCH/stdout")"
grep -q '2 kills delivered' "$SCRATCH/stdout" \
  || fail "expected 2 SIGKILLs delivered: $(cat "$SCRATCH/stdout")"
grep -q 'worker rejoined' "$SCRATCH/events" \
  || fail "SSE /events stream carried no reconnection event: $(head -c 600 "$SCRATCH/events")"

echo "fleet-smoke: $(grep -c 'worker rejoined' "$SCRATCH/events") rejoin events streamed"

echo "fleet-smoke: 3-rank ghost strip fleet over tcp, 2 SIGKILLs"
"$SCRATCH/chaos" -fleet -workload ghost -transport tcp -quick \
  -kills 2 -seed 3 -dir "$SCRATCH/fleet-tcp" \
  >"$SCRATCH/stdout-tcp" 2>"$SCRATCH/stderr-tcp" \
  || fail "tcp driver exited nonzero (stdout: $(cat "$SCRATCH/stdout-tcp"); stderr: $(tail -c 800 "$SCRATCH/stderr-tcp"))"
grep -q 'fleet-ghost: PASS' "$SCRATCH/stdout-tcp" \
  || fail "no tcp PASS line: $(cat "$SCRATCH/stdout-tcp")"
grep -q '2 kills delivered over tcp, state identical' "$SCRATCH/stdout-tcp" \
  || fail "expected 2 SIGKILLs over tcp and byte-equality: $(cat "$SCRATCH/stdout-tcp")"

echo "fleet-smoke: clean 4-rank ghost2d fleet over unix, no kills"
"$SCRATCH/chaos" -fleet -workload ghost2d -transport unix -quick \
  -kills 0 -dir "$SCRATCH/fleet-clean" \
  >"$SCRATCH/stdout-clean" 2>"$SCRATCH/stderr-clean" \
  || fail "clean driver exited nonzero (stdout: $(cat "$SCRATCH/stdout-clean"); stderr: $(tail -c 800 "$SCRATCH/stderr-clean"))"
grep -q 'fleet-ghost2d: PASS' "$SCRATCH/stdout-clean" \
  || fail "no clean PASS line: $(cat "$SCRATCH/stdout-clean")"

echo "fleet-smoke: PASS"
