#!/usr/bin/env bash
# End-to-end smoke test for incremental re-solve sessions: start
# alloc_serve with tracing, open a session on the gateway problem (the
# opening solve must prove an optimum and seed the canonical result
# cache), issue a feasible what-if revise (warm solve, unchanged
# constraint groups reused), an infeasible revise (proven, with a named
# constraint-level unsat core), revise back to the base instance (the
# original optimum must return), exercise the @file edits form and the
# structured errors (bad patch / unknown session -> exit 3 with a code),
# confirm a cold submit of the base instance is served from the cache the
# session populated, check the session counters through the metrics
# verb, close the session (second close must fail), probe connect()
# retry (--retry N against a dead socket exits 1 after N attempts), shut
# down gracefully, and validate
# the emitted trace with the schema checker (session census rules:
# revise >= session_open, session_close <= session_open).
#
# usage: svc_session_smoke.sh ALLOC_SERVE ALLOC_CLIENT SCHEMA_CHECK PROBLEM WORKDIR
set -u

SERVE="$1"
CLIENT="$2"
SCHEMA_CHECK="$3"
PROBLEM="$4"
WORKDIR="$5"

fail() { echo "svc_session_smoke: FAIL: $*" >&2; exit 1; }

mkdir -p "$WORKDIR" || fail "cannot create $WORKDIR"
SOCK="$WORKDIR/svc_session_smoke.sock"
TRACE="$WORKDIR/svc_session_smoke_trace.jsonl"
LOG="$WORKDIR/svc_session_smoke_server.log"
rm -f "$SOCK" "$TRACE" "$LOG"

# --- Connect retry against a socket nobody listens on -------------------

RETRY_ERR=$("$CLIENT" --socket "$WORKDIR/nobody-home.sock" --retry 2 metrics 2>&1)
RC=$?
[ $RC -eq 1 ] || fail "--retry against dead socket exited $RC (want 1)"
case "$RETRY_ERR" in
  *'2 attempts'*) ;;
  *) fail "retry failure message does not mention the attempt count: $RETRY_ERR" ;;
esac

"$SERVE" --socket "$SOCK" --workers 2 --trace "$TRACE" >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null' EXIT

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG" >&2; fail "server died during startup"; }
  sleep 0.1
done
[ -S "$SOCK" ] || fail "socket $SOCK never appeared"

# --- Open: cold solve inside the session, optimum proven ----------------

OPEN=$("$CLIENT" --socket "$SOCK" --retry 3 session-open "$PROBLEM" sum-trt)
RC=$?
echo "open:     $OPEN"
[ $RC -eq 0 ] || fail "session-open exited $RC"
case "$OPEN" in
  *'"ok":true'*'"status":"optimal"'*'"proven_optimal":true'*) ;;
  *) fail "opening solve not a proven optimum: $OPEN" ;;
esac
case "$OPEN" in
  *'"cache_stored":true'*) ;;
  *) fail "opening solve did not seed the result cache: $OPEN" ;;
esac
case "$OPEN" in
  *'"task_ecu":['*) ;;
  *) fail "opening answer lacks the allocation: $OPEN" ;;
esac
SESSION=$(printf '%s\n' "$OPEN" | sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
[ -n "$SESSION" ] || fail "cannot extract session id from $OPEN"
BASE_COST=$(printf '%s\n' "$OPEN" | sed -n 's/.*"cost":\(-\{0,1\}[0-9]*\).*/\1/p')
[ -n "$BASE_COST" ] || fail "cannot extract cost from $OPEN"

# --- Feasible what-if: warm solve reuses unchanged groups ---------------

WHATIF=$("$CLIENT" --socket "$SOCK" revise "$SESSION" \
         '[{"op":"set_deadline","task":"monitor","deadline":140}]')
RC=$?
echo "what-if:  $WHATIF"
[ $RC -eq 0 ] || fail "feasible revise exited $RC"
case "$WHATIF" in
  *'"status":"optimal"'*'"proven_optimal":true'*) ;;
  *) fail "feasible revise not proven optimal: $WHATIF" ;;
esac
case "$WHATIF" in
  *'"groups_unchanged":0,'*) fail "warm revise re-encoded everything: $WHATIF" ;;
esac

# --- Infeasible what-if: proven, with a constraint-level core -----------

INFEAS=$("$CLIENT" --socket "$SOCK" revise "$SESSION" \
         '[{"op":"set_deadline","task":"control","deadline":10}]')
RC=$?
echo "infeas:   $INFEAS"
[ $RC -eq 0 ] || fail "proven-infeasible revise exited $RC (want 0)"
case "$INFEAS" in
  *'"status":"infeasible"'*'"proven_optimal":true'*) ;;
  *) fail "infeasible revise not proven: $INFEAS" ;;
esac
case "$INFEAS" in
  *'"unsat_core":["'*) ;;
  *) fail "infeasible revise lacks a named unsat core: $INFEAS" ;;
esac

# --- Revise back (edits from @file): the base optimum returns -----------

EDITS="$WORKDIR/revert.edits.json"
cat >"$EDITS" <<'JSON'
[{"op":"set_deadline","task":"control","deadline":60},
 {"op":"set_deadline","task":"monitor","deadline":150}]
JSON
BACK=$("$CLIENT" --socket "$SOCK" revise "$SESSION" "@$EDITS")
RC=$?
echo "back:     $BACK"
[ $RC -eq 0 ] || fail "revise back exited $RC"
case "$BACK" in
  *'"status":"optimal"'*"\"cost\":$BASE_COST,"*) ;;
  *) fail "revise back did not restore the base optimum $BASE_COST: $BACK" ;;
esac

# --- Structured errors: bad patch, unknown session ----------------------

BAD=$("$CLIENT" --socket "$SOCK" revise "$SESSION" '[{"op":"frobnicate","task":"x"}]')
RC=$?
[ $RC -eq 3 ] || fail "bad patch exited $RC (want 3): $BAD"
case "$BAD" in
  *'"code":"bad_patch"'*) ;;
  *) fail "bad-patch reply lacks the machine-readable code: $BAD" ;;
esac

NOSESH=$("$CLIENT" --socket "$SOCK" revise nosuchsession '[]')
RC=$?
[ $RC -eq 3 ] || fail "unknown session exited $RC (want 3): $NOSESH"
case "$NOSESH" in
  *'"code":"unknown_session"'*) ;;
  *) fail "unknown-session reply lacks the code: $NOSESH" ;;
esac

# --- The session's answers feed the canonical result cache --------------

# The session solved the base instance as-submitted; a cold submit of the
# identical file must be answered from the cache without a solve.
COLD=$("$CLIENT" --socket "$SOCK" submit "$PROBLEM" sum-trt --wait)
RC=$?
echo "cold:     $COLD"
[ $RC -eq 0 ] || fail "cold submit exited $RC"
case "$COLD" in
  *'"cached":true'*) ;;
  *) fail "cold submit of the session's base instance missed the cache: $COLD" ;;
esac
case "$COLD" in
  *"\"cost\":$BASE_COST,"*) ;;
  *) fail "cached cold answer disagrees with the session optimum: $COLD" ;;
esac

METRICS=$("$CLIENT" --socket "$SOCK" metrics) || fail "metrics verb failed"
case "$METRICS" in
  *'"svc.sessions.opened":{"kind":"counter","value":1}'*) ;;
  *) fail "metrics lack the session-open count: $METRICS" ;;
esac
# Only revises that reached a live session count: the bad patch was
# rejected at parse and the unknown session never resolved.
case "$METRICS" in
  *'"svc.revises":{"kind":"counter","value":3}'*) ;;
  *) fail "metrics revise count wrong (want 3): $METRICS" ;;
esac
case "$METRICS" in
  *'"res.svc.sessions.items":{"kind":"level","value":1}'*) ;;
  *) fail "metrics lack the live session: $METRICS" ;;
esac

# --- Close: idempotence is an error, not a silent success ---------------

CLOSED=$("$CLIENT" --socket "$SOCK" session-close "$SESSION")
RC=$?
[ $RC -eq 0 ] || fail "session-close exited $RC: $CLOSED"
case "$CLOSED" in
  *'"closed":true'*) ;;
  *) fail "close reply malformed: $CLOSED" ;;
esac
RECLOSE=$("$CLIENT" --socket "$SOCK" session-close "$SESSION")
RC=$?
[ $RC -eq 3 ] || fail "double close exited $RC (want 3): $RECLOSE"
case "$RECLOSE" in
  *'"code":"unknown_session"'*) ;;
  *) fail "double-close reply lacks the code: $RECLOSE" ;;
esac

# --- Drain, then validate the trace against the schema ------------------

"$CLIENT" --socket "$SOCK" shutdown >/dev/null || fail "shutdown verb failed"
SERVER_RC=1
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID"
    SERVER_RC=$?
    break
  fi
  sleep 0.1
done
trap - EXIT
[ $SERVER_RC -eq 0 ] || { cat "$LOG" >&2; fail "server exited $SERVER_RC"; }

"$SCHEMA_CHECK" "$TRACE" || fail "trace schema validation failed"
grep -q '"type":"session_open"' "$TRACE" || fail "no session_open event in trace"
grep -q '"type":"unsat_core"' "$TRACE" || fail "no unsat_core event in trace"
grep -q '"type":"session_close"' "$TRACE" || fail "no session_close event in trace"
# One revise event per session solve: the opening solve (edits=0) plus
# the three accepted revises.
REVISES=$(grep -c '"type":"revise"' "$TRACE")
[ "$REVISES" -eq 4 ] || fail "expected 4 revise trace events, got $REVISES"

echo "svc_session_smoke: OK"
