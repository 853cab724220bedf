#!/usr/bin/env bash
# Guards the CLI's error contract: unknown subcommands and malformed or
# out-of-range flags must print a diagnostic on stderr and exit non-zero,
# never limp on with silently-defaulted values (the old atof behavior
# turned '--dropout abc' into '--dropout 0').
#
# Usage: check_cli_errors.sh /path/to/powervar
set -uo pipefail

powervar="${1:?usage: check_cli_errors.sh /path/to/powervar}"
failures=0

# expect_error <description> <expected-stderr-pattern> -- <args...>
expect_error() {
  local what="$1" pattern="$2"
  shift 3
  local out err rc
  out="$("$powervar" "$@" 2>/tmp/pv_cli_err.$$)"
  rc=$?
  err="$(cat /tmp/pv_cli_err.$$)"
  rm -f /tmp/pv_cli_err.$$
  if [[ "$rc" -eq 0 ]]; then
    echo "FAIL: $what: exited 0" >&2
    failures=$((failures + 1))
    return
  fi
  if ! grep -q "$pattern" <<<"$err"; then
    echo "FAIL: $what: stderr lacks '$pattern':" >&2
    printf '%s\n' "$err" >&2
    failures=$((failures + 1))
    return
  fi
  if [[ -n "$out" ]]; then
    echo "FAIL: $what: produced stdout output despite failing" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok: $what (exit $rc)"
}

expect_error "no arguments prints usage" "usage:" --
expect_error "unknown subcommand" "unknown command" -- frobnicate --x 1
expect_error "malformed number (space form)" "expects a number" \
  -- campaign --nodes 64 --dropout abc
expect_error "malformed number (equals form)" "expects a number" \
  -- campaign --nodes 64 --dropout=abc
expect_error "trailing garbage in number" "expects a number" \
  -- campaign --nodes 64 --dropout 0.1x
expect_error "NaN rate" "expects a number" \
  -- campaign --nodes 64 --dropout nan
expect_error "NaN byzantine fraction" "expects a number" \
  -- campaign --nodes 64 --level 3 --byzantine nan --reconcile 1
expect_error "infinite emission period" "expects a number" \
  -- campaign --nodes 64 --live --live-every inf
expect_error "rate above 1" "must be in \[0, 1\]" \
  -- campaign --nodes 64 --dropout 1.5
expect_error "negative rate" "must be in \[0, 1\]" \
  -- collect --nodes 64 --blackhole -0.2
expect_error "dangling option without value" "missing a value" \
  -- campaign --nodes 64 --dropout
expect_error "non-option argument" "expected --option" \
  -- campaign nodes 64
expect_error "missing required option" "missing required option" \
  -- sample-size --cv 0.02 --lambda 0.01
expect_error "bad fault preset" "must be none, mild or harsh" \
  -- campaign --nodes 64 --faults wild
expect_error "resume without checkpoint" "journal path" \
  -- collect --nodes 64 --resume 1
expect_error "typo'd option name" "unknown option" \
  -- collect --nodes 64 --balckhole 0.2
expect_error "option of a different subcommand" "unknown option" \
  -- collect --nodes 64 --dropout 0.1

# expect_exit <description> <expected-exit-code> <expected-stderr-pattern>
# -- <args...>: exact exit codes are part of the contract (2 usage,
# 3 aborted collection, 4 no usable data).
expect_exit() {
  local what="$1" want_rc="$2" pattern="$3"
  shift 4
  local err rc
  "$powervar" "$@" >/dev/null 2>/tmp/pv_cli_err.$$
  rc=$?
  err="$(cat /tmp/pv_cli_err.$$)"
  rm -f /tmp/pv_cli_err.$$
  if [[ "$rc" -ne "$want_rc" ]]; then
    echo "FAIL: $what: exited $rc, want $want_rc" >&2
    failures=$((failures + 1))
    return
  fi
  if ! grep -q "$pattern" <<<"$err"; then
    echo "FAIL: $what: stderr lacks '$pattern':" >&2
    printf '%s\n' "$err" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok: $what (exit $rc)"
}

# A scenario the builders refuse to construct — a node count past the
# supported fleet scale, which would also overflow exact fleet-sample
# accounting — is bad input (exit 2 with the usage text), caught as the
# typed ScenarioError before any allocation happens.
expect_exit "absurd node count exits 2" 2 \
  "exceeds the supported fleet scale" \
  -- campaign --nodes 99999999 --level 1 --seed 7 --interval 10

# An unknown engine is a bad command line for both subcommands that take
# --engine: same diagnostic, usage exit code 2.
expect_exit "campaign --engine bogus exits 2" 2 \
  "engine must be eager or streaming" \
  -- campaign --nodes 64 --level 1 --seed 7 --engine bogus
expect_exit "collect --engine bogus exits 2" 2 \
  "engine must be eager or streaming" \
  -- collect --nodes 64 --level 1 --seed 7 --engine bogus

# A campaign that loses every meter has no number to submit: that is a
# campaign outcome with its own exit code (4), not the generic catch-all.
expect_exit "all node meters dead exits 4" 4 "every node meter was lost" \
  -- campaign --nodes 64 --level 1 --seed 7 --dead 64 --interval 10
expect_exit "all node meters dead, one-line diagnostic" 4 \
  "nothing to extrapolate from" \
  -- campaign --nodes 64 --level 3 --seed 7 --dead 64 --interval 10

# Every subcommand must reject a typo'd flag, not silently default it.
# audit and normality parse their input files before flag validation, so
# they get small valid inputs.
trace_csv=$(mktemp /tmp/pv_cli_trace.XXXXXX.csv)
values_txt=$(mktemp /tmp/pv_cli_values.XXXXXX.txt)
{
  echo "t_s,power_w"
  for t in $(seq 0 120); do echo "$t,100.0"; done
} >"$trace_csv"
printf '1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n' >"$values_txt"

expect_error "sample-size rejects unknown flag" "unknown option" \
  -- sample-size --nodes 1024 --cv 0.02 --lambda 0.01 --bogus 1
expect_error "accuracy rejects unknown flag" "unknown option" \
  -- accuracy --nodes 210 --cv 0.02 --n 4 --bogus 1
expect_error "audit rejects unknown flag" "unknown option" \
  -- audit --trace "$trace_csv" --core-begin 10 --core-end 110 --bogus 1
expect_error "normality rejects unknown flag" "unknown option" \
  -- normality --values "$values_txt" --bogus 1
expect_error "tco rejects unknown flag" "unknown option" \
  -- tco --power-kw 1000 --accuracy 0.01 --bogus 1
expect_error "campaign rejects unknown flag" "unknown option" \
  -- campaign --nodes 64 --bogus 1
expect_error "reconcile rejects unknown flag" "unknown option" \
  -- reconcile --nodes 64 --bogus 1
expect_error "collect rejects unknown flag" "unknown option" \
  -- collect --nodes 64 --bogus 1
rm -f "$trace_csv" "$values_txt"

# ---- serve exit codes -------------------------------------------------
# The service subcommand maps request outcomes to exact exit codes:
# 2 usage, 5 shed, 6 deadline exceeded, 7 corrupt cache (worst response
# in the batch wins; other failures exit 1).  Each recipe below forces
# the outcome deterministically via the seeded chaos plan.
serve_reqs=$(mktemp /tmp/pv_cli_serve.XXXXXX.jsonl)
{
  echo '{"schema":"powervar-request-v1","id":"r1","nodes":24,"interval":10}'
  echo '{"schema":"powervar-request-v1","id":"r2","nodes":24,"interval":10}'
} >"$serve_reqs"

expect_error "serve without --requests is a usage error" \
  "missing required option --requests" \
  -- serve
expect_error "serve with unreadable requests file" "cannot open" \
  -- serve --requests /nonexistent/requests.jsonl

# expect_serve <description> <expected-exit-code> -- <args...>
expect_serve() {
  local what="$1" want_rc="$2"
  shift 3
  local rc
  "$powervar" serve --requests "$serve_reqs" "$@" >/dev/null 2>&1
  rc=$?
  if [[ "$rc" -ne "$want_rc" ]]; then
    echo "FAIL: $what: exited $rc, want $want_rc" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok: $what (exit $rc)"
}

expect_serve "serve usage error exits 2" 2 -- --workers abc
expect_serve "serve clean batch exits 0" 0 -- --workers 2
expect_serve "serve shed requests exit 5" 5 -- --chaos-drain-after 1
expect_serve "serve exhausted deadlines exit 6" 6 -- --chaos-stall 1
expect_serve "serve corrupt strict cache exits 7" 7 \
  -- --strict-cache --chaos-cache 1
# Severity ranking: a corrupt-cache response outranks a shed one.
expect_serve "serve worst response code wins" 7 \
  -- --strict-cache --chaos-cache 1 --chaos-drain-after 1
# An invalid request line is the generic failure, below the typed codes.
echo 'not json at all' >>"$serve_reqs"
expect_serve "serve invalid request line exits 1" 1 -- --workers 2
rm -f "$serve_reqs"

# ---- serve checkpoint/resume exit codes -------------------------------
# A refused checkpoint is its own failure class (exit 8), distinct from
# the generic 1: the operator must know the journal — not the requests —
# is the problem.  Each refusal names its cause on stderr.
serve_reqs=$(mktemp /tmp/pv_cli_serve.XXXXXX.jsonl)
serve_wal=$(mktemp /tmp/pv_cli_serve.XXXXXX.wal)
{
  echo '{"schema":"powervar-request-v1","id":"c1","nodes":24,"interval":10}'
  echo '{"schema":"powervar-request-v1","id":"c2","nodes":24,"interval":10}'
} >"$serve_reqs"

expect_exit "serve --resume with a missing checkpoint exits 8" 8 \
  "missing or empty" \
  -- serve --resume /nonexistent/drain.wal
expect_exit "serve --crash-after without --checkpoint is a usage error" 2 \
  "needs a --checkpoint journal" \
  -- serve --requests "$serve_reqs" --crash-after 1

# Build a real drain checkpoint (hold everything, exit 0), then torture
# it: a mid-record truncation and a foreign (collect-format) journal must
# both be refused outright, never half-resumed.
if ! "$powervar" serve --requests "$serve_reqs" --drain-after 0 \
     --checkpoint "$serve_wal" >/dev/null 2>&1; then
  echo "FAIL: could not produce a drain checkpoint for the refusal cases" >&2
  failures=$((failures + 1))
else
  wal_bytes=$(wc -c <"$serve_wal")
  head -c "$((wal_bytes - 3))" "$serve_wal" >"$serve_wal.torn"
  expect_exit "serve --resume with a torn checkpoint exits 8" 8 \
    "torn line" \
    -- serve --resume "$serve_wal.torn"
  rm -f "$serve_wal.torn"
fi

collect_wal=$(mktemp /tmp/pv_cli_collect.XXXXXX.wal)
if ! "$powervar" collect --nodes 24 --seed 7 --interval 10 \
     --checkpoint "$collect_wal" >/dev/null 2>&1; then
  echo "FAIL: could not produce a collect journal for the fingerprint case" >&2
  failures=$((failures + 1))
else
  expect_exit "serve --resume refuses a foreign-fingerprint journal" 8 \
    "foreign fingerprint" \
    -- serve --resume "$collect_wal"
fi
rm -f "$collect_wal"

# A simulated crash mid-drain is the dedicated exit 3 (same class as a
# crashed collect), not a checkpoint refusal and not the generic 1.
expect_exit "serve --crash-after dies with exit 3" 3 "crash" \
  -- serve --requests "$serve_reqs" --drain-after 0 \
     --checkpoint "$serve_wal" --crash-after 1

# Malformed lines on the streaming stdin front-end are the generic
# failure (1): the batch keeps going, the exit code remembers.
stream_rc=0
printf '%s\n%s\n' \
  '{"schema":"powervar-request-v1","id":"s1","nodes":24,"interval":10}' \
  'this is not a request' |
  "$powervar" serve --requests - --stream >/dev/null 2>&1 || stream_rc=$?
if [[ "$stream_rc" -ne 1 ]]; then
  echo "FAIL: malformed streamed line: exited $stream_rc, want 1" >&2
  failures=$((failures + 1))
else
  echo "ok: malformed streamed request line exits 1 (exit $stream_rc)"
fi

# An out-of-range priority is invalid at admission, like any bad field.
echo '{"schema":"powervar-request-v1","id":"p0","nodes":24,"interval":10,"priority":0}' \
  >"$serve_reqs"
expect_serve "serve rejects priority 0 with exit 1" 1 -- --workers 1
rm -f "$serve_reqs" "$serve_wal"

# And the happy path must still work, including the --key=value spelling.
if ! "$powervar" accuracy --nodes=210 --cv=0.02 --n=4 >/dev/null; then
  echo "FAIL: valid --key=value invocation failed" >&2
  failures=$((failures + 1))
fi

if [[ "$failures" -ne 0 ]]; then
  echo "FAIL: $failures CLI error-contract case(s) broken" >&2
  exit 1
fi
echo "OK: CLI rejects malformed input loudly"
