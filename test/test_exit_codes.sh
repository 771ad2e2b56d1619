#!/bin/sh
# Pin the anonsim exit-code contract end to end:
#   0 = clean pass, 2 = violation / refuted invariant,
#   3 = resource budget exhausted, 4 = interrupted;
#   124 = usage error (cmdliner's CLI-error code).
# Usage: test_exit_codes.sh /path/to/anonsim.exe
set -u

ANONSIM="$1"
fails=0

expect() {
  want="$1"
  shift
  "$ANONSIM" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok  $want <- anonsim $*"
  else
    echo "FAIL: anonsim $* exited $got, want $want"
    fails=$((fails + 1))
  fi
}

# clean passes
expect 0 check-snapshot -n 2
expect 0 check-snapshot -n 2 --reduce
expect 0 check-consensus -n 2
expect 0 feasibility --quick
expect 0 inductive --check -n 2
expect 0 inductive --check -n 2 --concrete

# refuted invariant: the comparability strengthenings fail induction
expect 2 inductive --check -n 2 --clauses candidates

# exhausted budget (exit 3): a tiny wall-clock allowance on a big run
expect 3 inductive --check -n 3 --max-seconds 0.01
expect 3 check-snapshot -n 3 --max-seconds 0.01

# resource limit (exit 3): the state cap is a limit, not a violation
expect 3 check-snapshot -n 2 --max-states 10

# the non-atomicity sampler missing within --attempts is a spent budget
expect 3 check-nonatomic --attempts 10

# usage error: the exhaustive search is the 3-processor instance only
expect 124 check-nonatomic --exhaustive -n 2

# interrupted (exit 4): SIGINT mid-run; the n=3 induction takes seconds
"$ANONSIM" inductive --check -n 3 >/dev/null 2>&1 &
pid=$!
sleep 0.4
kill -INT "$pid" 2>/dev/null
wait "$pid"
got=$?
if [ "$got" -eq 4 ]; then
  echo "ok  4 <- anonsim inductive --check -n 3 (SIGINT)"
else
  echo "FAIL: interrupted inductive run exited $got, want 4"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code check(s) failed"
  exit 1
fi
echo "all exit-code checks passed"
