#!/usr/bin/env bash
# The artifact byte guard's cases: every run, sweep, duality-demo and
# malformed-input case that CI runs with the base commit's tree and with the
# head's, then compares with `diff -r`.
#
#     bash tests/guard_cases.sh TREE OUTDIR FIXTURES
#
# TREE is a source tree whose src/ holds the flexhedge package, OUTDIR the
# directory the artifacts and captured outputs go to, and FIXTURES the
# directory that tests/write_fixtures.py wrote the scenario files into.
set -eo pipefail
for seed in 1 7 42; do
  for case in finite infinite; do
    PYTHONPATH="$1/src" python -m flexhedge.cli run --preset paper-3bus \
      --case "$case" --pi-des 70 --seed "$seed" --out "$2/run-$case-$seed"
  done
  PYTHONPATH="$1/src" python -m flexhedge.cli sweep --preset paper-3bus \
    --pi "$(seq -s, 60 80)" --cases infinite,finite --seed "$seed" --out "$2/sweep-$seed"
done
# 161 caps from 40 to 120: adjacent caps that change an hour's
# optimal basis, so a sweep leaves an hour's interval of caps and
# solves that hour again between caps it read from the interval
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --preset paper-3bus \
  --pi "$(seq -s, 40 0.5 120)" --cases infinite,finite --seed 7 --out "$2/sweep-fine-7"
# hours whose local offer costs lie on the cap grid, so caps land on
# the ties at the ends of those intervals
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --input "$3/ties.txt" \
  --pi "$(seq -s, 60 0.5 80)" --cases infinite,finite --out "$2/sweep-ties"
# a 30-bus mesh day, whose pass-1 hours take about 40 pivots each
# where a 3-bus hour takes a handful
PYTHONPATH="$1/src" python -m flexhedge.cli run --input "$3/mesh30.txt" \
  --bus 30 --pi-des 60 --out "$2/run-mesh30"
# the same mesh swept over 61 caps; the file has no line 2-3, which
# the preset's finite case limits, so the sweep runs infinite alone
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --input "$3/mesh30.txt" \
  --bus 30 --pi "$(seq -s, 60 0.5 90)" --cases infinite --out "$2/sweep-mesh30"
# a 60-bus mesh day whose pass-1 hours take more pivots than lie
# between fresh basis inversions, so phase 2 carries on with a
# pivot count phase 1 started
PYTHONPATH="$1/src" python -m flexhedge.cli run --input "$3/mesh60.txt" \
  --bus 60 --pi-des 131.13 --out "$2/run-mesh60"
# the same mesh swept over 21 caps around that cap: rounds that range
# up to 14 programs of 125 rows in one stacked call
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --input "$3/mesh60.txt" \
  --bus 60 --pi "$(seq -s, 121 141)" --cases infinite --out "$2/sweep-mesh60"
# a day of two column layouts, hours 9-14 lacking the bus-2 offer,
# so each pass compiles two layouts, and both capped ones buy
# flexibility, where every other study here compiles one per pass
PYTHONPATH="$1/src" python -m flexhedge.cli run --input "$3/two-layouts.txt" \
  --pi-des 70 --out "$2/run-two-layouts"
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --input "$3/two-layouts.txt" \
  --pi "$(seq -s, 60 80)" --cases infinite --out "$2/sweep-two-layouts"
# a day of degenerate first-pass hours priced below the cap, which
# keep their first-pass vertex in a run and in a sweep
PYTHONPATH="$1/src" python -m flexhedge.cli run --input "$3/degenerate.txt" \
  --pi-des 70 --out "$2/run-degenerate"
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --input "$3/degenerate.txt" \
  --pi "$(seq -s, 30 0.5 80)" --cases infinite --out "$2/sweep-degenerate"
# one cap per hour, 60 to 83 EUR/MWh: a run that buys flexibility in
# 14 hours and whose trace lists all 24 caps
PYTHONPATH="$1/src" python -m flexhedge.cli run --preset paper-3bus --seed 1 \
  --case finite --pi-des "$(seq -s, 60 83)" --out "$2/run-hourly-caps"
# a user line limit on top of each case's own: a run with 12
# infeasible hours, and a sweep that keeps the finite case's 2-3 limit
PYTHONPATH="$1/src" python -m flexhedge.cli run --preset paper-3bus --case finite \
  --seed 7 --pi-des 70 --line-limit 3-2=0.3 --allow-infeasible --out "$2/run-limit-7"
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --preset paper-3bus --seed 7 \
  --pi "$(seq -s, 60 80)" --cases infinite,finite --line-limit 1-3=0.5 \
  --out "$2/sweep-limit-7"
# the run's 3-2 limit swept over 21 caps: pass 1 of hours 11-22 ends
# infeasible in both cases, and the sweep leaves them out at every cap
PYTHONPATH="$1/src" python -m flexhedge.cli sweep --preset paper-3bus --seed 7 \
  --pi "$(seq -s, 60 80)" --cases infinite,finite --line-limit 3-2=0.3 \
  --out "$2/sweep-limit-infeasible-7"
# the single-bus duality chain: the defaults, the README example, a
# dispatch that is infeasible without flexibility, which exits 1, and
# a cap equal to the price, which prints the degenerate-optimum note
demo=0
for flags in "" "--gen-cost 80 --utility 90 --load-min 1 --load-max 1 --cap 70" \
    "--gen-capacity 0.5 --gen-cost 80 --utility 75 --load-min 1 --load-max 1 --cap 70" \
    "--gen-cost 50 --utility 90 --load-min 0.2 --load-max 1 --cap 50"; do
  demo=$((demo + 1))
  PYTHONPATH="$1/src" python -m flexhedge.cli duality-demo $flags \
    > "$2/duality-demo-$demo.txt" 2>&1 || echo "exit status $?" >> "$2/duality-demo-$demo.txt"
done
# malformed input: the error lines and exit status of each front door,
# a bad flag on a valid input, and a sweep --input of a file without
# line 2-3, whose default cases include finite, which limits that line
bad=0
for flags in "validate $3/bad.txt" \
    "run --input $3/bad.txt --pi-des nan --out $2/bad-out" \
    "sweep --input $3/bad.txt --pi 60,-1 --cases infinite,weird --out $2/bad-out" \
    "run --preset paper-3bus --bus 2 --formats xml --out $2/bad-out" \
    "run --preset paper-3bus --formats xml --out $2/bad-out" \
    "sweep --preset paper-3bus --pi 70 --cases weird --out $2/bad-out" \
    "sweep --input $3/mesh30.txt --bus 30 --pi 60 --out $2/bad-out"; do
  bad=$((bad + 1))
  PYTHONPATH="$1/src" python -m flexhedge.cli $flags \
    > "$2/bad-input-$bad.txt" 2>&1 || echo "exit status $?" >> "$2/bad-input-$bad.txt"
done
