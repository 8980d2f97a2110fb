#!/usr/bin/env bash
# Console-script smoke test: every subcommand runs with numpy's
# RuntimeWarnings as errors, inputs past the supported ranges exit 2 with a
# named error, and the closed-form, Monte-Carlo and decay lines of the README
# and one at a ragged sample count match fresh runs.
# Run from the root of a checkout with the `hypertransfer` script on PATH.
set -euo pipefail
export PYTHONWARNINGS=error::RuntimeWarning

exits_2() {
  local rc=0
  hypertransfer "$@" || rc=$?
  test "$rc" -eq 2
}

hypertransfer reduce 5 2
# a point on the unit arc with Re > 0 reduces to its mirror image
hypertransfer reduce 0.28 0.96
hypertransfer symbol 0.2
hypertransfer symbol 0.2 --mode direct
# norms 1.33 and 1.67 cross the band where section breakpoints meet
hypertransfer symbol 0.75
hypertransfer symbol 0.6
hypertransfer symbol 1
hypertransfer symbol 1e30
hypertransfer region -1 1.5 --samples 5
hypertransfer region -1 1.5 --samples 5 --format json
# sections that start above the y-cap get no rows
hypertransfer region 0.01 0.05 --samples 5
hypertransfer decay --steps 2
hypertransfer decay --rmin 0.001 --rmax 0.99 --steps 6 > /dev/null
# the default table has more rows than a small runner has CPUs; two runs of
# it print the same bytes
first=$(hypertransfer decay)
second=$(hypertransfer decay)
test "$first" = "$second"
# past the supported norm range decay names its DomainError
exits_2 decay --rmin 1e-300 --rmax 0.5 --steps 2
# past the AN shapes of supported norms region names its DomainError
exits_2 region -0.1 1e200 --samples 3
# symbol --mode mc shares the norm range [1e-38, 1e38] of every symbol mode:
# it runs at norm 1e20, and past 1e38, float64's reach included, it names the
# DomainError of that range
hypertransfer symbol 1e20 --mode mc --n 1000 --seed 1
exits_2 symbol 1e39 --mode mc --n 1000 --seed 1
exits_2 symbol 1e200 --mode mc --n 1000 --seed 1
# sample and grid counts past numpy's largest array name their input; numpy
# refuses these sizes before it allocates anything
exits_2 symbol 2 --mode mc --n 100000000000000000000
exits_2 decay --steps 100000000000000000000
exits_2 region 0 1 --samples 100000000000000000000
hypertransfer verify --suite cases > /dev/null
hypertransfer verify --suite decay > /dev/null
hypertransfer verify --suite cocycle > /dev/null

# the $2 lines under the whole README line "$ $1"
readme_output() {
  grep -x -F -A "$2" "\$ $1" README.md | tail -n "$2"
}
hypertransfer symbol 0.2 | diff - <(readme_output \
  'hypertransfer symbol 0.2                      # closed-form route' 2)
command='hypertransfer symbol 0.2 --mode mc --n 200000 --seed 7'
$command | diff - <(readme_output "$command" 2)
# the header, both rows and the summary of a two-row table
hypertransfer decay --steps 2 | diff - <(readme_output \
  'hypertransfer decay --steps 2                # rows at rmin and rmax, 0.05 and 0.5' 4)
# 50 001 samples: a ragged last block, and the y and theta streams start at
# draws 50 001 and 100 002, off a Philox counter step
hypertransfer symbol 0.2 --mode mc --n 50001 --seed 3 | diff - <(printf '%s\n' \
  r,mode,value,error 0.20000000000000001,mc,0.50216995660086794,0.0022360469194019628)
