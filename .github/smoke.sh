#!/usr/bin/env bash
# Console-script smoke test: every subcommand runs with numpy's
# RuntimeWarnings as errors, inputs past the supported ranges exit 2 with a
# named error, the reduce, closed-form, Monte-Carlo, region and decay lines
# of the README and one at a ragged sample count match fresh runs, and the
# README's verify line passes.
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
# an operand in exponent form is a negative number, not an option
hypertransfer reduce -1e-3 1 | diff - <(hypertransfer reduce -0.001 1)
hypertransfer region -1e-3 0.5 --samples 5 | diff - <(hypertransfer region -0.001 0.5 --samples 5)
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
# the reduction runs exactly on the float input, and z0 is its exact point
# rounded once: 0.30001110223024625157 + 100000.0000000000045i to 20 digits
hypertransfer reduce 0.3 1e-7 | diff - <(printf '%s\n' \
  gamma_a,gamma_b,gamma_c,gamma_d,z0_x,z0_y 3,-1,10,-3,0.30001110223024624,100000)
# where the reduced point overflows float64 reduce names its DomainError
exits_2 reduce 0 5e-324
# past the supported norm range decay names its DomainError
exits_2 decay --rmin 1e-300 --rmax 0.5 --steps 2
# past the AN shapes of supported norms region names its DomainError
exits_2 region -0.1 1e200 --samples 3
# an infinite tolerance is an unbounded target, refused by name
exits_2 symbol 2 --rel-tol inf
exits_2 symbol 2 --abs-tol inf
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
# the README's verify line exits 0, and its report passes as a whole
report=$(hypertransfer verify --suite all --seed 7)
grep -x -F '  "passed": true,' <<< "$report" > /dev/null

# the $2 lines under the whole README line "$ $1"
readme_output() {
  grep -x -F -A "$2" "\$ $1" README.md | tail -n "$2"
}
hypertransfer reduce 5 2 | diff - <(readme_output 'hypertransfer reduce 5 2' 2)
hypertransfer symbol 0.2 | diff - <(readme_output \
  'hypertransfer symbol 0.2                      # closed-form route' 2)
command='hypertransfer symbol 0.2 --mode mc --n 200000 --seed 7'
$command | diff - <(readme_output "$command" 2)
# the case tag and the header; the README elides the polyline rows
hypertransfer region -1 1.5 --samples 100 | sed -n 1,2p | diff - <(readme_output \
  'hypertransfer region -1 1.5 --samples 100     # boundary polylines + case tag' 2)
# the header, both rows and the summary of a two-row table
hypertransfer decay --steps 2 | diff - <(readme_output \
  'hypertransfer decay --steps 2                # rows at rmin and rmax, 0.05 and 0.5' 4)
# 50 001 samples: a ragged last block, and the y and theta streams start at
# draws 50 001 and 100 002, off a Philox counter step
hypertransfer symbol 0.2 --mode mc --n 50001 --seed 3 | diff - <(printf '%s\n' \
  r,mode,value,error 0.20000000000000001,mc,0.50216995660086794,0.0022360469194019628)
# within 1e-9 of the identity the norm keeps the digits of n - 1, so
# m_tilde = 1 - 1.3059e-8 is not rounded to 1
hypertransfer symbol 1.000000001 | diff - <(printf '%s\n' \
  r,mode,value,error 1.0000000010000001,case,0.99999998694123082,1.1102230101270103e-14)
hypertransfer symbol 1.000000001 --mode direct | diff - <(printf '%s\n' \
  r,mode,value,error 1.0000000010000001,direct,0.99999998694123104,1.1102230101270104e-14)
hypertransfer symbol 0.999999999 | diff - <(printf '%s\n' \
  r,mode,value,error 0.99999999900000003,case,0.99999998694123082,1.1102230101270103e-14)
hypertransfer symbol 0.999999999 --mode direct | diff - <(printf '%s\n' \
  r,mode,value,error 0.99999999900000003,direct,0.99999998694123104,1.1102230101270104e-14)
