#!/usr/bin/env bash
# Console-script smoke test: every subcommand runs with numpy's
# RuntimeWarnings as errors, inputs past the supported ranges exit 2 with a
# named error, and the Monte-Carlo line of the README matches a fresh run.
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
# past the supported norm range decay names its DomainError
exits_2 decay --rmin 1e-300 --rmax 0.5 --steps 2
# past the AN shapes of supported norms region names its DomainError
exits_2 region -0.1 1e200 --samples 3
hypertransfer verify --suite cases > /dev/null
hypertransfer verify --suite decay > /dev/null
hypertransfer verify --suite cocycle > /dev/null

command='hypertransfer symbol 0.2 --mode mc --n 200000 --seed 7'
$command | diff - <(grep -F -A 2 "\$ $command" README.md | tail -n 2)
