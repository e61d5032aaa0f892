#!/bin/sh
# Print the full text output of a fixed set of noisewin demo runs, one after
# another: every demo design in all three analysis modes, the reduced-MNA
# glitch model on the bus, the delay-impact section on the logic demo, and the
# provenance of logic1k's worst violation. Each run is preceded by a
# `### <args>` line and followed by an `exit <code>` line (0 = clean,
# 2 = violations found).
#
# Usage: tools/demo_reports.sh path/to/noisewin > demo_reports.out
#
# CI compares the output with bench/expected/demo_reports.txt byte for byte,
# so any change to a report, an explanation or a glitch estimate fails there;
# a deliberate change updates that file in the same commit.
set -u
bin=${1:?usage: demo_reports.sh path/to/noisewin}

run() {
  echo "### $*"
  "$bin" "$@"
  echo "exit $?"
}

for demo in bus logic pipeline logic1k logic10k; do
  for mode in no-filtering switching-windows noise-windows; do
    run --demo "$demo" --mode "$mode"
  done
done
run --demo bus --model reduced-mna
run --demo logic --delay-impact
run explain n740 --demo logic1k
