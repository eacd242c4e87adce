#!/usr/bin/env bash
# Builds and runs the repository benchmark; see bench/perf/README.md.
#   bench/perf/run.sh --seed=1 [--trace=DIR] [--smoke] [--out=FILE]
exec python3 "$(dirname "$0")/run.py" "$@"
