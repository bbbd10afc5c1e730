#!/usr/bin/env bash
# Run a pytest selection and fail if ANY test in it was skipped.
#
# The differential harness and the strategy-equivalence suite skip
# their dense halves only when numpy is missing; on CI that means the
# dense backend silently went untested, so a skip must fail the job.
#
# Usage: pytest_no_skip.sh <label> <pytest-path> [<pytest-path> ...]
set -euo pipefail

label="$1"
shift
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest "$@" -q -rs | tee "$log"

if grep -qE "[0-9]+ skipped" "$log"; then
  echo "::error::${label} suite was (partially) skipped"
  exit 1
fi
