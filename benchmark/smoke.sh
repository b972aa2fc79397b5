#!/usr/bin/env bash
# Smoke test of the benchmark itself: every workload, end-to-end and
# traced, at --scale smoke (about 1/50 of the full inputs). Exits nonzero
# if any run fails a check or prints a malformed result.
#
#   bash benchmark/smoke.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in campaign single_comm3 mix4 saturated; do
  for trace in 0 1; do
    result="$(bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 0 \
      --trace "$trace" --scale smoke | tail -n 1)"
    printf '%s\n' "$result" | python3 -m json.tool > /dev/null
    case "$result" in
      *'"correct":true'*) echo "ok   $workload trace=$trace" ;;
      *) echo "FAIL $workload trace=$trace: $result" >&2; exit 1 ;;
    esac
  done
done
