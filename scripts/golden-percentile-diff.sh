#!/usr/bin/env bash
# Checks that the committed serve goldens differ from their versions at a git
# revision only in the histogram percentile fields (p50_ns, p99_ns,
# cxl_p99_ns, hbm_p99_ns, ssd_p99_ns). Run it from the repository root after
# a change that is meant to move percentiles and nothing else:
#
#   bash scripts/golden-percentile-diff.sh [rev]    # rev defaults to HEAD
#
# Exits non-zero, printing the first differing lines, if any golden differs
# in another field.
set -euo pipefail
rev=${1:-HEAD}
strip() { sed -E 's/,"(p50_ns|p99_ns|cxl_p99_ns|hbm_p99_ns|ssd_p99_ns)":-?[0-9]+//g'; }
status=0
for f in internal/serve/testdata/{tenant,dataflow,scenario}_golden.jsonl; do
	if out=$(diff <(git show "$rev:$f" | strip) <(strip <"$f")); then
		echo "same apart from percentiles: $f"
	else
		echo "differs beyond percentiles: $f"
		head -n 20 <<<"$out"
		status=1
	fi
done
exit $status
