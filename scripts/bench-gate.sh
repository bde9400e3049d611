#!/usr/bin/env bash
# CI's performance gate, runnable locally: every BENCHMARK.json workload once
# at --seconds 5, compared by the benchmark's own -compare with the committed
# bench_baseline.jsonl. It gates on what does not depend on the machine: the
# run's oracle (exit status), matched_total, and the three count metrics. It
# does not gate on -compare's exit status, because with one pair every
# unbounded timing that is merely slower on this runner also reads "regressed".
#
#   scripts/bench-gate.sh             run the workloads and gate them
#   scripts/bench-gate.sh --check F   gate an existing -o file F (how CI proves the gate can fail)
#   scripts/bench-gate.sh --record    re-record bench_baseline.jsonl; use the go.mod toolchain
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$root/bench_baseline.jsonl"
new="$root/.bench_build/gate.jsonl"
[[ "${1:-}" != --record ]] || new="$base"
if [[ "${1:-}" == --check ]]; then
	new="$(realpath "$2")"
else
	mkdir -p "$root/.bench_build" && rm -f "$new"
	for w in match-drift fanout-agg churn-mixed fed-2hop; do
		bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 5 --trace 0 -o "$new" >/dev/null
	done
fi
[[ "$new" != "$base" ]] || exit 0
report="$(bash "$root/bench/run.sh" -compare "$base" "$new" || true)"
echo "$report"
fail=0
if [[ "$(grep -c 'matched_total identical and nothing failed in 1 of 1 pairs' <<<"$report")" != 4 ]]; then
	echo "bench-gate: matched_total differs, a run failed, or a workload is missing" && fail=1
fi
if grep -qE '^ +(ops_per_event|allocs_per_event|bytes_per_sub) .* regressed' <<<"$report"; then
	echo "bench-gate: a gating count regressed against bench_baseline.jsonl" && fail=1
fi
exit $fail
