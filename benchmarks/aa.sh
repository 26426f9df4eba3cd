#!/usr/bin/env bash
# A/A check of the benchmark against itself: two interleaved sets (A, B) of
# five runs per workload on the current tree, every run with another seed and
# as long as BENCHMARK.json's run_seconds, then the table of aa_table.py,
# which says what fails the check. Five traced runs per workload ride along
# for the diagnostics that are not gated.
#
#   bash benchmarks/aa.sh | tee benchmarks/AA.md
#
# Run logs stay under .bench_build/aa, where
# `python3 benchmarks/aa_table.py .bench_build/aa` prints the table again.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
logs="$PWD/.bench_build/aa"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

rm -rf "$logs"
mkdir -p "$logs"
for i in 1 2 3 4 5; do
  for w in $workloads; do
    for set in A B T; do
      case $set in A) seed=$i trace=0 ;; B) seed=$((100 + i)) trace=0 ;; T) seed=$((200 + i)) trace=1 ;; esac
      echo "aa: run $i/5, $w, set $set, seed $seed" >&2
      bash benchmarks/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" |
        tail -n 1 >"$logs/$w.$set.$i.json"
    done
  done
done
python3 benchmarks/aa_table.py "$logs"
