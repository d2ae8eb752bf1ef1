#!/bin/sh
# Every workload, untraced then traced.  Usage: sh perfbench/all.sh [seed]
set -e
seed=${1:-0}
for workload in n2-solve n1-corner n2-geometry; do
    for trace in 0 1; do
        echo "== $workload trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --trace "$trace"
    done
done
