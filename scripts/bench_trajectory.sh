#!/bin/sh
# Appends one summary line to BENCH_trajectory.jsonl from the benchmark
# driver's stdout:
#
#   cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
#       all --seed 42 | scripts/bench_trajectory.sh [commit-label]
#
# The label defaults to the checked-out commit. Of the untraced runs all
# thirteen end-to-end rows are kept: set-up time, host rate, p50 and p95,
# allocations, peak RSS, and the six sim_* rows — those repeat exactly per
# seed, so two lines that differ in them differ in what was simulated, not
# only in how fast. Plus the traced runs' core count. (Lines before PR 19
# lack setup_s, host_us_per_req_p95 and peak_rss_mib.)
set -eu
commit=${1:-$(git rev-parse --short HEAD)}
awk -v commit="$commit" '
    /^# [a-z0-9_]+ seed [0-9]+ seconds [0-9]+ trace [01]:/ {
        workload = $2; seed = $4; seconds = $6; untraced = ($8 == "0:")
        if (untraced) order[++n] = workload
    }
    untraced && /^(setup_s|host_req_per_s|host_us_per_req_p(50|95)|allocs_per_req|alloc_bytes_per_req|peak_rss_mib|sim_[a-z0-9_]+) / {
        row[workload] = row[workload] (row[workload] == "" ? "" : ", ") "\"" $1 "\": " $2
    }
    /^bench\.available_cores / { cores = $2 + 0 }
    END {
        if (n == 0) { print "no untraced run in the input" > "/dev/stderr"; exit 1 }
        printf "{\"commit\": \"%s\", \"seed\": %d, \"seconds\": %d, \"available_cores\": %d, \"workloads\": {", commit, seed, seconds, cores
        for (i = 1; i <= n; i++) printf "%s\"%s\": {%s}", (i > 1 ? ", " : ""), order[i], row[order[i]]
        print "}}"
    }
' >> "$(dirname "$0")/../BENCH_trajectory.jsonl"
