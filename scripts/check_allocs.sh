#!/bin/sh
# Fails when a benchmark run allocated more than <limit> times a request
# (0.25 unless -l gives another):
#
#   scripts/check_allocs.sh write_heavy.out read_medium.out small_objects.out
#   scripts/check_allocs.sh -l 1.01 cluster_repl2.out cluster_parity31.out
#
# Each argument is the stdout of one untraced run of the benchmark driver;
# its last line is the result as JSON, and allocs_per_req is read from
# there. The count repeats exactly for a seed, so host noise cannot trip
# the limit, and the three single-node workloads read 0.02-0.05 since
# PR 23: a per-object allocation coming back on the request path (one
# node of an attribute map, one control message) adds 0.4 or more and
# fails it. The cluster workloads need their own limit: a pass of theirs
# contains a target outage and a restore, whose journal replay rebuilds
# what the crash dropped (EXPERIMENTS.md, "What a target outage costs the
# host").
set -eu
limit=0.25
while getopts l: opt; do
    case $opt in
        l) limit=$OPTARG ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
status=0
for out in "$@"; do
    allocs=$(tail -n 1 "$out" |
        sed -n 's/.*"allocs_per_req": *{"value": *\([0-9.eE+-]*\).*/\1/p')
    if [ -z "$allocs" ]; then
        echo "$out: no allocs_per_req in the last line" >&2
        status=1
    elif awk -v a="$allocs" -v l="$limit" 'BEGIN { exit !(a > l) }'; then
        echo "$out: allocs_per_req $allocs is over $limit" >&2
        status=1
    else
        echo "$out: allocs_per_req $allocs"
    fi
done
exit $status
