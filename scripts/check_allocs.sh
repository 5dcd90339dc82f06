#!/bin/sh
# Fails when a benchmark run allocated more than <limit> times a request
# (0.25 unless -l gives another), or, with -b, more than <bytes> bytes a
# request:
#
#   scripts/check_allocs.sh write_heavy.out read_medium.out small_objects.out
#   scripts/check_allocs.sh -l 0.38 cluster_repl2.out
#   scripts/check_allocs.sh -b 143 small_objects.out
#
# Each argument is the stdout of one untraced run of the benchmark driver;
# its last line is the result as JSON, and allocs_per_req is read from
# there. The count repeats exactly for a seed, so host noise cannot trip
# the limit, and the four single-node workloads read 0.003-0.045 at
# seed 1: a per-object allocation coming back on the request path (one
# node of an attribute map, one control message) adds 0.4 or more and
# fails it. The cluster workloads need their own limits: a pass of theirs
# contains a target outage and a restore, whose journal replay rebuilds
# what the crash dropped (EXPERIMENTS.md, "What a target outage costs the
# host"). alloc_bytes_per_req (-b) also repeats for a seed; it catches a
# large buffer allocated once in hundreds of requests, which moves the
# count by a few thousandths.
set -eu
limit=0.25
bytes_limit=
while getopts l:b: opt; do
    case $opt in
        l) limit=$OPTARG ;;
        b) bytes_limit=$OPTARG ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
# check <output> <metric> <limit>
check() {
    value=$(tail -n 1 "$1" |
        sed -n "s/.*\"$2\": *{\"value\": *\([0-9.eE+-]*\).*/\1/p")
    if [ -z "$value" ]; then
        echo "$1: no $2 in the last line" >&2
        return 1
    elif awk -v a="$value" -v l="$3" 'BEGIN { exit !(a > l) }'; then
        echo "$1: $2 $value is over $3" >&2
        return 1
    fi
    echo "$1: $2 $value"
}
status=0
for out in "$@"; do
    check "$out" allocs_per_req "$limit" || status=1
    if [ -n "$bytes_limit" ]; then
        check "$out" alloc_bytes_per_req "$bytes_limit" || status=1
    fi
done
exit $status
