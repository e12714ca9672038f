#!/usr/bin/env bash
# A/B driver for the glass-to-glass benchmark: one base revision against
# the checkout, in alternating perfbench runs.
#
#   scripts/ab.sh <base-rev> <workload> <pairs> [seed]
#
# Builds perfbench twice, offline, each into its own target directory
# under .bench_build/: from <base-rev>, exported with `git archive` (so no
# worktree is registered and a killed run leaves nothing behind in .git),
# and from the checkout as it stands, uncommitted edits included. Then it
# runs the two binaries alternately for <pairs> pairs of 20 s runs at the
# given seed (default 1), swapping which side goes first every pair, and
# keeps each run's output under .bench_build/ab/<workload>/.
#
# For every end-to-end metric BENCHMARK.json lists it prints the base
# runs' quartiles, the change's median, the median of the per-pair ratios
# change/base, and the pairs the change won (strictly better in the
# metric's direction). `shift>IQR` says whether the two medians differ by
# more than the base runs' interquartile range. It gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> <pairs> [seed]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seed=${4:-1}
seconds=20
root=$PWD/.bench_build
out=$root/ab/$workload

rev=$(git rev-parse --verify "$base_rev^{commit}")
echo "== base $rev, change: the checkout; $workload, $pairs pairs, seed $seed ==" >&2
rm -rf "$root/base-src"
mkdir -p "$root/base-src" "$out"
git archive "$rev" | tar -x -C "$root/base-src"
CARGO_TARGET_DIR=$root/base-target cargo build -q --release --offline \
    --manifest-path "$root/base-src/perfbench/Cargo.toml"
CARGO_TARGET_DIR=$root/head-target cargo build -q --release --offline \
    --manifest-path perfbench/Cargo.toml

run() { # <side> <pair>
    local log=$out/$1-$2.txt
    if ! "$root/$1-target/release/perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$log"; then
        echo "ab: the $1 run of pair $2 failed; its output is in $log" >&2
        exit 1
    fi
}

# One field of a run's JSON line: a metric's value ("null" when not
# finite), or with no metric the frames the run attempted.
value() { # <log> [metric]
    if [[ $# -eq 1 ]]; then
        tail -n 1 "$1" | grep -o '"attempted": [0-9]*' | sed 's/.*: //'
    else
        tail -n 1 "$1" | grep -o "\"$2\": {\"value\": [^,}]*" | sed 's/.*: //'
    fi
}

# Quality metrics depend on how many frames a run reached, so each pair
# reports both counts: compare them only between runs of equal length.
rm -f "$out"/base-*.txt "$out"/head-*.txt
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
    for side in base head; do
        echo "pair $i/$pairs $side: $(value "$out/$side-$i.txt") frames," \
            "$(grep -o 'host steal .*' "$out/$side-$i.txt")" >&2
    done
done

printf '%-24s %-6s %32s %12s %11s %7s %9s\n' \
    metric better "base p25/median/p75" "change p50" "ratio p50" wins "shift>IQR"
sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -nE 's/.*"name": "([^"]*)".*"better": "([a-z]*)".*/\1 \2/p' |
    while read -r metric better; do
        for ((i = 1; i <= pairs; i++)); do
            echo "$(value "$out/base-$i.txt" "$metric") $(value "$out/head-$i.txt" "$metric")"
        done | awk -v metric="$metric" -v better="$better" '
            # Linear-interpolated quantile of the sorted a[1..n].
            function q(a, n, p,    h, l) {
                h = 1 + (n - 1) * p; l = int(h)
                return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
            }
            function sort(a, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            $1 != "null" && $2 != "null" {
                n++; b[n] = $1; h[n] = $2
                r[n] = $1 == 0 ? ($2 == 0 ? 1 : 0) : $2 / $1
                if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++
            }
            END {
                if (n == 0) { printf "%-24s %-6s %32s\n", metric, better, "no finite pairs"; exit }
                sort(b, n); sort(h, n); sort(r, n)
                iqr = q(b, n, 0.75) - q(b, n, 0.25)
                shift = q(h, n, 0.5) - q(b, n, 0.5)
                printf "%-24s %-6s %10.5g/%10.5g/%10.5g %12.5g %11.4f %7s %9s\n",
                    metric, better, q(b, n, 0.25), q(b, n, 0.5), q(b, n, 0.75), q(h, n, 0.5),
                    q(r, n, 0.5), (wins + 0) "/" n, ((shift < 0 ? -shift : shift) > iqr ? "yes" : "no")
            }'
    done
