#!/usr/bin/env bash
# Paired A/B runs of the repo benchmark: a git revision against the working
# tree.
#
#   bash scripts/bench_ab.sh [-n PAIRS] [-t] REV [WORKLOAD...]
#
# REV is extracted with `git archive` into a temporary directory.  For each
# workload (default: every workload in BENCHMARK.json) the script runs PAIRS
# (default 10) pairs of
#
#   bash bench/run.sh --workload W --seed 1 --seconds 15 --trace 0
#
# one on REV and one on the working tree, flipping which side runs first on
# each pair.  For each end-to-end metric of BENCHMARK.json it then prints
# REV's median and interquartile range, the working tree's median, their
# ratio, the pairs the working tree won (strictly better in the metric's
# direction) and the failed ops per side.  With -t the runs take --trace 1
# and the same columns report BENCHMARK.json's per_layer metrics instead,
# skipping any a workload does not print and any that reads 0 on every run
# of both sides (a layer the workload does not exercise).  It exits 1 if
# any run answered wrongly or failed.  It changes nothing under bench/;
# both checkouts build into their own .bench_build/, and each run's JSON
# result line and stderr are kept as
# .bench_build/ab/<time>/WORKLOAD/{rev,head}/PAIR.{json,err}.
set -euo pipefail
usage() {
	echo "usage: bash scripts/bench_ab.sh [-n PAIRS] [-t] REV [WORKLOAD...]" >&2
	exit 2
}
pairs=10
trace=0
metrics=end_to_end
while getopts n:t opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	t) trace=1 metrics=per_layer ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[[ $# -ge 1 && $pairs -ge 1 ]] || usage
rev=$1
shift
cd "$(dirname "$0")/.."
head=$PWD
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"
res=$head/.bench_build/ab/$(date +%Y%m%d-%H%M%S)

bad=0
# run SIDE DIR WORKLOAD PAIR: one benchmark run; its JSON result line lands
# in $res/WORKLOAD/SIDE/PAIR.json and its stderr in PAIR.err beside it.
run() {
	local out="$res/$3/$1/$(printf %03d "$4")"
	mkdir -p "$(dirname "$out")"
	if ! (cd "$2" && bash bench/run.sh --workload "$3" --seed 1 --seconds 15 --trace "$trace") 2>"$out.err" | tail -n 1 >"$out.json" ||
		! jq -e '.correct == true' "$out.json" >/dev/null 2>&1; then
		echo "bench_ab: $3 pair $4 on $1: wrong answer or failed run" >&2
		bad=1
	fi
}

for w in "${workloads[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		echo "bench_ab: $w pair $i/$pairs" >&2
		if ((i % 2)); then
			run rev "$tmp/rev" "$w" "$i"
			run head "$head" "$w" "$i"
		else
			run head "$head" "$w" "$i"
			run rev "$tmp/rev" "$w" "$i"
		fi
	done
done

printf '%-11s %-29s %12s %12s %12s %8s %6s %s\n' \
	workload metric rev_median rev_iqr head_median ratio won "failed rev/head"
for w in "${workloads[@]}"; do
	jq -r -n --arg w "$w" --arg set "$metrics" --slurpfile bm BENCHMARK.json \
		--slurpfile rev <(cat "$res/$w"/rev/*.json) --slurpfile head <(cat "$res/$w"/head/*.json) '
		# q: the p-quantile with linear interpolation between order statistics.
		def q($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $i
			| if $i + 1 < $n then $s[$i] + ($h - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
		$bm[0][$set][] as $m
		| [$rev[] | .metrics[$m.name].value] as $a
		| [$head[] | .metrics[$m.name].value] as $b
		| select($set == "end_to_end" or (($a + $b | all(. != null)) and ($a + $b | any(. != 0))))
		| ($a | q(0.5)) as $ma | ($b | q(0.5)) as $mb
		| ([range(0; [($a | length), ($b | length)] | min)
			| select(if $m.better == "lower" then $b[.] < $a[.] else $b[.] > $a[.] end)] | length) as $won
		| [$w, $m.name, ($ma | tostring), (($a | q(0.75)) - ($a | q(0.25)) | tostring), ($mb | tostring),
			(if $ma == 0 then "-" else ($mb / $ma * 10000 | round / 10000 | tostring) end),
			"\($won)/\($a | length)", "\([$rev[].failed] | add)/\([$head[].failed] | add)"]
		| @tsv' |
		awk -F'\t' '{ printf "%-11s %-29s %12.6g %12.6g %12.6g %8s %6s %s\n", $1, $2, $3, $4, $5, $6, $7, $8 }' || bad=1
done
echo "bench_ab: raw results in $res" >&2
exit "$bad"
