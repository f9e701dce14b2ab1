#!/usr/bin/env bash
# Byte-compares `gfair simulate` outputs between a base git ref and the
# working tree: the JSON report and the full-tier JSONL trace, for every
# `--policy` and every `--scheduler` baseline, clean and with the example
# fault plan. Prints a same/DIFF table and exits non-zero on any DIFF not
# named with --allow. Meant for simplification changes that must keep
# reports byte-identical; it builds the base ref a second time, so it is
# not part of scripts/ci.sh.
#
# Usage: scripts/report_diff.sh <base-ref> [--allow <run>]...
#   <run> is a row label from the table, e.g. `policy=gavel-hetero+faults`.
#
# The base ref is exported with `git archive` into
# target/report-diff/<commit> and built there, once per commit; outputs land
# in target/report-diff/out/{base,head}.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $1 == -* ]]; then
    echo "usage: $0 <base-ref> [--allow <run>]..." >&2
    exit 2
fi
base_ref=$1
shift
allow=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --allow)
            allow+=("${2:?--allow needs a run label}")
            shift 2
            ;;
        *)
            echo "unknown argument: $1" >&2
            exit 2
            ;;
    esac
done

work=target/report-diff
base_sha=$(git rev-parse --verify "$base_ref^{commit}")
base_dir=$work/$base_sha
rm -rf "$work/out"
mkdir -p "$work/out/base" "$work/out/head"
if [[ ! -f $base_dir/Cargo.toml ]]; then
    mkdir -p "$base_dir"
    git archive "$base_sha" | tar -x -C "$base_dir"
fi

echo "### building $base_ref ($base_sha)"
(cd "$base_dir" && cargo build --release --offline -q --bin gfair)
echo "### building working tree"
cargo build --release --offline -q --bin gfair

base_bin=$base_dir/target/release/gfair
head_bin=target/release/gfair

# The paper testbed with six users and 400 jobs over one simulated day.
common=(--cluster paper --users 6 --jobs 400 --horizon-hours 24 --seed 42)
# Every policy clean and faulted, gandiva-fair through --scheduler too, and
# the other baselines clean (they do not survive failed migrations).
runs=()
for p in gfair gavel-hetero themis-ftf; do
    runs+=("policy=$p" "policy=$p+faults")
done
runs+=("scheduler=gandiva-fair" "scheduler=gandiva-fair+faults")
for s in gandiva-like static drf fifo lottery; do
    runs+=("scheduler=$s")
done

failed=0
printf '%-34s %-7s %-7s\n' run report trace
for label in "${runs[@]}"; do
    run=${label%+faults}
    args=("${common[@]}" "--${run%%=*}" "${run#*=}")
    [[ $label == *+faults ]] && args+=(--faults examples/faults.json)
    for side in base head; do
        bin=$base_bin
        [[ $side == head ]] && bin=$head_bin
        out=$work/out/$side/$label
        if ! "$bin" simulate "${args[@]}" --json "$out.json" --trace-full "$out.jsonl" \
            >"$out.log" 2>&1; then
            echo "$side run $label failed:" >&2
            cat "$out.log" >&2
            exit 1
        fi
    done
    verdicts=()
    for ext in json jsonl; do
        if cmp -s "$work/out/base/$label.$ext" "$work/out/head/$label.$ext"; then
            verdicts+=(same)
        else
            verdicts+=(DIFF)
        fi
    done
    note=""
    if [[ " ${verdicts[*]} " == *" DIFF "* ]]; then
        if [[ " ${allow[*]-} " == *" $label "* ]]; then
            note="(allowed)"
        else
            failed=1
        fi
    fi
    printf '%-34s %-7s %-7s %s\n' "$label" "${verdicts[0]}" "${verdicts[1]}" "$note"
done

if [[ $failed -ne 0 ]]; then
    echo "report_diff: outputs differ from $base_ref (see the DIFF rows above)" >&2
    exit 1
fi
echo "report_diff: no unexpected differences from $base_ref"
