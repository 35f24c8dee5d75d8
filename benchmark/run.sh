#!/usr/bin/env bash
# The one command of the repo benchmark: builds the crate in this
# directory (release, offline) and runs it.
#
#   benchmark/run.sh [--smoke] [--seed S] [--seconds N] [--record]
#       every workload, untraced then traced, each in its own process;
#       prints `workload metric value unit` lines, writes benchmark/out/.
#       --record also copies the results to benchmark/BASELINE.json.
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload, one mode; the last line of stdout is the result as
#       one JSON object (this is what BENCHMARK.json's `command` runs).
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh list
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the benchmark driver sets one) is relative
# to the caller's directory, which this script never leaves.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/sbc-benchmark"

# What was measured: the commit, marked when the measured sources (not
# the benchmark's own files) differ from it.
root="$(dirname "$here")"
rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
dirty=""
if [ "$rev" != unknown ] &&
    [ -n "$(git -C "$root" status --porcelain -- crates Cargo.toml Cargo.lock)" ]; then
    dirty=1
    rev="$rev-dirty"
fi

record=""
args=()
for a in "$@"; do
    case "$a" in
    --record) record=1 ;;
    *) args+=("$a") ;;
    esac
done

case " ${args[*]-} " in
" compare "* | " list "*) exec "$bin" "${args[@]}" ;;
*" --workload "*) exec "$bin" run "${args[@]}" --git-rev "$rev" ;;
esac

if [ -n "$record" ]; then
    case " ${args[*]-} " in *" --smoke "*)
        echo "run.sh: --record refuses a --smoke run" >&2
        exit 2
        ;;
    esac
    if [ "$rev" = unknown ] || [ -n "$dirty" ]; then
        echo "run.sh: --record refuses to write a baseline for $rev:" \
            "commit the measured sources first" >&2
        exit 2
    fi
fi
"$bin" run-all ${args[@]+"${args[@]}"} --git-rev "$rev"
if [ -n "$record" ]; then
    cp "$here/out/results.json" "$here/BASELINE.json"
    echo "# recorded $here/BASELINE.json at $rev"
fi
