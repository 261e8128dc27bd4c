#!/usr/bin/env bash
# Builds the benchmark in release mode and runs its workloads, each in its
# own process.
#
#   benchmark/run.sh [--workload W]... [--seed S] [--seconds N]
#                    [--trace 0|1 | --traced] [--sets K]
#
# Without --workload, all four workloads run. --traced (or --trace 1) runs
# mvml-benchmark-traced, which reports per-layer metrics and writes spans to
# benchmark/out/<workload>/trace.jsonl; otherwise mvml-benchmark reports the
# end-to-end metrics. Each run prints `metric <workload> <name> <value>
# <unit>` lines and, as its last line, a JSON result. --sets K runs K
# interleaved sets (set k uses seed S+k-1) and exits non-zero when any
# end-to-end metric differs between sets by more than its bound in
# BENCHMARK.json. Every run's result is collected with host provenance in
# benchmark/out/results.json. The exit status is non-zero when a build,
# a run or a correctness check fails.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# A pinned environment: backtraces would print one per injected crash,
# and thread-count or tuning overrides would change what is measured.
unset RUST_BACKTRACE MVML_THREADS MVML_TUNE

workloads=()
seed=1
seconds=()
traced=0
sets=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --trace) traced="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --sets) sets="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(serve-healthy serve-faulted avsim-route dspn-sweep)
fi
if [[ "$traced" != 0 && "$traced" != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1" >&2
  exit 2
fi
if [[ "$traced" == 1 && "$sets" -gt 1 ]]; then
  echo "run.sh: --sets compares end-to-end metrics; drop --traced" >&2
  exit 2
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/mvml-benchmark"
if [[ "$traced" == 1 ]]; then
  bin="$target/release/mvml-benchmark-traced"
fi

out=benchmark/out
mkdir -p "$out"

json_string() {
  local s="${1//\\/\\\\}"
  printf '"%s"' "${s//\"/\\\"}"
}

runs=()
status=0
for ((set = 1; set <= sets; set++)); do
  mkdir -p "$out/set$set"
  for w in "${workloads[@]}"; do
    run_seed=$((seed + set - 1))
    log="$out/set$set/$w.txt"
    run_status=0
    "$bin" --workload "$w" --seed "$run_seed" "${seconds[@]}" --out "$out" | tee "$log" ||
      run_status=$?
    if [[ $run_status -ne 0 ]]; then
      echo "run.sh: $w (set $set) exited with status $run_status" >&2
      status=1
    fi
    result="$(tail -n 1 "$log")"
    [[ "$result" == "{"* ]] || result=null
    runs+=("{\"workload\": \"$w\", \"set\": $set, \"seed\": $run_seed, \"traced\": $([[ $traced == 1 ]] && echo true || echo false), \"exit\": $run_status, \"result\": $result}")
  done
done

commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$ROOT")" git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
rustflags="${RUSTFLAGS:-}"
if grep -q 'target-cpu=native' .cargo/config.toml 2>/dev/null; then
  rustflags="${rustflags:+$rustflags }-C target-cpu=native (.cargo/config.toml)"
fi
{
  echo "{"
  echo "  \"host\": {"
  echo "    \"nproc\": $(nproc),"
  echo "    \"cpu_model\": $(json_string "${cpu:-unknown}"),"
  echo "    \"rustc\": $(json_string "$(rustc -V)"),"
  echo "    \"commit\": $(json_string "$commit"),"
  echo "    \"rustflags\": $(json_string "${rustflags:-none}")"
  echo "  },"
  echo "  \"runs\": ["
  for i in "${!runs[@]}"; do
    sep=","
    [[ $i -eq $((${#runs[@]} - 1)) ]] && sep=""
    echo "    ${runs[$i]}$sep"
  done
  echo "  ]"
  echo "}"
} > "$out/results.json"
echo "run.sh: results in $out/results.json" >&2

if [[ "$sets" -gt 1 ]]; then
  set_dirs=()
  for ((set = 1; set <= sets; set++)); do
    set_dirs+=("$out/set$set")
  done
  "$target/release/mvml-benchmark" compare "${set_dirs[@]}" || status=1
fi
exit "$status"
