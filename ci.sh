#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), docs, full test
# suite, the source-contract analyzer (mvml-analyze --validate), the
# external benchmark package's build and tests, the campaign smoke +
# telemetry cross-validation gate, the serve TCP smoke gate, the serve chaos
# smoke gate (wire-fault totality + rejuvenation availability vs the DSPN
# model, byte-stable across reruns and shard counts), and the
# perf-regression gate (A/B pairs of `bash benchmark/run.sh` against the
# base commit, judged by the end-to-end bounds in BENCHMARK.json).
#
# Every gate runs through the harness below: each one prints a one-line
# `gate <name>: ok (<seconds>s)` summary when it passes, and the script
# fails fast naming the gate that broke (`ci.sh: gate '<name>' FAILED`).
#
# Knobs:
#   GATES="..."  run only the named gates (space- or comma-separated).
#                Known names: fmt clippy docs test analyze benchmark campaign
#                serve chaos perf tsan miri. Example: GATES="fmt,clippy,test".
#                Unset/empty = the full default lane (tsan/miri only when
#                their knobs below ask for them).
#   PERF_GATE=0  skip the perf-regression gate (it builds the benchmark at
#                this checkout and at the base commit and runs 40 benchmark
#                processes, ~12 minutes on 2 vCPUs; it needs the base commit
#                in the local history, e.g. a full clone with origin/main).
#   MIRI=1       additionally run the nn kernel/thread-pool suite under miri
#                to catch undefined behaviour in the unsafe SIMD microkernel
#                layer (`nn::gemm`/`nn::quant` — see the unsafe census in
#                analyze-policy.toml). Slow tests opt out via
#                #[cfg_attr(miri, ignore)]; a dedicated miri-sized parity
#                test stays in.
#   TSAN=1       additionally run the threaded suites (nn thread pool, the
#                map_recorded replay-determinism test, serve's parallel
#                tenant build) under ThreadSanitizer.
#                Needs a nightly toolchain with the rust-src component
#                (-Zbuild-std); skips gracefully when unavailable.
set -euo pipefail
cd "$(dirname "$0")"

# ---------------------------------------------------------------------------
# Gate harness: run_gate times a gate_<name> function, prints the one-line
# summary, and the EXIT trap names the gate when anything inside it fails.
# ---------------------------------------------------------------------------
KNOWN_GATES="fmt clippy docs test analyze benchmark campaign serve chaos perf tsan miri"
CURRENT_GATE=""
GATE_T0=0
# The perf gate's base-commit worktree, removed on exit.
PERF_WORKTREE=""

on_exit() {
  local status=$?
  if [[ $status -ne 0 && -n "$CURRENT_GATE" ]]; then
    echo "ci.sh: gate '$CURRENT_GATE' FAILED (exit $status, $((SECONDS - GATE_T0))s in)" >&2
  fi
  if [[ -n "$PERF_WORKTREE" ]]; then
    git worktree remove --force "$PERF_WORKTREE" 2>/dev/null || true
  fi
}
trap on_exit EXIT

run_gate() {
  local name=$1
  CURRENT_GATE=$name
  GATE_T0=$SECONDS
  "gate_$name"
  echo "gate $name: ok ($((SECONDS - GATE_T0))s)"
  CURRENT_GATE=""
}

gate_fmt() {
  cargo fmt --all --check
}

gate_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

gate_docs() {
  # Docs are part of the contract: broken intra-doc links and undocumented
  # public items fail the gate. First-party crates only — the offline
  # dependency stand-ins aren't held to the same bar. The crate list is
  # derived from the workspace metadata so new crates are covered the day
  # they are added (a hard-coded list once silently skipped one).
  local doc_crates
  doc_crates=$(cargo metadata --no-deps --format-version 1 | python3 -c '
import json, sys
for p in json.load(sys.stdin)["packages"]:
    if "/offline/" not in p["manifest_path"]:
        print(p["name"])
')
  # shellcheck disable=SC2046  # intentional word-splitting into -p pairs
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    $(printf -- '-p %s ' $doc_crates)
}

gate_test() {
  cargo test --workspace -q
  # The `reference` feature pins every convolution to the direct kernels;
  # the default build runs the channel-rich layers on GEMM instead.
  cargo test -q -p mvml-nn --features reference
  # The trained weights of the reference build have their own pinned hash.
  cargo test -q --features mvml-nn/reference --test trained_weights_pinned
}

gate_analyze() {
  # Source-contract gate: the static analyzer re-scans the workspace against
  # analyze-policy.toml and byte-compares with the committed artifact, so a
  # new violation, a stale mvml-allow, an un-cataloged `unsafe`, or a stale
  # results/ANALYSIS_source.json all fail here. Rule catalog: DESIGN.md §11.
  echo "== mvml-analyze: source contracts vs results/ANALYSIS_source.json =="
  # Dev profile on purpose: it reuses the build from the test gate, so the
  # whole gate is a quick re-scan + byte-compare.
  cargo run -q -p mvml-analyze -- --validate
  # The structural DSPN certificate: petri_analyze rewrites
  # results/ANALYSIS_petri.json in place (it explores the reactive nets), so
  # the checked-out copy is kept aside and must come back byte for byte.
  echo "== petri_analyze: DSPN certificate vs results/ANALYSIS_petri.json =="
  local committed="target/ANALYSIS_petri.committed.json"
  cp results/ANALYSIS_petri.json "$committed"
  cargo run -q --release -p mvml-bench --bin petri_analyze >/dev/null
  if ! cmp -s "$committed" results/ANALYSIS_petri.json; then
    echo "results/ANALYSIS_petri.json is stale: re-run petri_analyze and commit it" >&2
    return 1
  fi
}

gate_benchmark() {
  # External benchmark gate: benchmark/ is a separate cargo package that
  # links the workspace crates (ThreadPool, the avsim route runner,
  # MultiVersionPerception, the DSPN solver), so nothing else in this
  # script compiles it. Building and testing it here keeps an API change
  # in those crates from breaking `bash benchmark/run.sh` unseen.
  echo "== benchmark: benchmark/ package build + unit and integration tests =="
  cargo test -q --offline --manifest-path benchmark/Cargo.toml
}

gate_campaign() {
  # Runtime-fault smoke gate: a reduced two-seed campaign must run end to end
  # with telemetry, its report must pass schema/invariant validation, the
  # JSONL stream must tally exactly with the report, and — because telemetry
  # is observe-only — a telemetry-disabled rerun must produce a byte-identical
  # report. The wall-clock of both runs is printed so recording overhead
  # stays visible (the stream rides on the same deterministic computation).
  echo "== campaign smoke: 2-seed runtime fault-injection mini campaign =="
  local smoke_out="target/campaign-smoke.json"
  local smoke_tel="target/campaign-smoke.jsonl"
  local smoke_off="target/campaign-smoke-notelemetry.json"
  local t0 t_on t_off
  t0=$SECONDS
  cargo run -q --release -p mvml-bench --bin campaign -- \
    --smoke --out "$smoke_out" --telemetry "$smoke_tel" >/dev/null
  t_on=$((SECONDS - t0))
  cargo run -q --release -p mvml-bench --bin campaign -- \
    --validate "$smoke_out" --telemetry "$smoke_tel"
  t0=$SECONDS
  cargo run -q --release -p mvml-bench --bin campaign -- \
    --smoke --out "$smoke_off" --no-telemetry >/dev/null
  t_off=$((SECONDS - t0))
  cmp "$smoke_out" "$smoke_off" \
    || { echo "telemetry perturbed the campaign report" >&2; return 1; }
  echo "telemetry-on ${t_on}s vs telemetry-off ${t_off}s; reports byte-identical"
  rm -f "$smoke_out" "$smoke_tel" "$smoke_off"
}

gate_serve() {
  # Serve smoke gate: boot the TCP inference server on an ephemeral port,
  # drive a two-tenant mini load over the wire, and shut it down cleanly.
  # The final report must pass schema validation, the telemetry JSONL must be
  # non-empty valid JSON, and the *committed* results/BENCH_serve.json must
  # still parse against the bench schema (tests/serve_bench_pinned.rs, in
  # the test gate, re-runs it and requires the same reports).
  echo "== serve smoke: 2-tenant TCP round trip on an ephemeral port =="
  local port_file="target/serve-smoke.port"
  local report="target/serve-smoke-report.json"
  local tel="target/serve-smoke.jsonl"
  rm -f "$port_file" "$report" "$tel"
  cargo build -q --release -p mvml-serve
  target/release/serve --shards 2 --port-file "$port_file" \
    --report-out "$report" --telemetry-out "$tel" &
  local serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "serve died before binding" >&2; return 1; }
    sleep 0.1
  done
  [[ -s "$port_file" ]] || { echo "serve never wrote its port file" >&2; return 1; }
  local port
  port=$(<"$port_file")
  target/release/serve_load --connect "127.0.0.1:${port}" \
    --requests 6 --shutdown >/dev/null
  wait "$serve_pid" || { echo "serve exited non-zero" >&2; return 1; }
  python3 - "$report" "$tel" results/BENCH_serve.json <<'PY'
import json, sys
report_path, tel_path, bench_path = sys.argv[1:]
report = json.load(open(report_path))
assert report["schema"] == "mvml-serve-report-v2", report["schema"]
names = [t["tenant"] for t in report["tenants"]]
assert names == sorted(names) and len(names) >= 2, names
for t in report["tenants"]:
    assert t["decided"] + t["skipped"] + t["no_output"] + t["dropped"] == t["requests"], t
    assert t["slo_misses"] == t["skipped"] + t["no_output"] + t["dropped"], t
    assert t["requests"] == 6, t  # every admitted request is accounted
lines = [json.loads(l) for l in open(tel_path) if l.strip()]
assert lines, "telemetry stream is empty"
bench = json.load(open(bench_path))
assert bench["schema"] == "mvml-serve-bench-v2", bench["schema"]
assert {s["scenario"] for s in bench["scenarios"]} >= {"healthy", "faulted"}
for s in bench["scenarios"]:
    assert s["report"]["schema"] == "mvml-serve-report-v2", s["scenario"]
    for t in s["report"]["tenants"]:
        lat = t["round_latency"]
        assert lat["p50_rounds"] <= lat["p99_rounds"] <= lat["max_rounds"], t
print(f"serve report ok ({sum(t['requests'] for t in report['tenants'])} requests, "
      f"{len(lines)} telemetry records); committed BENCH_serve.json ok")
PY
  rm -f "$port_file" "$report" "$tel"
}

gate_chaos() {
  # Chaos smoke gate: the wire-chaos + rejuvenation campaign must be fully
  # deterministic — two smoke reruns AND a different shard count must emit
  # byte-identical artifacts — with zero transport panics, no leaked server
  # threads, every cell's measured availability within the stated tolerance
  # of its DSPN prediction, and the bystander tenant untouched.
  echo "== serve chaos smoke: wire faults + rejuvenation vs the DSPN model =="
  local a="target/chaos-smoke-a.json"
  local b="target/chaos-smoke-b.json"
  local s1="target/chaos-smoke-s1.json"
  cargo build -q --release -p mvml-serve
  target/release/serve_chaos --smoke --out "$a" >/dev/null
  target/release/serve_chaos --smoke --out "$b" >/dev/null
  target/release/serve_chaos --smoke --shards 1 --out "$s1" >/dev/null
  cmp "$a" "$b" \
    || { echo "chaos artifact is not stable across reruns" >&2; return 1; }
  cmp "$a" "$s1" \
    || { echo "chaos artifact depends on the shard count" >&2; return 1; }
  python3 - "$a" <<'PY'
import json, sys
chaos = json.load(open(sys.argv[1]))
assert chaos["schema"] == "mvml-serve-chaos-v1", chaos["schema"]
wire = chaos["wire"]
assert wire["all_clean"] and wire["transport_panics"] == 0, wire
assert wire["threads_joined"], wire
assert sum(r["injected"] for r in wire["census"]) == wire["injected"] > 0, wire
cells = chaos["cells"]
bad = [c["label"] for c in cells if not c["within_tolerance"]]
assert cells and not bad, bad
assert all(c["bystander_clean"] for c in cells), "bystander perturbed"
h = chaos["headline"]
assert h["proactive_availability"] >= h["reactive_availability"], h
print(f"chaos smoke ok ({wire['injected']} wire faults, {len(cells)} cells, "
      f"proactive gain {h['proactive_gain']:+.4f})")
PY
  rm -f "$a" "$b" "$s1"
}

gate_perf() {
  # Perf-regression gate: A/B pairs of `bash benchmark/run.sh`, the
  # benchmark in BENCHMARK.json, run on this checkout and on its base
  # commit. The base is the merge-base with origin/main (HEAD^ when HEAD is
  # that merge-base), checked out in a worktree under target/. Each
  # workload runs seeds 1..5, one run per side and seed, alternating which
  # side goes first. The gate fails when a run exits non-zero or reports
  # `"correct": false`, when the change fails a larger share of its
  # operations, or when the change's median of an `end_to_end` metric is
  # worse than the base's by more than that metric's `bound`. It only
  # looks for regressions: five pairs are too few to claim a gain.
  if [[ "${PERF_GATE:-1}" != "1" ]]; then
    echo "PERF_GATE=0: skipping the perf-regression gate"
    return 0
  fi
  local pairs=5 out=target/perf-ab base w k side status
  base=$(git merge-base HEAD origin/main)
  [[ "$base" != "$(git rev-parse HEAD)" ]] || base=$(git rev-parse HEAD^)
  echo "== perf gate: $pairs pairs per workload, this checkout vs base $(git rev-parse --short "$base") =="
  PERF_WORKTREE=target/perf-base
  # Clear what an interrupted run may have left behind.
  git worktree remove --force "$PERF_WORKTREE" 2>/dev/null || rm -rf "$PERF_WORKTREE"
  git worktree prune
  git worktree add -q --detach "$PERF_WORKTREE" "$base"
  # Each side builds its own benchmark, in its own benchmark/target.
  local -A root=([base]="$PERF_WORKTREE" [change]=.)
  rm -rf "$out"
  mkdir -p "$out"
  for w in $(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for ((k = 1; k <= pairs; k++)); do
      for side in $( ((k % 2)) && echo base change || echo change base); do
        status=0
        (cd "${root[$side]}" \
          && env -u CARGO_TARGET_DIR bash benchmark/run.sh --workload "$w" --seed "$k") \
          >"$out/$side-$w-$k.txt" 2>"$out/$side-$w-$k.err" || status=$?
        echo "exit $status" >>"$out/$side-$w-$k.txt"
      done
    done
  done
  # Each side's results.json (its last run, with host provenance).
  cp benchmark/out/results.json "$out/change-results.json" || true
  cp "$PERF_WORKTREE/benchmark/out/results.json" "$out/base-results.json" || true
  python3 - "$out" "$pairs" <<'PY'
import json, statistics, sys
out, pairs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
problems = []
print(f"{'workload':<14} {'metric':<13} {'base':>11} {'change':>11} {'change/base':>11} {'bound':>6}  verdict")
for w in (x["name"] for x in spec["workloads"]):
    runs = {"base": [], "change": []}
    for side, kept in runs.items():
        for k in range(1, pairs + 1):
            *body, status = open(f"{out}/{side}-{w}-{k}.txt").read().splitlines()
            try:
                result = json.loads(body[-1]) if body and body[-1].startswith("{") else {}
            except ValueError:
                result = {}
            if status != "exit 0" or result.get("correct") is not True:
                problems.append(f"{w}: {side} run with seed {k} failed "
                                f"({status}, correct = {result.get('correct')})")
            else:
                kept.append(result)
    if not all(runs.values()):
        continue
    share = {s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for s, rs in runs.items()}
    worse = share["change"] > share["base"]
    print(f"{w:<14} {'failed share':<13} {share['base']:>11.4g} {share['change']:>11.4g} "
          f"{'':>11} {'0':>6}  {'REGRESSED' if worse else 'ok'}")
    if worse:
        problems.append(f"{w}: the change fails a larger share of operations "
                        f"({share['change']:.4g} vs {share['base']:.4g})")
    for m in spec["end_to_end"]:
        name = m["name"]
        med = {s: statistics.median(r["metrics"][name]["value"] for r in rs) for s, rs in runs.items()}
        ratio = med["change"] / med["base"]
        loss = ratio - 1 if m["better"] == "lower" else 1 - ratio
        bad = loss > m["bound"]
        print(f"{w:<14} {name:<13} {med['base']:>11.5g} {med['change']:>11.5g} "
              f"{ratio:>11.4f} {m['bound']:>6.2f}  {'REGRESSED' if bad else 'ok'}")
        if bad:
            problems.append(f"{w}: median {name} is {100 * loss:.1f}% worse than the base "
                            f"({med['change']:.5g} vs {med['base']:.5g} {m['unit']}, "
                            f"bound {100 * m['bound']:.0f}%)")
for p in problems:
    print(f"perf gate: {p}", file=sys.stderr)
sys.exit(1 if problems else 0)
PY
}

gate_tsan() {
  if cargo +nightly --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
       | grep -q '^rust-src.*(installed)'; then
    local host_target
    host_target=$(rustc -vV | sed -n 's/^host: //p')
    echo "== tsan: nn thread pool + map_recorded replay determinism =="
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -Zbuild-std --target "$host_target" -p mvml-nn --lib --tests
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -Zbuild-std --target "$host_target" -p mvml-avsim --lib \
      replay_is_identical_for_any_thread_count
    echo "== tsan: serve tenant blueprints trained on pool threads =="
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
      -Zbuild-std --target "$host_target" -p resilient-perception \
      --test serve_parallel_build
  else
    echo "TSAN requested but nightly + rust-src are unavailable; skipping." >&2
    echo "(install with: rustup toolchain install nightly --component rust-src)" >&2
  fi
}

gate_miri() {
  if cargo miri --version >/dev/null 2>&1; then
    echo "== miri: nn kernel + thread-pool suite =="
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}" cargo miri test -p mvml-nn
  else
    echo "MIRI requested but the miri component is not installed; skipping." >&2
    echo "(the SIMD microkernels carry real unsafe now — see the census in" >&2
    echo " analyze-policy.toml; install with: rustup component add miri)" >&2
  fi
}

# ---------------------------------------------------------------------------
# Gate selection: GATES picks an explicit subset; otherwise the default lane
# runs, with tsan/miri appended only when their knobs opt in.
# ---------------------------------------------------------------------------
if [[ -n "${GATES:-}" ]]; then
  SELECTED="${GATES//,/ }"
  for g in $SELECTED; do
    case " $KNOWN_GATES " in
      *" $g "*) ;;
      *) echo "ci.sh: unknown gate '$g' (known: $KNOWN_GATES)" >&2; exit 2 ;;
    esac
  done
else
  SELECTED="fmt clippy docs test analyze benchmark campaign serve chaos perf"
  [[ "${TSAN:-0}" == "1" ]] && SELECTED+=" tsan"
  [[ "${MIRI:-0}" == "1" ]] && SELECTED+=" miri"
fi

for g in $SELECTED; do
  run_gate "$g"
done
echo "ci.sh: all gates passed (${SECONDS}s total)"
