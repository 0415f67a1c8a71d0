#!/usr/bin/env bash
# The benchmark gate: runs perfbench, the repository benchmark defined in
# BENCHMARK.json, as a check. Workload names, metric directions and bounds
# all come from BENCHMARK.json; the gate has no tuning options.
#
# Usage:
#   bash scripts/perf_gate.sh                 # correctness + exact counts
#   bash scripts/perf_gate.sh --update        # same runs; rewrite scripts/perf_counts/
#   bash scripts/perf_gate.sh --against REV   # end-to-end A/B against REV, this machine
#   bash scripts/perf_gate.sh --self-test     # the gate's own logic on canned inputs
#
# Default mode runs every workload once, traced (seed 3, 3 s). A run fails
# on a non-zero exit, `failed` ≠ 0 or `correct` false. Its exact counters
# (every *.factor_nnz, *.symbolic_nnz, scn.*.iters and circuit.cache_misses,
# which perfbench writes to .bench_out/counts-<workload>.txt) must equal
# scripts/perf_counts/<workload>.txt line for line: they are deterministic,
# so this check has no noise and no tolerance.
#
# --against builds perfbench at REV in a git worktree under target/ and runs
# 5 alternating pairs per workload (seeds 1–5, 5 s, untraced) on both sides.
# A (workload, metric) pair fails only when the change's median is worse
# than the base median by more than the metric's bound, in its `better`
# direction, AND every change run is worse than every base run. A median
# past the bound with overlapping runs is reported `unresolved`.
set -euo pipefail
cd "$(dirname "$0")/.."

DEFINITION=BENCHMARK.json
COUNTS=scripts/perf_counts
OUT=.bench_out
PAIRS=5

# Judges one workload's A/B runs: argv = definition, workload, base results,
# change results (one perfbench result line per run). Prints one markdown
# table row per end-to-end metric; exits 1 if any row is FAIL.
JUDGE=$(cat <<'EOF'
import json, statistics, sys

definition, workload, base_file, change_file = sys.argv[1:5]
metrics = json.load(open(definition))["end_to_end"]
runs = lambda path: [json.loads(line)["metrics"] for line in open(path) if line.strip()]
base, change = runs(base_file), runs(change_file)
fail = False
for m in metrics:
    name, bound = m["name"], m["bound"]
    sign = 1.0 if m["better"] == "lower" else -1.0
    b = [r[name]["value"] for r in base]
    c = [r[name]["value"] for r in change]
    mb, mc = statistics.median(b), statistics.median(c)
    # How much worse the change's median is, as a fraction of the base's.
    worse = sign * (mc - mb) / abs(mb) if mb else (float("inf") if sign * (mc - mb) > 0 else 0.0)
    separated = all(sign * (x - y) > 0 for x in c for y in b)
    if worse > bound and separated:
        verdict, fail = "FAIL", True
    elif worse > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    print(f"| {workload} | {name} | {mb:.4g} | {mc:.4g} | {100 * (mc - mb) / abs(mb) if mb else 0:+.1f}% "
          f"| {m['better']} ±{100 * bound:.0f}% | {verdict} |")
sys.exit(1 if fail else 0)
EOF
)

workloads() {
  python3 -c 'import json, sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$DEFINITION"
}

# Prints a result line's `key` field (failed, correct).
field() {
  python3 -c 'import json, sys; print(str(json.loads(sys.argv[1])[sys.argv[2]]).lower())' "$1" "$2"
}

build() { # build TREE
  (cd "$1" && cargo build --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml)
}

# perfbench TREE ARGS… — runs the benchmark command from BENCHMARK.json in
# TREE (perfbench reads results/ and scenarios/ from its working directory)
# and prints its result line. Standard error goes to TREE/.bench_out/gate.log.
perfbench() {
  local tree=$1
  shift
  local -a cmd
  mapfile -t cmd < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' \
    "$DEFINITION")
  mkdir -p "$tree/$OUT"
  (cd "$tree" && "${cmd[@]}" "$@" 2> "$OUT/gate.log" | tail -n 1)
}

# check_counts EXPECTED ACTUAL — exit 0 iff the two count files agree.
check_counts() {
  if ! [ -f "$1" ]; then
    echo "perf_gate: no expected counts at $1; run 'bash scripts/perf_gate.sh --update'" >&2
    return 1
  fi
  if ! diff -u "$1" "$2"; then
    echo "perf_gate: exact counters changed (- expected, + measured); see the diff above" >&2
    return 1
  fi
}

# The result line of a run that must have succeeded: exit 0, failed = 0 and
# correct = true. Returns 1 (after printing why) otherwise.
check_run() { # check_run LABEL STATUS LINE LOG
  local label=$1 status=$2 line=$3 log=$4
  if [ "$status" -ne 0 ] || [ -z "$line" ] || [ "$(field "$line" failed)" != 0 ] \
    || [ "$(field "$line" correct)" != true ]; then
    echo "perf_gate: $label: exit $status, result: ${line:-<none>}" >&2
    grep 'FAILED' "$log" >&2 || true
    return 1
  fi
}

gate_counts() { # gate_counts [--update]
  local w line status fail=0
  build .
  for w in $(workloads); do
    echo "==> $w (traced, seed 3, 3 s)"
    status=0
    line=$(perfbench . --workload "$w" --seed 3 --seconds 3 --trace 1) || status=$?
    cp "$OUT/gate.log" "$OUT/gate-$w.log"
    check_run "$w" "$status" "$line" "$OUT/gate-$w.log" || { fail=1; continue; }
    if [ "${1:-}" = --update ]; then
      mkdir -p "$COUNTS"
      cp "$OUT/counts-$w.txt" "$COUNTS/$w.txt"
    else
      check_counts "$COUNTS/$w.txt" "$OUT/counts-$w.txt" || fail=1
    fi
  done
  if [ "$fail" -ne 0 ]; then
    echo "perf_gate: FAIL" >&2
    return 1
  fi
  [ "${1:-}" = --update ] && echo "perf_gate: counts written to $COUNTS/" || echo "perf_gate: PASS"
}

gate_against() { # gate_against REV
  local rev base w i seed line status fail=0 rows="" row
  rev=$(git rev-parse --verify "$1^{commit}")
  base=target/perf-gate-base
  git worktree remove --force "$base" 2> /dev/null || true
  git worktree prune
  git worktree add --detach --quiet "$base" "$rev"
  trap 'git worktree remove --force "'"$base"'" 2> /dev/null || true' EXIT
  echo "==> building perfbench at $rev and at the working tree"
  build "$base"
  build .
  for w in $(workloads); do
    : > "$OUT/ab-$w-base.jsonl"
    : > "$OUT/ab-$w-change.jsonl"
    for i in $(seq 1 "$PAIRS"); do
      seed=$i
      # Alternate which side runs first, so a drift in machine speed
      # lands on both sides alike.
      for side in $([ $((i % 2)) -eq 1 ] && echo "base change" || echo "change base"); do
        echo "==> $w pair $i/$PAIRS: $side (seed $seed, 5 s)"
        local tree=.
        [ "$side" = base ] && tree=$base
        status=0
        line=$(perfbench "$tree" --workload "$w" --seed "$seed" --seconds 5 --trace 0) || status=$?
        if ! check_run "$w ($side, seed $seed)" "$status" "$line" "$tree/$OUT/gate.log"; then
          [ "$side" = change ] && fail=1
          continue
        fi
        echo "$line" >> "$OUT/ab-$w-$side.jsonl"
      done
    done
    if [ -s "$OUT/ab-$w-base.jsonl" ] && [ -s "$OUT/ab-$w-change.jsonl" ]; then
      row=$(python3 -c "$JUDGE" "$DEFINITION" "$w" "$OUT/ab-$w-base.jsonl" "$OUT/ab-$w-change.jsonl") \
        || fail=1
      rows+="$row"$'\n'
    fi
  done
  local table
  table=$(printf '| workload | metric | base median | change median | Δ | bound | verdict |\n'
    printf '|---|---|---|---|---|---|---|\n'
    printf '%s' "$rows")
  echo
  echo "perfbench A/B: $rev (base) vs working tree (change), $PAIRS alternating pairs"
  echo "$table"
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    { echo "### perfbench A/B against ${rev:0:12}"; echo; echo "$table"; } >> "$GITHUB_STEP_SUMMARY"
  fi
  if [ "$fail" -ne 0 ]; then
    echo "perf_gate: FAIL" >&2
    return 1
  fi
  echo "perf_gate: PASS"
}

self_test() {
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "'"$tmp"'"' EXIT
  bad() { echo "perf_gate self-test FAILED: $1" >&2; exit 1; }

  printf 'cholesky.fig6-air.factor_nnz = 161328\ncircuit.cache_misses = 8\n' > "$tmp/expected"
  cp "$tmp/expected" "$tmp/same"
  check_counts "$tmp/expected" "$tmp/same" > /dev/null 2>&1 || bad "identical counts did not pass"
  printf 'cholesky.fig6-air.factor_nnz = 980874\ncircuit.cache_misses = 8\n' > "$tmp/changed"
  if check_counts "$tmp/expected" "$tmp/changed" > "$tmp/log" 2>&1; then
    bad "a changed count passed"
  fi
  grep -qx '+cholesky.fig6-air.factor_nnz = 980874' "$tmp/log" || bad "the changed counter is not named"
  grep -q '^[-+]circuit.cache_misses' "$tmp/log" && bad "an unchanged counter is named"

  # results W,T…: one perfbench result line per `wall_s,throughput_ops_s`
  # pair; the other end-to-end metrics read 1.
  results() {
    local pair
    for pair in "$@"; do
      printf '{"correct": true, "attempted": 1, "failed": 0, "metrics": {'
      printf '"setup_s": {"value": 1.0, "unit": "s"}, '
      printf '"wall_s": {"value": %s, "unit": "s"}, ' "${pair%,*}"
      printf '"throughput_ops_s": {"value": %s, "unit": "1/s"}, ' "${pair#*,}"
      printf '"latency_p50_ms": {"value": 1.0, "unit": "ms"}, '
      printf '"latency_p99_ms": {"value": 1.0, "unit": "ms"}, '
      printf '"peak_heap_mb": {"value": 1.0, "unit": "MB"}}}\n'
    done
  }
  judge() { python3 -c "$JUDGE" "$DEFINITION" canned "$tmp/base" "$tmp/change" > "$tmp/table"; }
  verdict() { sed -n "s/^| canned | $1 |.*| \([a-zA-Z]*\) |$/\1/p" "$tmp/table"; }

  results 10,100 10.2,101 9.9,99 10.1,100 9.8,102 > "$tmp/base"
  cp "$tmp/base" "$tmp/change"
  judge || bad "identical runs failed"
  [ "$(verdict wall_s)" = ok ] || bad "identical wall_s is not ok"

  results 13,100 13.2,101 12.9,99 13.1,100 12.8,102 > "$tmp/change"
  judge && bad "a separated +30% wall_s passed"
  [ "$(verdict wall_s)" = FAIL ] || bad "a separated +30% wall_s is not FAIL"

  results 10,100 14,101 8,99 12,100 9,102 > "$tmp/base"
  results 13,100 9,101 15,99 12.5,100 14,102 > "$tmp/change"
  judge || bad "an overlapping noisy wall_s failed"
  [ "$(verdict wall_s)" = unresolved ] || bad "an overlapping +30% wall_s is not unresolved"

  results 10,100 10,101 10,99 10,100 10,102 > "$tmp/base"
  results 10,130 10,131 10,129 10,130 10,132 > "$tmp/change"
  judge || bad "a higher throughput (better: higher) failed"
  [ "$(verdict throughput_ops_s)" = ok ] || bad "a higher throughput is not ok"
  results 10,70 10,71 10,69 10,70 10,72 > "$tmp/change"
  judge && bad "a separated -30% throughput passed"
  [ "$(verdict throughput_ops_s)" = FAIL ] || bad "a separated -30% throughput is not FAIL"

  echo "perf_gate self-test passed"
}

case "${1:-}" in
  "") gate_counts ;;
  --update) gate_counts --update ;;
  --against)
    [ $# -eq 2 ] || { echo "usage: perf_gate.sh --against <git-rev>" >&2; exit 2; }
    gate_against "$2"
    ;;
  --self-test) self_test ;;
  *)
    echo "usage: perf_gate.sh [--update | --against <git-rev> | --self-test]" >&2
    exit 2
    ;;
esac
