#!/usr/bin/env bash
# The full local gate: workspace audit, formatting, lints, docs, a perfbench
# compile, release build, tests, the examples, the scenario smoke, the
# correctness gate (oracles, quick fuzz, golden snapshots) and the benchmark
# gate (correctness and exact counts). CI (.github/workflows/ci.yml) runs these
# same steps, split across jobs; it also runs the tests and the smoke at
# 1, 2 and all worker threads, regenerates the fast-fidelity CSVs on main,
# and runs the benchmark A/B against a pull request's base.
set -euo pipefail
cd "$(dirname "$0")/.."

# Discover the workspace from cargo metadata rather than a hardcoded crate
# list, and fail if any crates/*/ or compat/*/ directory with a Cargo.toml
# is not actually a member — the glob in the root manifest should make that
# impossible, and this catches the ways it silently stops being true
# (an `exclude` entry, a nested manifest, a renamed directory).
echo "==> workspace membership audit (cargo metadata)"
manifests=$(cargo metadata --no-deps --format-version 1 \
  | tr ',' '\n' | sed -n 's/.*"manifest_path": *"\([^"]*\)".*/\1/p')
echo "$manifests" | sed "s|^$(pwd)/|    |"
missing=0
for m in crates/*/Cargo.toml compat/*/Cargo.toml; do
  [ -f "$m" ] || continue
  if ! printf '%s\n' "$manifests" | grep -Fqx "$(pwd)/$m"; then
    echo "NOT A WORKSPACE MEMBER: $m" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "check: crate directories exist outside the workspace (see above)" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# perfbench is its own workspace, so nothing above compiles it.
echo "==> cargo check perfbench (--locked)"
cargo check --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The daemon tests are the only check of the drain and shed paths, and they
# depend on timing (the overload test sleeps): rerun them, failing on any
# failure (set -e).
echo "==> daemon tests, 5 runs"
for run in 1 2 3 4 5; do
  cargo test --release -q -p hotiron-serve --test daemon
done

# The examples are the only non-test callers of the public front end; clippy
# compiles them, this runs each one (set -e fails on a non-zero exit).
echo "==> examples"
for f in examples/*.rs; do
  cargo run --release -q --example "$(basename "$f" .rs)"
done

# Every shipped scenario file must parse, assemble, solve and pass the
# inline energy-balance and maximum-principle checks at both fidelities;
# figures exits non-zero otherwise.
echo "==> scenario smoke (fast and paper fidelity)"
for f in scenarios/*.scn; do
  cargo run --release -p hotiron-bench --bin figures -- \
    --fast --out target/scn-smoke --scenario "$f"
done
for f in scenarios/*.scn; do
  cargo run --release -p hotiron-bench --bin figures -- \
    --out target/scn-smoke-paper --scenario "$f"
done

# Physics-invariant oracles, the quick differential fuzz and a
# paper-fidelity regeneration of every experiment diffed against the
# checked-in results/*.csv goldens.
echo "==> hotiron-verify all (oracles, quick fuzz, golden snapshots)"
cargo run --release -p hotiron-verify -- all

echo "==> perf_gate.sh (benchmark correctness and exact counts)"
bash scripts/perf_gate.sh --self-test
bash scripts/perf_gate.sh

echo "All checks passed."
