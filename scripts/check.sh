#!/usr/bin/env bash
# The full local gate: workspace audit, formatting, lints, docs, a perfbench
# compile, release build, tests, and the benchmark gate (correctness and
# exact counts). CI (.github/workflows/ci.yml) runs these same steps, split
# across jobs; it also runs the benchmark A/B against a pull request's base.
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

echo "==> perf_gate.sh (benchmark correctness and exact counts)"
bash scripts/perf_gate.sh --self-test
bash scripts/perf_gate.sh

echo "All checks passed."
