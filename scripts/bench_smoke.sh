#!/usr/bin/env bash
# The single source of truth for the CI bench-smoke job (previously a
# copy-pasted list of workflow steps). Builds every bench target, runs
# one cheap paper-figure binary, the figure-6 timeline, the three
# scheduling examples, their release-mode e2e tests, and the criterion
# smoke targets.
#
# Figure binaries and examples write machine-readable JSON summaries to
# $INC_METRICS_DIR (default: bench-artifacts/), which CI uploads as the
# perf-trajectory artifact; fig6's CSV timeline is captured there too.
#
# Usage: scripts/bench_smoke.sh  (from the repo root; needs only cargo)
set -euo pipefail
cd "$(dirname "$0")/.."

export INC_METRICS_DIR="${INC_METRICS_DIR:-bench-artifacts}"
mkdir -p "$INC_METRICS_DIR"

echo "== build all bench targets =="
cargo build --release --benches --workspace

echo "== determinism & sans-IO contract check (inc-lint) =="
cargo run --release -p inc-lint -- --check --json "$INC_METRICS_DIR/lint.json"

echo "== paper-figure binaries =="
cargo run --release -p inc-bench --bin fig3a
cargo run --release -p inc-bench --bin fig6 | tee "$INC_METRICS_DIR/fig6.csv"

echo "== scheduling examples =="
cargo run --release --example shared_device
cargo run --release --example multi_tor
cargo run --release --example fairness
cargo run --release --example topology
cargo run --release --example mega_fabric
cargo run --release --example heavy_traffic
cargo run --release --example economics
cargo run --release --example consensus

echo "== release-mode scheduling e2e tests =="
cargo test --release -q --test shared_device
cargo test --release -q --test multi_tor
cargo test --release -q --test fairness
cargo test --release -q --test topology
cargo test --release -q --test mega_fabric
cargo test --release -q --test streaming_equivalence
cargo test --release -q --test economics
cargo test --release -q --test golden_schedules

# The chaos scenarios and goldens, plus the 40 000-slot cluster that must
# stay bounded through leader and acceptor kills (its name is the second
# filter; in release, where the slot arithmetic wraps instead of trapping).
echo "== consensus chaos suite =="
cargo test --release -q --test failure_injection -- chaos one_long_lived_cluster

# Deterministic costs hard-fail here, wall-clock ones do not: a frame is
# one allocation to build and none to read, a device hit is its reply
# frame, the packet fabric stays <= 10 allocations per request and a
# loss-free Paxos slot <= 9.45 (exact counts from a counting allocator).
echo "== allocation budgets =="
cargo test --release -q --test alloc_budget

# The event queue against its heap oracle at full size (the debug leg of
# `cargo test --workspace` runs a fifth of it), and in release because
# event-time arithmetic must saturate there too.
echo "== simulator kernel, release mode =="
cargo test --release -q -p inc-sim

echo "== criterion smoke targets =="
cargo bench -p inc-bench --bench codecs
cargo bench -p inc-bench --bench shared_device
cargo bench -p inc-bench --bench multi_tor
cargo bench -p inc-bench --bench fairness
cargo bench -p inc-bench --bench topology
cargo bench -p inc-bench --bench mega_fabric
cargo bench -p inc-bench --bench heavy_traffic

echo "== collected artifacts =="
ls -l "$INC_METRICS_DIR"

# `set -e` aborts on any failing *command*, but a binary that exits 0
# without writing its summary would previously slip through and CI would
# upload an incomplete perf-trajectory artifact. Verify every expected
# artifact exists and is non-empty before declaring success.
required_artifacts=(
  fig6.csv
  fig6.json
  multi_tor.json
  fairness.json
  topology.json
  mega_fabric.json
  heavy_traffic.json
  economics.json
  consensus.json
  lint.json
)
missing=0
for f in "${required_artifacts[@]}"; do
  if [[ ! -s "$INC_METRICS_DIR/$f" ]]; then
    echo "MISSING OR EMPTY ARTIFACT: $INC_METRICS_DIR/$f" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "bench smoke failed: required artifacts were not produced" >&2
  exit 1
fi
echo "all ${#required_artifacts[@]} required artifacts present"

# Heavy-traffic floors: the streaming measurement plane must replay at
# least 10 M simulated requests per wall-clock second and at least 8x
# the per-event plane on the same machine. The example's dev-machine
# numbers are ~206 M req/s and ~13x, so these are smoke floors against
# catastrophic regressions (an accidental per-request allocation, rows
# sneaking back into streaming mode), not tight performance pins —
# the criterion bench holds the curve.
check_floor() { # file key floor
  value="$(sed -n "s/^ *\"$2\": \([0-9.eE+-]*\),*$/\1/p" "$INC_METRICS_DIR/$1")"
  if [[ -z "$value" ]]; then
    echo "bench smoke failed: $2 missing from $1" >&2
    exit 1
  fi
  if ! awk -v v="$value" -v f="$3" 'BEGIN { exit !(v >= f) }'; then
    echo "bench smoke failed: $1 $2 = $value below floor $3" >&2
    exit 1
  fi
  echo "$1 $2 = $value (floor $3)"
}
check_floor heavy_traffic.json sim_requests_per_s_streaming 10000000
check_floor heavy_traffic.json speedup 8

# Economics floors: the pluggable objective must be a real policy
# lever, not a unit relabel — skewed dollar prices pick a different
# placement set than the joule objective (1.0 = holds), while a uniform
# tariff reproduces the joule schedule bit-for-bit.
check_floor economics.json placement_sets_differ 1
check_floor economics.json uniform_matches_joules 1

# Consensus chaos floors: every scenario must be safe (both invariants
# held → 1.0) with an always-available acceptor quorum, and the
# fast budget flap must move nothing. Recovery deadlines are recorded
# in the artifact for the trajectory; the release-mode chaos tests
# above already pin their upper bounds.
check_floor consensus.json device_kill_safe 1
check_floor consensus.json tor_partition_safe 1
check_floor consensus.json budget_flap_safe 1
check_floor consensus.json device_kill_quorum_availability 1
check_floor consensus.json tor_partition_quorum_availability 1
flap_shifts="$(sed -n 's/^ *"budget_flap_fast_flap_shifts": \([0-9.eE+-]*\),*$/\1/p' "$INC_METRICS_DIR/consensus.json")"
if [[ -z "$flap_shifts" ]]; then
  echo "bench smoke failed: budget_flap_fast_flap_shifts missing from consensus.json" >&2
  exit 1
fi
if ! awk -v v="$flap_shifts" 'BEGIN { exit !(v == 0) }'; then
  echo "bench smoke failed: fast budget flap moved $flap_shifts tenants (must be 0)" >&2
  exit 1
fi
echo "consensus.json budget_flap_fast_flap_shifts = $flap_shifts (must be 0)"

# The lint artifact must record a clean tree: `--check` above already
# failed the run on violations, but verify the uploaded artifact agrees
# so a stale or truncated lint.json cannot masquerade as a clean scan.
unwaived="$(sed -n 's/^ *"unwaived": \([0-9]*\),*$/\1/p' "$INC_METRICS_DIR/lint.json")"
if [[ "$unwaived" != "0" ]]; then
  echo "bench smoke failed: lint.json reports unwaived=${unwaived:-missing} (must be 0)" >&2
  exit 1
fi
echo "lint.json unwaived = $unwaived (must be 0)"
