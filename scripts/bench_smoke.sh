#!/usr/bin/env bash
# The single source of truth for the CI bench-smoke job: the determinism
# and size lint, the paper figures and the study that drive every packet node (KVS,
# DNS and Paxos on both platforms), every scheduling scenario under its
# fleet controller and static baselines, and the release-mode e2e, chaos,
# allocation-budget and simulator suites.
#
# Artifacts land in bench-artifacts/ (CI uploads the directory): the
# figure CSVs (3c, 6, 7), the park-policy ablation, the scenario reports with one JSON object per scenario
# (the last line each `inc-bench scenario` prints), the lint report
# and its `unreached-pub` blind-spot line (blind_spot.txt), the size
# ledger (scripts/loc.sh), the allocation budgets' exact counts
# (allocs.txt: the `chaos epoch`, `packet fabric` and `heavy burst`
# lines tests/alloc_budget.rs prints) and its live-heap soak cells
# (live_heap.txt). Nothing here is a
# wall-clock gate — benchmark/run.sh owns timing, with baselines.
#
# Usage: scripts/bench_smoke.sh  (from the repo root; needs only cargo)
set -euo pipefail
cd "$(dirname "$0")/.."

out=bench-artifacts
mkdir -p "$out"

echo "== size ledger (library lines per crate) =="
bash scripts/loc.sh | tee "$out/loc.txt"

# Fails on an unwaived finding or on a waiver of one of the six
# determinism rules inside the sans-IO decision crates; the size rule
# (unreached-pub) may be waived in any crate, with a reason.
# The size rule matches names, so a method whose name another `impl`
# shares is invisible to it: the report's blind-spot line counts them.
echo "== determinism contract & size rule check (inc-lint) =="
cargo run --release -p inc-lint -- --check --json "$out/lint.json" | tee "$out/lint.txt"
grep '^unreached-pub blind spot: ' "$out/lint.txt" > "$out/blind_spot.txt"

# Fig 3c is the Emu + NSD simulation check, fig 7 the libpaxos -> P4xos
# leader shift through PaxosNode and PaxosClient, and the park ablation
# the only run of LaKe's warm and reconfigure park policies.
echo "== paper figures =="
cargo run --release -p inc-bench -- fig 3a
cargo run --release -p inc-bench -- fig 3c | tee "$out/fig3c.csv"
cargo run --release -p inc-bench -- fig 6 | tee "$out/fig6.csv"
cargo run --release -p inc-bench -- fig 7 | tee "$out/fig7.csv"
cargo run --release -p inc-bench -- study park_ablation | tee "$out/park_ablation.txt"

echo "== scheduling scenarios =="
cargo run --release -p inc-bench -- scenario all | tee "$out/scenarios.txt"
grep '^{"scenario":' "$out/scenarios.txt" > "$out/scenarios.jsonl"

echo "== platform: one card routing table, hostile client rates =="
cargo test --release -q --test platform

echo "== release-mode scheduling e2e tests =="
cargo test --release -q --test shared_device
cargo test --release -q --test multi_tor
cargo test --release -q --test fairness
cargo test --release -q --test topology
cargo test --release -q --test mega_fabric
cargo test --release -q --test streaming_equivalence
cargo test --release -q --test economics
cargo test --release -q --test golden_schedules
# The two arbiter equivalence properties (incremental = full re-score
# under operator levers at 5 and 70 tenants, one pod of mixed budgets =
# the flat oracle), with `check_indexes` after every tick, and the order
# property (the pod arbiter's class candidates seat exactly what a
# per-device sort seats): the debug leg of `cargo test --workspace` runs
# them too, this is the optimised build the benchmark measures. Under
# them sits the device fabric every seat goes through: its flat ledgers
# and dense residency index against a map-per-device model, and the
# inc-hw suite (saturating sums, hostile slots).
cargo test --release -q --test properties -- \
  incremental_arbitration_equals_full_rescore \
  single_pod_hierarchy_degenerates_to_flat_oracle \
  fabric_ledger_matches_the_map_model
cargo test --release -q -p inc-hw
cargo test --release -q -p inc-ondemand --lib -- \
  pod_arbiter_admits_in_the_documented_total_order

# The chaos scenarios and goldens, plus the 40 000-slot cluster that must
# stay bounded through leader and acceptor kills (its name is the second
# filter; in release, where the slot arithmetic wraps instead of trapping),
# and the two oversized commands a replica must refuse rather than stall
# the log or panic a later tick. The sharing decoder every chaos hop uses
# is held to the copying one by its property, and the §9.2 deployment's
# leader numbering to its safety property (drops, duplicates, reorders
# and a leader shift).
echo "== consensus chaos suite =="
cargo test --release -q --test failure_injection -- \
  chaos one_long_lived_cluster oversized_command
cargo test --release -q --test properties -- \
  paxos_sharing_decode_matches_the_copying_decoder \
  leader_numbering_stays_safe_across_a_leader_shift

# Deterministic costs hard-fail here, wall-clock ones do not: a frame is
# at most one allocation to build (none once a dropped frame's buffer is
# free to reuse) and none to read, a warm device hit allocates nothing,
# the packet fabric stays <= 0.448 allocations per request, a
# loss-free Paxos slot <= 2.1 (its payload and its one command buffer,
# which every acceptor and replica shares), a chaos epoch <= 2.15 per
# command, a warm replica's backlog execution and a warm leader's
# retransmit burst nothing (their outbox spills reuse the thread's free
# list), and a warm 1 000-tenant arbitration tick
# allocates nothing when quiet, nothing on a full re-score that moves
# nothing and only the list it returns when it shifts placements
# (exact counts from a counting allocator). The mega_fabric leg above
# holds the arbiter's other deterministic cost: past the dead-band scan
# a tick evaluates the gates of the warm set only
# (`ArbiterStats::gates_evaluated` — identical in both modes, <= 20 % of
# tenants x ticks on the 1 000-tenant trace, 0 for a fleet that never
# clears the floor).
# The same binary's live-heap cells soak a KvsClient and a DnsClient
# under 100 % loss, a PaxosClient whose leader never answers and the
# §9.2 leader, acceptors and replica at steady load 10 warm-ups past
# their warm-up: live bytes at the end may not exceed those at 10 % of
# the run by more than the stated slack. Five lines: the three clients,
# the §9.2 leader and replica, the §9.2 acceptors.
echo "== allocation budgets and live-heap soak =="
cargo test --release -q --test alloc_budget -- --nocapture | tee "$out/alloc_budget.log"
grep -oE '(chaos epoch|packet fabric|heavy burst): .*' "$out/alloc_budget.log" > "$out/allocs.txt"
grep -oE 'live heap, .*' "$out/alloc_budget.log" > "$out/live_heap.txt"
cat "$out/allocs.txt" "$out/live_heap.txt"

# The rate window every CardShell and NetRateController reads closes
# a gap of any length in one step: the property holds it bit for bit to
# closing epochs one by one, starts near the end of time included (the
# inc-sim leg below runs the two regressions near Nanos::MAX).
echo "== rate window: one-step gaps equal stepping =="
cargo test --release -q --test properties -- window_rate_fast_forward_matches_stepping

# The event queue against its heap oracle at full size (the debug leg of
# `cargo test --workspace` runs a fifth of it), and in release because
# event-time arithmetic must saturate there too; so must the rate
# window's (`window_rate_reads_near_the_end_of_time` and the one-step
# first read at 10^10 s).
echo "== simulator kernel, release mode =="
cargo test --release -q -p inc-sim

echo "== collected artifacts =="
ls -l "$out"

# `set -e` aborts on any failing *command*, but a binary that exits 0
# without printing its data would slip through and CI would upload an
# incomplete artifact: every expected file must exist and be non-empty,
# and every scenario must have contributed its JSON line.
for f in fig3c.csv fig6.csv fig7.csv park_ablation.txt scenarios.jsonl lint.json blind_spot.txt \
  loc.txt allocs.txt live_heap.txt; do
  if [[ ! -s "$out/$f" ]]; then
    echo "bench smoke failed: missing or empty artifact $out/$f" >&2
    exit 1
  fi
done
if [[ "$(wc -l < "$out/allocs.txt")" -ne 3 ]]; then
  echo "bench smoke failed: allocs.txt does not hold the 3 allocation count lines" >&2
  exit 1
fi
if [[ "$(wc -l < "$out/live_heap.txt")" -ne 5 ]]; then
  echo "bench smoke failed: live_heap.txt does not hold the 5 soak cell lines" >&2
  exit 1
fi
for cell in 'DnsClient under 100 % loss' '§9.2 leader and replica' '§9.2 acceptors'; do
  if ! grep -q "^live heap, $cell: " "$out/live_heap.txt"; then
    echo "bench smoke failed: live_heap.txt has no line for $cell" >&2
    exit 1
  fi
done
if [[ "$(wc -l < "$out/scenarios.jsonl")" -ne 5 ]]; then
  echo "bench smoke failed: scenarios.jsonl does not hold 5 scenario objects" >&2
  exit 1
fi

# The lint artifact must record a clean tree: `--check` above already
# failed the run on violations, but verify the uploaded artifact agrees
# so a stale or truncated lint.json cannot masquerade as a clean scan.
unwaived="$(sed -n 's/^ *"unwaived": \([0-9]*\),*$/\1/p' "$out/lint.json")"
if [[ "$unwaived" != "0" ]]; then
  echo "bench smoke failed: lint.json reports unwaived=${unwaived:-missing} (must be 0)" >&2
  exit 1
fi
echo "lint.json unwaived = $unwaived (must be 0)"
