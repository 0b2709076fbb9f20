#!/usr/bin/env bash
# Paired before/after runs of one benchmark workload, written as a ledger.
#
#   scripts/pair.sh <rev-a> <rev-b> --workload W --pairs N [--seconds S] [--seed K] [--out FILE]
#   scripts/pair.sh check FILE...
#
# The first form extracts both revisions (`git archive`, so nothing is
# registered in this repository's `.git`) into a fresh temporary
# directory, builds each revision's benchmark into a target directory of
# its own, and runs each revision's own `benchmark/run.sh --workload W
# --seed K --seconds S --trace 0` from its own tree root, N times each,
# alternating: in even pairs (0, 2, ...) `a` runs first, in odd pairs
# `b` does. It then writes the ledger to FILE (stdout without `--out`)
# and removes the directory. When FILE already holds a ledger of the
# same two commits, the new group is appended to it, so one ledger can
# hold several workloads and seeds. Defaults: --seconds 6, --seed 42.
# Run nothing else on the host meanwhile: every run is timed.
#
# The second form exits non-zero unless each FILE parses in the schema.
#
# The ledger schema (`"schema": "inc-pair/1"`), one JSON object:
#
#   schema      "inc-pair/1"
#   host        free text: cores, CPU model, kernel, load average
#   a, b        {"rev": what was asked for, "commit": its full hash}
#   groups      one object per invocation:
#     command   the command line, as run
#     workload, seed, seconds, pairs
#     pairs_raw [{"pair": i, "first": "a"|"b",
#                 "a": RUN, "b": RUN}], where RUN is
#               {"metrics": {name: value}, "correct": bool,
#                "sim_digest": hex string}
#     metrics   one object per end-to-end metric of BENCHMARK.json:
#       better          "lower" | "higher"
#       a_q1_median_q3, b_q1_median_q3
#                       quartiles by Python's statistics.quantiles(n=4),
#                       the rule benchmark/src/metrics.rs copies
#       a_spread, b_spread
#                       (q3 - q1) / median of each side
#       median_ratio    b median / a median
#       median_gap      |b median - a median|
#       a_iqr           q3 - q1 of side a
#       b_better_in, b_worse_in, ties
#                       pair-wise: b against a in the same pair
#       sign_test_p     two-sided sign test over the untied pairs
#       b_better        b_better_in >= 90 % of the pairs and the medians
#                       differ, in b's favour, by more than a_iqr
#     sim_digests       {"a": [...], "b": [...]}: the distinct digests each
#                       side printed (one each when its runs agree)
#     all_correct       every run of both sides passed its checks
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '4,5p' "$0" | sed 's/^# *//' >&2
  exit 2
}

if [[ "${1:-}" == "check" ]]; then
  shift
  [[ $# -ge 1 ]] || usage
  exec python3 - check "$@" <<'PY'
import json, sys

def check(path):
    with open(path) as f:
        ledger = json.load(f)
    assert ledger.get("schema") == "inc-pair/1", "schema is not inc-pair/1"
    assert isinstance(ledger.get("host"), str), "no host note"
    for side in ("a", "b"):
        rev = ledger.get(side, {})
        assert isinstance(rev.get("rev"), str), f"{side}.rev missing"
        commit = rev.get("commit", "")
        assert len(commit) == 40 and all(c in "0123456789abcdef" for c in commit), \
            f"{side}.commit is not a full hash"
    groups = ledger.get("groups")
    assert isinstance(groups, list) and groups, "no groups"
    for g in groups:
        for key in ("command", "workload", "seed", "seconds", "pairs", "pairs_raw",
                    "metrics", "sim_digests", "all_correct"):
            assert key in g, f"group lacks {key}"
        assert len(g["pairs_raw"]) == g["pairs"], "pairs_raw does not hold every pair"
        for p in g["pairs_raw"]:
            assert p["first"] in ("a", "b"), "pair order missing"
            for side in ("a", "b"):
                assert isinstance(p[side]["metrics"], dict) and p[side]["metrics"], \
                    "a raw run has no metrics"
        for name, m in g["metrics"].items():
            for key in ("better", "a_q1_median_q3", "b_q1_median_q3", "a_spread", "b_spread",
                        "median_ratio", "median_gap", "a_iqr", "b_better_in", "b_worse_in",
                        "ties", "sign_test_p", "b_better"):
                assert key in m, f"{g['workload']} {name} lacks {key}"

failed = False
for path in sys.argv[2:]:
    try:
        check(path)
        print(f"{path}: inc-pair/1")
    except (OSError, ValueError, AssertionError, KeyError, TypeError) as e:
        print(f"{path}: not an inc-pair/1 ledger: {e}", file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
PY
fi

[[ $# -ge 2 ]] || usage
rev_a=$1 rev_b=$2
shift 2
workload="" pairs="" seconds=6 seed=42 out=""
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case $1 in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --seed) seed=$2 ;;
    --out) out=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ -n $workload && $pairs =~ ^[1-9][0-9]*$ ]] || usage
command="scripts/pair.sh $rev_a $rev_b --workload $workload --pairs $pairs --seconds $seconds --seed $seed${out:+ --out $out}"

commit_a=$(git rev-parse --verify "$rev_a^{commit}")
commit_b=$(git rev-parse --verify "$rev_b^{commit}")
scratch=$(mktemp -d "${TMPDIR:-/tmp}/inc-pair.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

for side in a b; do
  commit=commit_$side
  mkdir -p "$scratch/$side/tree" "$scratch/runs"
  git archive "${!commit}" | tar -x -C "$scratch/$side/tree"
  echo "pair: building $side (${!commit:0:12})" >&2
  CARGO_TARGET_DIR="$scratch/$side/target" \
    cargo build --release --offline --quiet --manifest-path "$scratch/$side/tree/benchmark/Cargo.toml"
done

run() {
  local side=$1 pair=$2
  echo "pair: $pair/$pairs $side" >&2
  (cd "$scratch/$side/tree" && CARGO_TARGET_DIR="$scratch/$side/target" \
    bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    > "$scratch/runs/$pair-$side.out"
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then run a $i; run b $i; else run b $i; run a $i; fi
done

host="$(nproc) cores, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1), \
$(uname -sr), load average $(cut -d' ' -f1-3 /proc/loadavg) at the end"

python3 - "$scratch/runs" "$out" <<PY
import json, math, os, statistics, sys

runs_dir, out = sys.argv[1], sys.argv[2]
pairs, rev_a, rev_b = $pairs, "$rev_a", "$rev_b"
commit_a, commit_b = "$commit_a", "$commit_b"
with open("BENCHMARK.json") as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

def read(pair, side):
    with open(os.path.join(runs_dir, f"{pair}-{side}.out")) as f:
        lines = f.read().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if l.split()[1:2] == ["sim_digest"]), "")
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "sim_digest": digest,
    }

raw = []
for i in range(pairs):
    raw.append({"pair": i, "first": "a" if i % 2 == 0 else "b",
                "a": read(i, "a"), "b": read(i, "b")})

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

def sign_test(wins, losses):
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)

metrics = {}
for name, way in better.items():
    a = [p["a"]["metrics"][name] for p in raw]
    b = [p["b"]["metrics"][name] for p in raw]
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if way == "higher" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    a_iqr = qa[2] - qa[0]
    metrics[name] = {
        "better": way,
        "a_q1_median_q3": list(qa),
        "b_q1_median_q3": list(qb),
        "a_spread": a_iqr / abs(qa[1]) if qa[1] else 0.0,
        "b_spread": (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0,
        "median_ratio": qb[1] / qa[1] if qa[1] else None,
        "median_gap": abs(qb[1] - qa[1]),
        "a_iqr": a_iqr,
        "b_better_in": wins,
        "b_worse_in": losses,
        "ties": pairs - wins - losses,
        "sign_test_p": sign_test(wins, losses),
        "b_better": wins * 10 >= 9 * pairs and sign * (qb[1] - qa[1]) > a_iqr,
    }

group = {
    "command": """$command""",
    "workload": "$workload",
    "seed": $seed,
    "seconds": $seconds,
    "pairs": pairs,
    "pairs_raw": raw,
    "metrics": metrics,
    "sim_digests": {s: sorted({r[s]["sim_digest"] for r in raw}) for s in "ab"},
    "all_correct": all(r[s]["correct"] for r in raw for s in "ab"),
}
ledger = {
    "schema": "inc-pair/1",
    "host": """$host""",
    "a": {"rev": rev_a, "commit": commit_a},
    "b": {"rev": rev_b, "commit": commit_b},
    "groups": [],
}
if out and os.path.exists(out):
    with open(out) as f:
        ledger = json.load(f)
    if (ledger["a"]["commit"], ledger["b"]["commit"]) != (commit_a, commit_b):
        sys.exit(f"{out} holds a ledger of other commits")
    ledger["host"] = """$host"""
ledger["groups"].append(group)
text = json.dumps(ledger, indent=1) + "\n"
if out:
    with open(out, "w") as f:
        f.write(text)
else:
    sys.stdout.write(text)
for name, m in metrics.items():
    print(f"{group['workload']} seed {group['seed']} {name}: median {m['a_q1_median_q3'][1]:.6g} -> "
          f"{m['b_q1_median_q3'][1]:.6g} (x{m['median_ratio'] or 0:.4f}), b better in "
          f"{m['b_better_in']}/{pairs}, worse in {m['b_worse_in']}, sign p {m['sign_test_p']:.3g}, "
          f"spread a {m['a_spread']:.3%} b {m['b_spread']:.3%}", file=sys.stderr)
PY
