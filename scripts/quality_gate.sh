#!/usr/bin/env bash
# Quality gate for changes that alter what Phase B (or any flow step)
# computes: runs `bench_suite --design D --seed S` for the 12 Table-II
# designs with two builds, and compares per-design front quality.
#
# Usage: scripts/quality_gate.sh PARENT_BIN CHANGE_BIN [SEED...]
#
# PARENT_BIN and CHANGE_BIN are `bench_suite` release binaries (build each
# checkout with `cargo build --release -p gg-bench --bin bench_suite`).
# Each must print its row as one JSON line under `--design`; to gate
# against a tree older than that, build it with the current
# `crates/bench/src/bin/bench_suite.rs` copied in.
# SEEDs default to 1 2 3. Each (design, seed) runs both binaries back to
# back, flipping which goes first from one run to the next.
#
# For each design and side it prints the median and min-max over seeds of
# hypervolume, best_security, front_tns_ps, front_drc, base_tns_ps and
# base_drc. A front metric (the first four) FAILs when the change's median
# is worse than the parent's by more than the parent's min-max spread over
# the seeds. The baseline metrics do not depend on the seed, so their
# spread is always 0; a baseline that moves is marked `moved`, not failed,
# and its effect shows in the front metrics it anchors. Exits 1 on any
# FAIL or failed run. The raw rows (one JSON line per run) stay in the
# directory printed at the end. About 12 minutes at 3 seeds on a 2-vCPU host.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN [SEED...]" >&2
    exit 2
fi
parent=$1
change=$2
shift 2
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3)
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done

designs=(AES_1 AES_2 AES_3 Camellia CAST MISTY openMSP430_1 openMSP430_2
    PRESENT SEED SPARX TDEA)
out=$(mktemp -d "${TMPDIR:-/tmp}/quality-gate.XXXXXX")

# Runs one side and keeps its JSON row (the line starting with `{`).
run() {
    local side=$1 bin=$2 design=$3 seed=$4
    local row
    row=$("$bin" --design "$design" --seed "$seed" | grep '^{') || {
        echo "$side: bench_suite --design $design --seed $seed failed" >&2
        return 1
    }
    echo "$row" >>"$out/$side.jsonl"
}

flip=0
for seed in "${seeds[@]}"; do
    for design in "${designs[@]}"; do
        echo "gate: $design seed $seed" >&2
        if [ $flip -eq 0 ]; then
            run parent "$parent" "$design" "$seed"
            run change "$change" "$design" "$seed"
        else
            run change "$change" "$design" "$seed"
            run parent "$parent" "$design" "$seed"
        fi
        flip=$((1 - flip))
    done
done

python3 - "$out" "${designs[@]}" <<'EOF'
import json
import statistics
import sys

out, designs = sys.argv[1], sys.argv[2:]
# (column, higher is better, gated)
metrics = [
    ("hypervolume", True, True),
    ("best_security", False, True),
    ("front_tns_ps", True, True),
    ("front_drc", False, True),
    ("base_tns_ps", True, False),
    ("base_drc", False, False),
]
rows = {}
for side in ("parent", "change"):
    with open(f"{out}/{side}.jsonl") as f:
        for line in f:
            r = json.loads(line)
            rows.setdefault((side, r["design"]), []).append(r)

def cell(v):
    return f"{statistics.median(v):.4g} [{min(v):.4g}, {max(v):.4g}]"

fails = 0
print(f"{'design':<13} {'metric':<14} {'parent med [min, max]':>34} "
      f"{'change med [min, max]':>34}  verdict")
for d in designs:
    for name, higher, gated in metrics:
        p = [r[name] for r in rows[("parent", d)]]
        c = [r[name] for r in rows[("change", d)]]
        pm, cm = statistics.median(p), statistics.median(c)
        loss = (pm - cm) if higher else (cm - pm)
        if loss > max(p) - min(p):
            verdict = "FAIL" if gated else "moved"
        elif cm != pm:
            verdict = "ok (moved)"
        else:
            verdict = "ok"
        fails += verdict == "FAIL"
        print(f"{d:<13} {name:<14} {cell(p):>34} {cell(c):>34}  {verdict}")
print(f"gate: {fails} FAIL over {len(designs)} designs; rows in {out}")
sys.exit(1 if fails else 0)
EOF
