#!/usr/bin/env python3
"""Fit the query planner's per-method cost coefficients from the BENCH corpus.

The planner (src/exp/plan.hpp) predicts the wall-clock cost of every
evaluation method as

    predicted_us = coeff[method] * work(method, features)

where `work` is a fixed per-method complexity formula (mirrored EXACTLY by
cost_work() in src/exp/plan.cpp — change one, change both) and `coeff` is
the us-per-unit-work constant this script fits from the committed
benchmark corpus:

    BENCH_corpus.json    bench_corpus's rows: fo/so/sculli/corlca/clark/
                         bounds/mc/sp/dodin per-call us with their
                         tasks/edges/atoms/trials features
    bench/baselines/scale_v1/BENCH_scale.json   fo + sp.hier at 1e4..1e6 tasks

The fit is the geometric mean of us/work over a method's rows — the
closed-form least-squares solution for log(us) = log(coeff) + log(work),
robust to the orders-of-magnitude size spread of the corpus. Methods with
no corpus rows get a documented measured-default (exact, exact.geo) or
inherit a proxy method's fitted coefficient (cmc <- mc, dodin.hier <-
dodin, mc.hier <- mc); their kCostFitRows entry is 0, which the planner
reads as LOW CONFIDENCE and answers with the bounds->sp/dodin->pilot-MC
escalation chain instead of trusting the prediction.

The output is a generated header committed to the repo
(src/exp/cost_model_gen.hpp). Regeneration is byte-deterministic from the
corpus files, so CI runs `fit_cost_model.py --check` to ensure the
committed header matches the committed corpus.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Planner method order — MUST match exp::PlanMethod in src/exp/plan.hpp.
METHODS = [
    "exact", "exact.geo", "fo", "so", "sp", "dodin", "sculli", "corlca",
    "clark", "bounds", "mc", "cmc", "sp.hier", "dodin.hier", "mc.hier",
]

# Measured fallbacks for methods the corpus cannot cover (us per unit
# work). exact: steady-state CLI timings 2369us @ 14 tasks (V+E=35),
# 9295us @ 16 (32), 134810us @ 20 (50) -> geomean of us / (2^V * (V+E)).
# exact.geo: 577us @ 9 tasks -> us / (3^V * V).
MEASURED_DEFAULTS = {
    "exact": 3.7e-3,
    "exact.geo": 3.3e-3,
}

# Methods with no direct corpus rows inherit a fitted proxy (x a factor):
# cmc is the MC engine plus a rejection loop; the .hier variants run the
# same kernels per SP-tree module.
PROXIES = {
    "cmc": ("mc", 1.3),
    "dodin.hier": ("dodin", 1.0),
    "mc.hier": ("mc", 1.0),
}

# bench_scale evaluates sp.hier with EvalOptions::sp_max_atoms = 128
# (bench/bench_scale.cpp); the scale rows don't carry the knob.
SCALE_SP_HIER_ATOMS = 128


def work(method: str, tasks: float, edges: float, atoms: float,
         trials: float) -> float:
    """Per-method unit-work formula. Mirror of cost_work() in plan.cpp."""
    v, ve = tasks, tasks + edges
    if method == "exact":
        return 2.0 ** min(v, 50) * ve
    if method == "exact.geo":
        return 3.0 ** min(v, 30) * v
    if method in ("fo", "sculli", "corlca", "bounds"):
        return ve
    if method in ("so", "clark"):
        return v * v
    if method in ("sp", "dodin", "sp.hier", "dodin.hier"):
        return ve * max(atoms, 1.0)
    if method in ("mc", "cmc", "mc.hier"):
        return max(trials, 1.0) * ve
    raise ValueError(f"no work formula for method '{method}'")


def load(path: str):
    with open(path) as f:
        return json.load(f)


def collect_rows(repo: str):
    """Yields (method, us, tasks, edges, atoms, trials) observations."""
    corpus = load(os.path.join(repo, "BENCH_corpus.json"))
    rows = [(r["method"], r["us"], r["tasks"], r["edges"], float(r["atoms"]),
             float(r["trials"])) for r in corpus["rows"]]

    scale = load(
        os.path.join(repo, "bench", "baselines", "scale_v1",
                     "BENCH_scale.json"))
    for r in scale.get("rows", []):
        if r.get("op") != "scale":
            continue
        rows.append(("fo", r["fo_us"], r["tasks"], r["edges"], 0.0, 0.0))
        if r.get("sp_hier_supported", False):
            rows.append(("sp.hier", r["sp_hier_us"], r["tasks"], r["edges"],
                         float(SCALE_SP_HIER_ATOMS), 0.0))

    return rows


def fit(rows):
    """Geometric-mean fit of us/work per method -> (coeff, fit_rows)."""
    logs: dict[str, list[float]] = {m: [] for m in METHODS}
    for method, us, tasks, edges, atoms, trials in rows:
        if method not in logs:
            continue  # corpus methods outside the planner's catalogue
        w = work(method, float(tasks), float(edges), atoms, trials)
        if w > 0.0 and us > 0.0:
            logs[method].append(math.log(us / w))

    coeff: dict[str, float] = {}
    nrows: dict[str, int] = {}
    for m in METHODS:
        if logs[m]:
            coeff[m] = math.exp(sum(logs[m]) / len(logs[m]))
            nrows[m] = len(logs[m])
    for m in METHODS:
        if m in coeff:
            continue
        nrows[m] = 0
        if m in MEASURED_DEFAULTS:
            coeff[m] = MEASURED_DEFAULTS[m]
        elif m in PROXIES:
            proxy, factor = PROXIES[m]
            coeff[m] = coeff[proxy] * factor  # proxies precede in METHODS
        else:
            raise SystemExit(
                f"fit_cost_model: no rows, default, or proxy for '{m}'")
    return coeff, nrows


def render(coeff, nrows) -> str:
    lines = []
    lines.append("// src/exp/cost_model_gen.hpp")
    lines.append("//")
    lines.append("// GENERATED by bench/fit_cost_model.py from the committed")
    lines.append("// BENCH corpus — do not edit by hand; regenerate with")
    lines.append("//")
    lines.append("//     python3 bench/fit_cost_model.py")
    lines.append("//")
    lines.append("// and verify with --check (CI does). Coefficients are")
    lines.append("// us per unit of cost_work() (src/exp/plan.cpp); a zero")
    lines.append("// kCostFitRows entry marks a default/proxy coefficient the")
    lines.append("// planner must treat as LOW CONFIDENCE.")
    lines.append("")
    lines.append("#pragma once")
    lines.append("")
    lines.append("#include <cstddef>")
    lines.append("")
    lines.append("namespace expmk::exp::gen {")
    lines.append("")
    lines.append("inline constexpr int kCostModelVersion = 1;")
    lines.append(
        f"inline constexpr std::size_t kCostMethodCount = {len(METHODS)};")
    lines.append("")
    lines.append("/// PlanMethod order (src/exp/plan.hpp).")
    names = ", ".join(f'"{m}"' for m in METHODS)
    lines.append(
        f"inline constexpr const char* kCostMethodNames[{len(METHODS)}] = {{")
    lines.append(f"    {names}}};")
    lines.append("")
    lines.append("/// us per unit work, geometric-mean fit over the corpus.")
    lines.append(
        f"inline constexpr double kCostCoeffUs[{len(METHODS)}] = {{")
    for m in METHODS:
        lines.append(f"    {coeff[m]:.17g},  // {m}")
    lines.append("};")
    lines.append("")
    lines.append("/// Corpus rows behind each fit; 0 = default/proxy value.")
    lines.append(f"inline constexpr int kCostFitRows[{len(METHODS)}] = {{")
    lines.append("    " + ", ".join(str(nrows[m]) for m in METHODS) + "};")
    lines.append("")
    lines.append("}  // namespace expmk::exp::gen")
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root holding the BENCH_*.json corpus")
    ap.add_argument("--out", default=None,
                    help="output header (default src/exp/cost_model_gen.hpp)")
    ap.add_argument("--check", action="store_true",
                    help="regenerate in memory and fail if the committed "
                    "header differs (CI drift gate)")
    ap.add_argument("--verbose", action="store_true",
                    help="print per-row residual ratios")
    args = ap.parse_args()

    out = args.out or os.path.join(args.repo, "src", "exp",
                                   "cost_model_gen.hpp")
    rows = collect_rows(args.repo)
    coeff, nrows = fit(rows)

    if args.verbose:
        for method, us, tasks, edges, atoms, trials in rows:
            if method not in coeff:
                continue
            w = work(method, float(tasks), float(edges), atoms, trials)
            pred = coeff[method] * w
            print(f"  {method:10s} V={tasks:<8} us={us:12.2f} "
                  f"pred={pred:12.2f} ratio={us / pred:6.2f}")

    text = render(coeff, nrows)
    if args.check:
        try:
            with open(out) as f:
                committed = f.read()
        except FileNotFoundError:
            print(f"fit_cost_model: --check: {out} does not exist",
                  file=sys.stderr)
            return 1
        if committed != text:
            print("fit_cost_model: --check FAILED — committed header is "
                  "stale; rerun python3 bench/fit_cost_model.py",
                  file=sys.stderr)
            return 1
        print(f"fit_cost_model: --check OK ({out} matches the corpus)")
        return 0

    with open(out, "w") as f:
        f.write(text)
    fitted = sum(1 for m in METHODS if nrows[m] > 0)
    print(f"fit_cost_model: wrote {out} "
          f"({fitted}/{len(METHODS)} methods fit from {len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
