"""Write the frozen exact answers the benchmark checks against.

Run once, from the repository root, at the commit the benchmark was
defined on:

    PYTHONPATH=src python3 bench/make_references.py

Linear counts come from the unpruned filter count_linear_naive; census
strata from census_by_cluster, cross-checked against the naive count;
switching audits from bijection_audit.  The built-in grid is frozen
here too, so a later change to the grid does not change the workload.
Never regenerate this file to make a failing job pass.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import linhyp
from linhyp.verify import enumerable_grid

from workloads import (
    EXACT_EXTRA,
    EXACT_GRID_FUNCTIONS,
    REFERENCES,
    SWEEP_CELLS,
    SWEEP_DRAW_CELL,
    SWEEP_OVERLAP_CELL,
    WORK_CEILING,
    label,
)


def main() -> int:
    refs: dict = {"grid": [], "linear": {}, "census": {}, "audit": {}, "probability": {}}

    def freeze(fn: str, sizes: tuple[int, ...], r: int, m: int) -> None:
        pv = linhyp.partition(sizes)
        key = label(sizes, r, m)
        if key not in refs["linear"]:
            refs["linear"][key] = str(linhyp.count_linear_naive(pv, r, m, work_ceiling=WORK_CEILING))
        if fn == "census_by_cluster":
            census = linhyp.census_by_cluster(pv, r, m, work_ceiling=WORK_CEILING)
            if str(census.linear) != refs["linear"][key]:
                raise AssertionError(f"census and naive count disagree on {key}")
            refs["census"][key] = census.to_json_dict()
        elif fn == "bijection_audit":
            audit = linhyp.bijection_audit(pv, r, m, work_ceiling=WORK_CEILING)
            if not audit.all_matched:
                raise AssertionError(f"switching audit unmatched on {key}")
            refs["audit"][key] = json.loads(json.dumps(audit.to_json_dict()))
        print(f"froze {fn} {key}", file=sys.stderr, flush=True)

    for g in enumerable_grid():
        refs["grid"].append([list(g.sizes), g.r, g.m])
        for fn in EXACT_GRID_FUNCTIONS:
            freeze(fn, g.sizes, g.r, g.m)
    for fn, sizes, r, m in EXACT_EXTRA:
        freeze(fn, sizes, r, m)

    for sizes, r, m in SWEEP_CELLS + (SWEEP_DRAW_CELL,):
        pv = linhyp.partition(sizes)
        if linhyp.count_all(pv, r, m) <= 10 ** 6:
            linear = linhyp.count_linear_naive(pv, r, m)
            refs["probability"][label(sizes, r, m)] = str(Fraction(linear, linhyp.count_all(pv, r, m)))
    sizes, r, m = SWEEP_OVERLAP_CELL
    expected = linhyp.expected_overlap_pairs(linhyp.partition(sizes), r, m).exact
    refs["overlap_expectation"] = {label(sizes, r, m): str(expected)}

    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
