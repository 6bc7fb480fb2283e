"""Command-line surface: census, estimates, sampling, audits, verify.

Every subcommand prints one JSON object (census --grid prints CSV) so
identical invocations yield byte-identical output.  Exit codes: 0 on
success, 2 for usage or domain errors, 3 when a work ceiling trips,
1 when verify finds a failing invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .asymptotics import estimate_partite, estimate_refined_uniform, estimate_uniform
from .census import DEFAULT_WORK_CEILING, census_by_cluster
from .errors import DomainError, WorkCeilingError
from .montecarlo import estimate_linear_probability
from .partitions import PartitionVector, uniform_partition
from .switching import bijection_audit, ratio_series
from .verify import enumerable_grid, run_verification

WORKERS_ENV = "LINHYP_WORKERS"


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--parts", help="comma-separated part sizes, e.g. 2,2,2")
    group.add_argument("--uniform-n", type=int, help="n singleton parts (uniform case)")
    p.add_argument("--r", type=int, required=True, help="vertices per edge")
    p.add_argument("--m", type=int, required=True, help="number of edges")


def _instance(args) -> PartitionVector:
    if args.parts is not None:
        try:
            sizes = tuple(int(x) for x in args.parts.split(","))
        except ValueError as exc:
            raise DomainError(f"bad --parts value {args.parts!r}") from exc
        return PartitionVector(sizes)
    return uniform_partition(args.uniform_n)


def _workers(args) -> int:
    flag = getattr(args, "threads", None)
    if flag is not None:
        if flag < 1:
            raise DomainError(f"need a positive worker count, got {flag}")
        return flag
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise DomainError(f"bad {WORKERS_ENV} value {env!r}") from exc
        if value < 1:
            raise DomainError(f"need a positive {WORKERS_ENV}, got {value}")
        return value
    return 1


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _decimal_from_log(log_value: float) -> str:
    """Value exp(log_value) as a short decimal string, exponent notation."""
    log10 = log_value / math.log(10.0)
    exp10 = math.floor(log10)
    # rounding to the printed places can carry the mantissa up to 10
    mantissa = round(10.0 ** (log10 - exp10), 9)
    if mantissa >= 10.0:
        mantissa /= 10.0
        exp10 += 1
    return f"{mantissa:.9f}e{exp10:+d}"


def _run_census(args) -> int:
    if args.grid:
        # every row is computed before any is printed: a refused cell leaves stdout empty
        rows = ["parts,r,m,n,total,linear,not_plus,cluster_cap,strata"]
        for g in enumerable_grid():
            res = census_by_cluster(g.pv, g.r, g.m, work_ceiling=args.work_ceiling)
            strata = "|".join(f"{t}:{c}" for t, c in sorted(res.by_cluster.items()))
            parts = "+".join(str(s) for s in g.sizes)
            rows.append(
                f"{parts},{g.r},{g.m},{g.pv.n},{res.total},{res.linear},"
                f"{res.not_plus},{res.cluster_cap},{strata}"
            )
        print("\n".join(rows))
        return 0
    pv = _instance(args)
    res = census_by_cluster(pv, args.r, args.m, work_ceiling=args.work_ceiling)
    payload = res.to_json_dict()
    payload.update({"parts": list(pv.sizes), "r": args.r, "m": args.m})
    _emit(payload)
    return 0


def _run_estimate(args) -> int:
    if args.variant in ("uniform", "refined") and args.uniform_n is None:
        raise DomainError(f"--variant {args.variant} needs --uniform-n")
    if args.variant == "uniform":
        est = estimate_uniform(args.uniform_n, args.r, args.m)
        n = args.uniform_n
    elif args.variant == "refined":
        est = estimate_refined_uniform(args.uniform_n, args.r, args.m)
        n = args.uniform_n
    else:
        pv = _instance(args)
        est = estimate_partite(pv, args.r, args.m)
        n = pv.n
    if args.m >= n ** (4.0 / 3.0) / 2.0:
        print(
            f"warning: m={args.m} is large for n={n}; "
            "the correction term is outside its supported range",
            file=sys.stderr,
        )
    payload = est.to_json_dict()
    payload.update(
        {
            "variant": args.variant,
            "r": args.r,
            "m": args.m,
            "value_decimal": _decimal_from_log(est.log_value),
        }
    )
    _emit(payload)
    return 0


def _run_sample(args) -> int:
    pv = _instance(args)
    rep = estimate_linear_probability(
        pv,
        args.r,
        args.m,
        trials=args.trials,
        seed=args.seed,
        workers=_workers(args),
        track_overlaps=args.track_overlaps,
    )
    _emit(rep.to_json_dict())
    return 0


def _run_audit(args) -> int:
    pv = _instance(args)
    rep = bijection_audit(pv, args.r, args.m, work_ceiling=args.work_ceiling)
    _emit(rep.to_json_dict())
    return 0


def _run_series(args) -> int:
    pv = _instance(args)
    rep = ratio_series(
        pv,
        args.r,
        args.m,
        t_prime=args.t_prime,
        budget_constant=args.budget_constant,
        with_census=args.with_census,
        work_ceiling=args.work_ceiling,
    )
    payload = rep.to_json_dict()
    payload.update({"parts": list(pv.sizes), "r": args.r, "m": args.m})
    _emit(payload)
    return 0


def _run_verify(args) -> int:
    ok = run_verification(workers=_workers(args), trials=args.trials)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linhyp",
        description="Exact census, sampling, and estimates for linear partite hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="stratify all m-subsets of the edge space")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--parts")
    group.add_argument("--uniform-n", type=int)
    group.add_argument("--grid", action="store_true", help="CSV over the built-in grid")
    p.add_argument("--r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--work-ceiling", type=int, default=DEFAULT_WORK_CEILING)
    p.set_defaults(func=_run_census)

    p = sub.add_parser("estimate", help="log-space count estimate with error budget")
    _add_instance_args(p)
    p.add_argument(
        "--variant",
        choices=("partite", "uniform", "refined"),
        default="partite",
    )
    p.set_defaults(func=_run_estimate)

    p = sub.add_parser("sample", help="seeded uniform sampling of edge subsets")
    _add_instance_args(p)
    p.add_argument("--trials", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--track-overlaps", action="store_true")
    p.set_defaults(func=_run_sample)

    p = sub.add_parser("audit-switchings", help="exhaustive forward/reverse move audit")
    _add_instance_args(p)
    p.add_argument("--work-ceiling", type=int, default=DEFAULT_WORK_CEILING)
    p.set_defaults(func=_run_audit)

    p = sub.add_parser("series-bounds", help="stratum-ratio series with enclosure")
    _add_instance_args(p)
    p.add_argument("--t-prime", type=int, default=None)
    p.add_argument("--budget-constant", type=float, default=1.0)
    p.add_argument("--with-census", action="store_true")
    p.add_argument("--work-ceiling", type=int, default=DEFAULT_WORK_CEILING)
    p.set_defaults(func=_run_series)

    p = sub.add_parser("verify", help="run the built-in invariant suite")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--trials", type=int, default=10 ** 4)
    p.set_defaults(func=_run_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "census" and not args.grid:
        if args.r is None or args.m is None:
            parser.error("census needs --r and --m unless --grid is given")
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkCeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
