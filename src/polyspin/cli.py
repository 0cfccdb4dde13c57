"""Command-line entry point.

Exit codes: 0 success, 1 parse/usage error, 2 infeasible input,
3 premises unmet (strict mode), 4 verify-suite failure. Every randomized
command requires an explicit --seed, an integer in [0, 2^64), so reported
numbers are reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import estimator, verify
from .errors import InfeasibleError, PolyspinError, PremisesUnmetError
from .graph import (
    generate_random_regular_bipartite,
    load_graph,
    save_graph,
    second_eigenvalue,
)
from .spin_model import load_matrix

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_PREMISES = 3
EXIT_VERIFY = 4


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record))
    else:
        print(" ".join(f"{k}={v}" for k, v in record.items()))


def cmd_gen(args) -> int:
    graph = generate_random_regular_bipartite(args.n, args.degree, args.seed)
    save_graph(graph, args.out)
    cert = second_eigenvalue(graph)
    bound = 2.0 * math.sqrt(args.degree)
    verdict = "pass" if cert.lam <= bound else "fail"
    _emit(
        {
            "n": graph.n,
            "degree": graph.degree,
            "edges": graph.num_edges,
            "lambda": f"{cert.lam:.9g}",
            "bound_2sqrtD": f"{bound:.9g}",
            "spectral_check": verdict,
            "seed": args.seed,
            "out": args.out,
        },
        args.format,
    )
    return EXIT_OK


def _config(args) -> estimator.EstimatorConfig:
    return estimator.EstimatorConfig(
        eps_override=args.eps_model,
        brute_force_budget=args.brute_force_budget,
        size_cap=args.size_cap,
    )


def _run_fields(records, ln_stderr) -> dict:
    """The mixture's resolved size cap (0 when no biclique admits polymers),
    candidate count per biclique, total telescope steps and the standard
    error of lnZ. Without records no chain ran: no cap or candidates and 0
    steps; ln_stderr is 0 on the exact path and None ("-") where no error
    is estimated (strict mode, or no estimate at all)."""
    stderr = "-" if ln_stderr is None else f"{ln_stderr:.6g}"
    if not records:
        return {"size_cap": "-", "candidates": "-", "steps": 0, "lnZ_stderr": stderr}
    return {
        "size_cap": max(r.table.size_cap for r in records),
        "candidates": ",".join(str(len(r.table)) for r in records),
        "steps": sum(r.steps for r in records),
        "lnZ_stderr": stderr,
    }


def cmd_estimate(args) -> int:
    graph = load_graph(args.graph, oracle_only=args.relaxed)
    matrix = load_matrix(args.matrix)
    start = time.perf_counter()
    result = estimator.approximate_Z(
        graph, matrix, args.eps, args.seed, mode=args.mode, config=_config(args)
    )
    elapsed_ms = 1000 * (time.perf_counter() - start)
    record = {
        "lnZ": f"{result.ln_value:.12g}",
        "eps_star": args.eps,
        "mode": result.mode,
        "eps": "-" if result.eps is None else f"{result.eps:.6g}",
        "seed": args.seed,
        "bicliques": result.bicliques,
        **_run_fields(result.records, result.ln_stderr),
        "wallclock_ms": f"{elapsed_ms:.3f}",
    }
    _emit(record, args.format)
    for note in result.warnings:
        print(f"# {note}", file=sys.stderr)
    return EXIT_OK


def cmd_sample(args) -> int:
    graph = load_graph(args.graph, oracle_only=args.relaxed)
    matrix = load_matrix(args.matrix)
    config = _config(args)
    exact_path = estimator.exact_fallback(graph, matrix, config.brute_force_budget)
    warnings = ()
    if exact_path or args.count < 1:  # a count below 1 needs no estimate: refused or empty
        samples = estimator.spin_sample_many(
            graph, matrix, args.eps, args.seed, args.count, mode=args.mode, config=config
        )
        fields = _run_fields((), 0.0 if exact_path else None)
    else:
        result = estimator.approximate_Z(
            graph, matrix, args.eps, args.seed, mode=args.mode, config=config
        )
        samples = estimator.sample_mixture(result, args.eps, args.seed, args.count)
        fields = _run_fields(result.records, result.ln_stderr)
        warnings = result.warnings
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in samples:
            fh.write(" ".join(str(int(s)) for s in row) + "\n")
    record = {
        "count": args.count,
        "mode": "exact" if exact_path else args.mode,
        "vertices": graph.num_vertices,
        "seed": args.seed,
        **fields,
        "out": args.out,
    }
    _emit(record, args.format)
    for note in warnings:
        print(f"# {note}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = verify.run_suites(args.level)
    failed = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += not ok
    print(f"{len(rows) - failed}/{len(rows)} suites passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _add_run_args(cmd: argparse.ArgumentParser) -> None:
    """The arguments estimate and sample share; _config reads them."""
    cmd.add_argument("graph")
    cmd.add_argument("matrix")
    cmd.add_argument("-e", "--eps", type=float, required=True, help="relative accuracy target")
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--mode", choices=("lab", "strict"), default="lab")
    cmd.add_argument("--format", choices=("kv", "json"), default="kv")
    cmd.add_argument("--eps-model", type=float, default=None, help="override the model closeness eps")
    cmd.add_argument(
        "--brute-force-budget",
        type=int,
        default=estimator.EstimatorConfig().brute_force_budget,
        help="largest q^n left configurations the exact path sums (0 disables it)",
    )
    cmd.add_argument("--size-cap", type=int, default=None, help="truncate polymer size (default: floor(2 eps n))")
    cmd.add_argument("--relaxed", action="store_true", help="accept oracle-only graphs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspin",
        description="Partition functions and Gibbs samples of q-spin systems "
        "on regular bipartite expanders via biclique polymer models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random regular bipartite graph")
    gen.add_argument("-n", type=int, required=True, help="vertices per side")
    gen.add_argument("-d", "--degree", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("--format", choices=("kv", "json"), default="kv")
    gen.set_defaults(func=cmd_gen)

    est = sub.add_parser("estimate", help="approximate ln Z for a graph/matrix pair")
    _add_run_args(est)
    est.set_defaults(func=cmd_estimate)

    smp = sub.add_parser("sample", help="draw approximate Gibbs configurations")
    _add_run_args(smp)
    smp.add_argument("-c", "--count", type=int, required=True)
    smp.add_argument("-o", "--out", required=True)
    smp.set_defaults(func=cmd_sample)

    ver = sub.add_parser("verify", help="run the acceptance checks (quick: c1 c2 c5-c8 exact; full: all)")
    ver.add_argument("level", choices=("quick", "full"), nargs="?", default="quick")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PremisesUnmetError as exc:
        print(f"premises unmet: {exc}", file=sys.stderr)
        return EXIT_PREMISES
    except (OSError, PolyspinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
