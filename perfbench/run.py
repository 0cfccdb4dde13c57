"""polyspin benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]

Runs one workload (or all of them) in this process, on one thread, against
the polyspin sources in ../src. With --trace 0 it reports the end-to-end
metrics, each a median over repeated untraced passes or set-ups; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones. Output checks count towards
`failed`. The last stdout line is the JSON result; the line before it is
the run record. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # untraced passes per --trace 0 run
MIN_TRACED = 2  # untraced and traced passes each per --trace 1 run
# Set-up reps before every untraced pass (at least, at most, seconds to
# fill), so that the setup_s median samples the whole run like wall_s does.
SETUP_REPS = (1, 200, 0.4)


def import_program():
    src = ROOT / "src"
    if not (src / "polyspin" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polyspin sources under {src}")
    sys.path.insert(0, str(src))
    import polyspin

    if Path(polyspin.__file__).resolve().parent != src / "polyspin":
        raise SystemExit(f"perfbench: imported polyspin from {polyspin.__file__}, not {src}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def time_setups(wl, ops, times: list[float]) -> None:
    least, most, fill = SETUP_REPS
    start = time.perf_counter()
    for attempt in range(most):
        if attempt >= least and time.perf_counter() - start >= fill:
            break
        before = ops.failed
        t0 = time.perf_counter()
        wl.setup(ops)
        dt = time.perf_counter() - t0
        if ops.failed != before:
            break
        times.append(dt)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    from tracing import Tracer, pass_metrics, rebase, reference_seconds, summarize
    from workloads import SCALES, WORKLOADS, Ops

    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](SCALES[scale][name], str(workdir), seed)
        ops = Ops()
        wl.prepare()
        setup_times: list[float] = []
        if trace and not wl.SETUP_IS_PASS:
            wl.setup(ops)

        tracer = Tracer() if trace else None
        untraced: list[float] = []
        traced: list[float] = []
        layer_rows: list[dict] = []
        need_untraced = MIN_TRACED if trace else MIN_PASSES
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            traced_pass = trace and k % 2 == 1
            if not trace and not wl.SETUP_IS_PASS and k > 0:
                time_setups(wl, ops, setup_times)
            before = ops.failed
            if traced_pass:
                lo = len(tracer.spans)
                tracer.reset_counts()
                with tracer.installed(), tracer.span("bench.pass"):
                    out = wl.run_pass(k, ops)
                _, start, end, _ = tracer.spans[lo]
                dt = end - start
            else:
                t0 = time.perf_counter()
                out = wl.run_pass(k, ops)
                dt = time.perf_counter() - t0
            if ops.failed == before and k > 0:  # pass 0 warms up, untimed
                if traced_pass:
                    traced.append(dt)
                    chunk = rebase(tracer.spans, lo)
                    layer_rows.append(pass_metrics(summarize(chunk), dict(tracer.counts), dt))
                else:
                    untraced.append(dt)
            wl.check_pass(k, out, ops)
            del out  # the next pass must not run with this one's results alive
            k += 1
            enough = len(untraced) >= need_untraced and (not trace or len(traced) >= MIN_TRACED)
            if time.perf_counter() >= deadline and (enough or k >= 4 * MIN_PASSES):
                break

        if trace:
            lo = len(tracer.spans)
            with tracer.installed(), tracer.span("bench.check"):
                wl.finish(ops)
            check_spans = rebase(tracer.spans, lo)
            tracer.write_jsonl(ROOT / ".bench_work" / f"trace-{name}.jsonl.gz")
        else:
            wl.finish(ops)
        if wl.SETUP_IS_PASS:
            setup_times = untraced
        if not untraced or not (traced if trace else setup_times):
            raise SystemExit(f"perfbench: {name}: no pass succeeded: {'; '.join(ops.notes[:3])}")

        record = {
            "workload": name,
            "seed": seed,
            "traced": trace,
            "scale": scale,
            "seconds": seconds,
            "pass_s": untraced,
            "traced_pass_s": traced,
            "setup_s": setup_times,
            "candidates_per_biclique": wl.candidates,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "failed_frac": ops.failed / ops.attempted,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(),
            **wl.record,
            "failures": ops.notes[:10],
        }
        wall = statistics.median(untraced)
        if trace:
            metrics = {key: statistics.fmean(row[key] for row in layer_rows) for key in layer_rows[0]}
            metrics["oracle.reference_s"] = reference_seconds(check_spans)
            metrics["estimator.lnz_rmse"] = wl.record.get("lnz_rmse", 0.0)
            metrics["estimator.sample_tv"] = wl.record.get("sample_tv", 0.0)
            metrics["trace.wall_s"] = statistics.median(traced)
            metrics["trace.overhead_frac"] = statistics.median(traced) / wall - 1.0
        else:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        return {"record": record, "correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(res: dict, registry) -> dict:
    units = {m.name: m.unit for m in registry}
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    import_program()
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    registry = PER_LAYER if args.trace else END_TO_END
    if args.workload != "all":
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        print(json.dumps({"record": res["record"]}))
        print(json.dumps(result_line(res, registry)))
        return 0

    results = {}
    for name in WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        results[name] = res
        print(json.dumps({"record": res["record"]}))
    units = {m.name: m.unit for m in registry}
    print(f"{'workload':<18} {'metric':<28} {'value':>16}  unit")
    for name, res in results.items():
        rows = dict(res["metrics"], failed_frac=res["record"]["failed_frac"])
        if not args.trace:
            for key in ("lnz_rmse", "sample_tv"):
                if key in res["record"]:
                    rows[key] = res["record"][key]
        for key, value in rows.items():
            print(f"{name:<18} {key:<28} {value:>16.6g}  {units.get(key, '1')}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: result_line(r, registry)["metrics"] for name, r in results.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
