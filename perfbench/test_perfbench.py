"""Self-test of the benchmark harness, at a shrunk scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from metrics import END_TO_END, NAME_RE, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import ROOT, rebase, self_times, summarize  # noqa: E402


def test_self_time_arithmetic_on_a_synthetic_tree():
    # pass [0,10] -> a [1,4] -> a.child [2,3.5]; pass -> b [5,9]; b -> a [6,7]
    spans = [
        ("bench.pass", 0.0, 10.0, ROOT),
        ("x.a", 1.0, 4.0, 0),
        ("y.child", 2.0, 3.5, 1),
        ("z.b", 5.0, 9.0, 0),
        ("x.a", 6.0, 7.0, 3),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5, 3.0, 1.0]
    summary = summarize(spans)
    assert summary["x.a"] == [2, 4.0, 2.5]
    assert sum(row[2] for row in summary.values()) == 10.0
    shifted = [("before", -2.0, -1.0, ROOT)] + [(n, s, e, p + 1 if p != ROOT else p) for n, s, e, p in spans]
    assert rebase(shifted, 1) == spans


def test_registry_matches_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for key, registry in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == [
            (m.name, m.unit, m.better) for m in registry
        ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)


def test_outputs_repeat_at_a_seed():
    keys = ("lnZ", "exact_lnZ", "lnz_rmse", "sample_tv")
    records = [run.run_workload("estimate-mix", 7, 0.0, False, "smoke")["record"] for _ in range(2)]
    outputs = [{k: rec[k] for k in keys if k in rec} for rec in records]
    assert set(outputs[0]) == set(keys)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--scale", "smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    registry = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in registry]
    for name, metric in result["metrics"].items():
        assert NAME_RE.fullmatch(name)
        assert isinstance(metric["value"], float | int)
    assert record["traced"] == bool(trace) and record["seed"] == 1
    if trace:
        # the layer self times account for the traced pass
        assert 0.9 < result["metrics"]["trace.attributed_frac"]["value"] <= 1.0 + 1e-9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
