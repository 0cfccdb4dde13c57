from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from polyspin import (
    EstimatorConfig,
    PremiseReport,
    complete_bipartite,
    exact,
    load_graph,
    save_matrix,
)
from polyspin.cli import build_parser, main
from polyspin import cli, estimator
from polyspin import verify as verify_mod
from polyspin.polymer import PolymerModel


@pytest.fixture
def hardcore_path(tmp_path, hardcore):
    path = tmp_path / "hardcore.txt"
    save_matrix(hardcore, path)
    return str(path)


@pytest.fixture
def all_ones_path(tmp_path, all_ones2):
    path = tmp_path / "ones.txt"
    save_matrix(all_ones2, path)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen -------------------------------------------------------------------


def test_gen_k33_forced(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, _ = run(["gen", "-n", "3", "-d", "3", "--seed", "5", "-o", str(out)], capsys)
    assert code == 0
    assert "lambda=" in stdout and "spectral_check=pass" in stdout
    graph = load_graph(out)
    assert np.array_equal(graph.edge_array, complete_bipartite(3).edge_array)


def test_gen_infeasible_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["gen", "-n", "2", "-d", "3", "--seed", "1", "-o", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "infeasible" in err


def test_gen_larger_graph_edge_count(tmp_path, capsys):
    out = tmp_path / "g64.txt"
    code, stdout, _ = run(
        ["gen", "-n", "64", "-d", "8", "--seed", "1", "-o", str(out), "--format", "json"],
        capsys,
    )
    assert code == 0
    record = json.loads(stdout)
    assert record["edges"] == 512
    assert float(record["lambda"]) <= float(record["bound_2sqrtD"])


# -- estimate ---------------------------------------------------------------------


def test_estimate_exact_path_record(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    code, stdout, _ = run(
        ["estimate", str(gpath), hardcore_path, "-e", "0.5", "--seed", "3"], capsys
    )
    assert code == 0
    fields = dict(kv.split("=") for kv in stdout.split())
    assert fields["mode"] == "exact"
    assert fields["bicliques"] == "2"
    assert float(fields["lnZ"]) == pytest.approx(math.log(15.0), rel=1e-12)
    assert float(fields["wallclock_ms"]) > 0
    assert fields["eps"] == "-"
    # no chain runs on the exact path, and its answer has no sampling error
    assert (fields["size_cap"], fields["candidates"], fields["steps"]) == ("-", "-", "0")
    assert fields["lnZ_stderr"] == "0"


def test_estimate_record_names_cap_candidates_and_steps(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "g8.txt"
    run(["gen", "-n", "8", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    knobs = ["-e", "0.5", "--seed", "7", "--eps-model", "0.2", "--size-cap", "2"]
    argv = ["estimate", str(gpath), hardcore_path, *knobs, "--brute-force-budget", "0"]
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    fields = dict(kv.split("=") for kv in stdout.split())
    assert fields["lnZ"] == "7.30607853147"
    assert (fields["size_cap"], fields["candidates"], fields["steps"]) == ("2", "28,28", "20493")
    assert fields["lnZ_stderr"] == "0.0137862"
    _, stdout, _ = run(argv + ["--format", "json"], capsys)
    record = json.loads(stdout)
    assert (record["size_cap"], record["candidates"], record["steps"]) == (2, "28,28", 20493)
    assert record["lnZ_stderr"] == "0.0137862"


def test_estimate_all_ones(tmp_path, capsys, all_ones_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    code, stdout, _ = run(
        ["estimate", str(gpath), all_ones_path, "-e", "0.5", "--seed", "3"], capsys
    )
    assert code == 0
    fields = dict(kv.split("=") for kv in stdout.split())
    assert float(fields["lnZ"]) == pytest.approx(6 * math.log(2.0), rel=1e-12)


def test_estimate_strict_exit_3(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "g64.txt"
    run(["gen", "-n", "64", "-d", "8", "--seed", "1", "-o", str(gpath)], capsys)
    code, _, err = run(
        [
            "estimate", str(gpath), hardcore_path,
            "-e", "0.5", "--seed", "3", "--mode", "strict",
        ],
        capsys,
    )
    assert code == 3
    assert "premises" in err


def test_estimate_parse_error_exit_1(tmp_path, capsys, hardcore_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(
        ["estimate", str(bad), hardcore_path, "-e", "0.5", "--seed", "3"], capsys
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "case", ["graph-dir", "graph-bytes", "matrix-bytes", "gen-out-dir", "sample-out-dir"]
)
def test_unreadable_files_exit_1(tmp_path, capsys, hardcore_path, case):
    # each printed a traceback before: a directory where a file is read or
    # written (IsADirectoryError), or a file that is not UTF-8 text
    gpath = str(tmp_path / "k33.txt")
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"bipartite-regular n 3 delta 3\n\xff\n")
    folder = str(tmp_path)
    run_args = ["-e", "0.5", "--seed", "1"]
    argv = {
        "graph-dir": ["estimate", folder, hardcore_path, *run_args],
        "graph-bytes": ["estimate", str(bad), hardcore_path, *run_args],
        "matrix-bytes": ["estimate", gpath, str(bad), *run_args],
        "gen-out-dir": ["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", folder],
        "sample-out-dir": ["sample", gpath, hardcore_path, *run_args, "-c", "2", "-o", folder],
    }[case]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("command", ["gen", "sample"])
def test_unwritable_out_refused_before_any_work(
    tmp_path, capsys, hardcore_path, monkeypatch, command
):
    # -o is checked before the generation or the estimate starts, so both
    # stand-ins below must never run
    gpath = str(tmp_path / "g8.txt")
    run(["gen", "-n", "8", "-d", "3", "--seed", "1", "-o", gpath], capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("the run started work before checking -o")

    monkeypatch.setattr(estimator, "approximate_Z", refuse)
    monkeypatch.setattr(cli, "generate_random_regular_bipartite", refuse)
    argv = {
        "gen": ["gen", "-n", "8", "-d", "3", "--seed", "1"],
        "sample": ["sample", gpath, hardcore_path, "-e", "0.5", "--seed", "1", "-c", "5",
                   "--brute-force-budget", "0"],
    }[command]
    code, out, err = run([*argv, "-o", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("command", ["gen", "sample"])
def test_failed_run_leaves_no_new_out_file(tmp_path, capsys, hardcore_path, command):
    # the early -o check creates a missing file; a run that fails after it
    # removes that file again and leaves an existing one as it was
    gpath = str(tmp_path / "g8.txt")
    run(["gen", "-n", "8", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    argv, expected = {
        "gen": (["gen", "-n", "8", "-d", "9", "--seed", "1"], (2, "infeasible: ")),
        "sample": (
            ["sample", gpath, hardcore_path, "-e", "0.5", "--seed", "1", "-c", "-1"],
            (1, "error: "),
        ),
    }[command]
    new = tmp_path / "new.txt"
    code, out, err = run([*argv, "-o", str(new)], capsys)
    assert (code, out) == (expected[0], "") and err.startswith(expected[1]), err
    assert not new.exists()
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n", encoding="utf-8")
    code, _, _ = run([*argv, "-o", str(kept)], capsys)
    assert code == expected[0] and kept.read_text(encoding="utf-8") == "old\n"


def test_estimate_size_cap_zero_exit_1(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    code, _, err = run(
        ["estimate", str(gpath), hardcore_path, "-e", "0.5", "--seed", "3", "--size-cap", "0"],
        capsys,
    )
    assert code == 1
    assert "error: size_cap" in err


@pytest.mark.parametrize("eps_star", ["1e-200", "1e-160"])
def test_estimate_accuracy_too_small_exit_1(tmp_path, capsys, hardcore_path, eps_star):
    # ceil(8n / eps*^2) is not finite; both printed a traceback before
    gpath = str(tmp_path / "k33.txt")
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    argv = ["estimate", gpath, hardcore_path, "-e", eps_star, "--seed", "1", "--eps-model", "0.4"]
    code, out, err = run(argv + ["--size-cap", "1", "--brute-force-budget", "0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: eps_star=") and "is not finite" in err, err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", ["gen", "estimate", "sample"])
def test_seed_outside_64_bits_exit_1(tmp_path, capsys, hardcore_path, command, seed):
    # -1 and 2^64 would alias 2^64 - 1 and 0; K33 takes the exact path,
    # which draws nothing, and still refuses the seed
    gpath = str(tmp_path / "k33.txt")
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    argv = {
        "gen": ["gen", "-n", "3", "-d", "3", "-o", str(tmp_path / "g.txt")],
        "estimate": ["estimate", gpath, hardcore_path, "-e", "0.5"],
        "sample": ["sample", gpath, hardcore_path, "-e", "0.5", "-c", "2", "-o", str(tmp_path / "s")],
    }[command]
    code, out, err = run(argv + [f"--seed={seed}"], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: seed") and seed in lines[0], err


def test_missing_seed_is_a_usage_error(tmp_path, capsys, hardcore_path):
    code, _, _ = run(["gen", "-n", "3", "-d", "3", "-o", str(tmp_path / "g")], capsys)
    assert code == 1


def test_brute_force_budget_default_is_the_config_default():
    # estimate and sample share the option, so one parse covers both
    args = build_parser().parse_args(["estimate", "g", "m", "-e", "0.5", "--seed", "1"])
    assert args.brute_force_budget == EstimatorConfig().brute_force_budget


# -- sample -----------------------------------------------------------------------


def test_sample_zero_count_empty_file(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    out = tmp_path / "samples.txt"
    code, _, _ = run(
        [
            "sample", str(gpath), hardcore_path,
            "-c", "0", "-e", "0.5", "--seed", "2", "-o", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert out.read_text() == ""


def test_sample_record_names_the_path(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    out = str(tmp_path / "samples.txt")
    base = ["sample", str(gpath), hardcore_path, "-c", "3", "-e", "0.5", "--seed", "2", "-o", out]
    for extra, mode in (([], "exact"), (["--brute-force-budget", "0", "--eps-model", "0.4"], "lab")):
        code, stdout, _ = run(base + extra, capsys)
        assert code == 0
        assert dict(kv.split("=") for kv in stdout.split())["mode"] == mode


def test_sample_record_reports_its_estimate(tmp_path, capsys, hardcore_path):
    # sample names the cap, candidates, steps and lnZ_stderr of the estimate
    # it draws from, as estimate does with the same flags
    gpath = str(tmp_path / "g8.txt")
    run(["gen", "-n", "8", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    out = str(tmp_path / "samples.txt")
    fields = ("size_cap", "candidates", "steps", "lnZ_stderr")
    knobs = [gpath, hardcore_path, "-e", "0.5", "--seed", "7"]
    lab = ["--eps-model", "0.2", "--size-cap", "2", "--brute-force-budget", "0"]
    cases = (
        (lab, "kv", ("2", "28,28", "20493", "0.0137862")),
        ([], "kv", ("-", "-", "0", "0")),
        (lab, "json", (2, "28,28", 20493, "0.0137862")),
        ([], "json", ("-", "-", 0, "0")),
    )
    for extra, fmt, want in cases:
        extra = [*extra, "--format", fmt]
        _, estimate_out, _ = run(["estimate", *knobs, *extra], capsys)
        code, sample_out, _ = run(["sample", *knobs, *extra, "-c", "2", "-o", out], capsys)
        assert code == 0
        for stdout in (estimate_out, sample_out):
            if fmt == "json":
                record = json.loads(stdout)
            else:
                record = dict(kv.split("=") for kv in stdout.split())
            assert tuple(record[k] for k in fields) == want, (fmt, stdout)


def test_estimate_strict_record_has_no_stderr(tmp_path, capsys, hardcore_path, monkeypatch):
    # strict mode's bound is the proof's, so it reports no standard error
    passing = PremiseReport(True, True, 0.1, 10.0, True)
    monkeypatch.setattr(estimator, "check_premises", lambda *args: passing)
    gpath = str(tmp_path / "k33.txt")
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    argv = ["estimate", gpath, hardcore_path, "-e", "0.9", "--seed", "1", "--mode", "strict"]
    code, stdout, _ = run(argv + ["--eps-model", "0.4", "--brute-force-budget", "0"], capsys)
    assert code == 0
    fields = dict(kv.split("=") for kv in stdout.split())
    assert (fields["mode"], fields["lnZ_stderr"]) == ("strict", "-")


def test_sample_prints_the_estimate_warnings(tmp_path, capsys, hardcore_path):
    gpath = str(tmp_path / "g16.txt")
    run(["gen", "-n", "16", "-d", "3", "--seed", "1", "-o", gpath], capsys)
    knobs = [gpath, hardcore_path, "-e", "0.5", "--seed", "7", "--brute-force-budget", "0"]
    _, _, estimate_err = run(["estimate"] + knobs, capsys)
    out = str(tmp_path / "samples.txt")
    code, _, sample_err = run(["sample"] + knobs + ["-c", "3", "-o", out], capsys)
    assert code == 0
    notes = [line for line in sample_err.splitlines() if line.startswith("# ")]
    assert len(notes) == 3
    assert notes == [line for line in estimate_err.splitlines() if line.startswith("# ")]


def test_sample_deterministic_and_well_formed(tmp_path, capsys, hardcore_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code, _, _ = run(
            [
                "sample", str(gpath), hardcore_path,
                "-c", "25", "-e", "0.5", "--seed", "2", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    rows = outs[0].strip().splitlines()
    assert len(rows) == 25
    for row in rows:
        spins = [int(tok) for tok in row.split()]
        assert len(spins) == 6
        assert all(s in (0, 1) for s in spins)


def test_sample_uniform_per_vertex_frequency(tmp_path, capsys, all_ones_path):
    gpath = tmp_path / "k33.txt"
    run(["gen", "-n", "3", "-d", "3", "--seed", "1", "-o", str(gpath)], capsys)
    out = tmp_path / "u.txt"
    count = 1000
    code, _, _ = run(
        [
            "sample", str(gpath), all_ones_path,
            "-c", str(count), "-e", "0.5", "--seed", "4", "-o", str(out),
        ],
        capsys,
    )
    assert code == 0
    rows = np.array(
        [[int(t) for t in line.split()] for line in out.read_text().splitlines()]
    )
    sigma = math.sqrt(0.25 / count)
    assert np.all(np.abs(rows.mean(axis=0) - 0.5) <= 4 * sigma)


def test_gen_outputs_byte_identical_across_runs(tmp_path, capsys):
    texts = []
    for name in ("g1.txt", "g2.txt"):
        out = tmp_path / name
        code, _, _ = run(
            ["gen", "-n", "12", "-d", "4", "--seed", "77", "-o", str(out)], capsys
        )
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


# -- verify -------------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    code, stdout, _ = run(["verify", "quick"], capsys)
    assert code == 0
    assert "[PASS]" in stdout
    assert "[FAIL]" not in stdout


def test_verify_detects_injected_weight_fault(monkeypatch):
    # perturbing the weight formula must trip the weight-identity check c1
    original = PolymerModel.weight_log

    def crooked(self, poly):
        value = original(self, poly)
        return value if value == float("-inf") else value + 1e-6

    monkeypatch.setattr(PolymerModel, "weight_log", crooked)
    _, ok, _ = verify_mod.c1()
    assert not ok


@pytest.mark.parametrize("fault", ["weight", "boundary"])
def test_verify_detects_injected_sampling_condition_fault(monkeypatch, fault):
    # w > 1 must trip c7's weight count, and a doubled F_u its boundary count;
    # c7's largest weight is 0.970, so e^0.11 w exceeds 1
    if fault == "weight":
        original = PolymerModel.weight_log
        monkeypatch.setattr(
            PolymerModel, "weight_log", lambda self, poly: original(self, poly) + 0.11
        )
    else:
        original = PolymerModel.boundary_entry

        def doubled(self, side, adjacent):
            f_u, ln_f_u, cumulative = original(self, side, adjacent)
            return 2.0 * f_u, ln_f_u, cumulative

        monkeypatch.setattr(PolymerModel, "boundary_entry", doubled)
    _, ok, detail = verify_mod.c7()
    boundary_bad, weight_bad = map(int, re.search(r"(\d+) boundary / (\d+) weight", detail).groups())
    assert not ok
    assert (boundary_bad > 0, weight_bad > 0) == (fault == "boundary", fault == "weight")


@pytest.mark.parametrize("target", ["_factor_table", "right_conditionals"])
def test_verify_detects_injected_exact_fault(monkeypatch, target):
    # a perturbed factor table moves ln Z; perturbed conditionals move the
    # sampler's law; either must trip the exact-engine check
    original = getattr(exact, target)

    def crooked(*args):
        return original(*args) * (1 + 1e-6)

    monkeypatch.setattr(exact, target, crooked)
    _, ok, _ = verify_mod.exact()
    assert not ok
