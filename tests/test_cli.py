import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import cli, config, families, kernels, oscillation, transform, verify

from test_character_tensor import MORE_GRIDS


def run(args):
    return cli.main(args)


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"radix": {"constant": 2, "length": 5}}),
                    encoding="utf-8")
    return str(path)


def test_verify_passes(tmp_path, small_cfg, capsys):
    rc = run(["verify", "--config", small_cfg, "--out", str(tmp_path / "v")])
    assert rc == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["all_passed"] is True
    assert set(report["suites"]) == {"group", "characters", "binomials",
                                     "dirichlet", "block", "routes",
                                     "transform"}
    for suite in report["suites"].values():
        assert suite["passed"] is True
    out = capsys.readouterr().out
    assert "pass" in out


def test_verify_suite_subset(tmp_path, small_cfg):
    rc = run(["verify", "--config", small_cfg, "--suites", "group,binomials",
              "--out", str(tmp_path / "v")])
    assert rc == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert set(report["suites"]) == {"group", "binomials"}


@pytest.mark.parametrize("radices", [[2] * 6, [2, 3, 4, 2]] + MORE_GRIDS, ids=str)
def test_gram_row_blocks_match_the_whole_gram(radices, monkeypatch):
    # the analysis of a few character rows per block gives the residual of the whole
    # (M, M) Gram up to rounding
    ns = vk.number_system(radices)
    F = vk.character_block(ns, 0, ns.cell_count)
    whole = float(np.abs(F.conj() @ F.T / ns.cell_count - np.eye(ns.cell_count)).max())
    for rows in (1, 5, ns.cell_count):
        monkeypatch.setattr(verify, "ROW_BLOCK", rows * ns.cell_count)
        got = verify._suite_characters(ns, np.random.default_rng(0))["details"]["gram"]
        assert got <= 1e-14 and abs(got - whole) <= 1e-15


@pytest.mark.parametrize("radices", [[2] * 6, [2, 3, 4, 2]], ids=str)
@pytest.mark.parametrize("corruption", ["swap", "scale"])
def test_characters_suite_fails_on_corrupted_rows(radices, corruption, monkeypatch):
    # psi_4 and psi_5 trade places across a block boundary, or psi_{M/2} is off by a
    # relative 1e-8
    ns = vk.number_system(radices)
    M = ns.cell_count
    F = vk.character_block(ns, 0, M)
    if corruption == "swap":
        F = F[np.r_[0:4, 5, 4, 6:M]]
    else:
        F[M // 2] *= 1 + 1e-8
    monkeypatch.setattr(verify, "ROW_BLOCK", 5 * M)
    monkeypatch.setattr(verify, "character_block", lambda ns, a, b, r=None: F[a:b].copy())
    got = verify._suite_characters(ns, np.random.default_rng(0))
    assert got["passed"] is False
    assert got["details"]["gram"] >= 1e-9


def _nan_in_dirichlet_rows(monkeypatch):
    # one entry of psi_5, wherever the Dirichlet scan builds it: streams and product form
    real = verify.character_block

    def patched(ns, start, stop, resolution=None):
        out = real(ns, start, stop, resolution)
        if start <= 5 < stop:
            out[5 - start, 1] = np.nan
        return out

    monkeypatch.setattr(verify, "character_block", patched)
    return "dirichlet"


def _nan_in_character_rows(monkeypatch):
    # cell 7 of psi_3 in the rows the characters suite transforms
    real = verify.character_block

    def patched(ns, start, stop, resolution=None):
        out = real(ns, start, stop, resolution)
        if start <= 3 < stop:
            out[3 - start, 7] = np.nan
        return out

    monkeypatch.setattr(verify, "character_block", patched)
    return "characters"


def _nan_in_first_mean(monkeypatch):
    # cell 0 of sigma_1^{-alpha} f, the first mean the routes suite compares
    real = transform.cesaro_mean

    def patched(f, n, alpha):
        mean = real(f, n, alpha)
        if n == 1:
            cells = mean.cells.copy()
            cells[0] = np.nan
            mean = type(mean)(mean.ns, mean.resolution, cells)
        return mean

    monkeypatch.setattr(transform, "cesaro_mean", patched)
    return "routes"


@pytest.mark.parametrize("inject", [_nan_in_dirichlet_rows, _nan_in_character_rows,
                                    _nan_in_first_mean], ids=lambda f: f.__name__[1:])
def test_a_nan_residual_fails_its_suite(inject, monkeypatch):
    ns = vk.number_system([2, 3, 4, 2])
    suite = inject(monkeypatch)
    got = verify.SUITES[suite](ns, np.random.default_rng(0))
    assert got["passed"] is False
    assert np.isnan(got["max_residual"])


def test_verify_negative_control(tmp_path, small_cfg, monkeypatch):
    # corrupting the kernel weights must surface as a failed suite
    real = kernels.cesaro_kernel

    def corrupted(ns, n, alpha, resolution=None):
        k = real(ns, n, alpha, resolution)
        return type(k)(k.ns, k.resolution, k.cells * 1.001)

    monkeypatch.setattr(kernels, "cesaro_kernel", corrupted)
    rc = run(["verify", "--config", small_cfg, "--suites", "routes",
              "--out", str(tmp_path / "v")])
    assert rc == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["all_passed"] is False
    assert report["suites"]["routes"]["passed"] is False


def test_every_subcommand_has_a_help_line():
    # vilenkin --help lists each subcommand with its runner's docstring
    parser = cli.build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(helps) == list(cli.COMMANDS)
    text = " ".join(parser.format_help().split())
    for name, line in helps.items():
        assert line and line.strip(), name
        assert f"{name} {line}" in text


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert run(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing_rc = run(["verify", "--config", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path)])
    assert missing_rc == 2


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radixx": [2, 2]}), encoding="utf-8")
    assert run(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_alpha_out_of_range_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphas": [0.5, 1.0]}), encoding="utf-8")
    assert run(["converge", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cell_cap_exits_2(tmp_path, small_cfg):
    assert run(["verify", "--config", small_cfg, "--max-cells", "16",
                "--out", str(tmp_path)]) == 2


def test_unknown_suite_exits_2(tmp_path, small_cfg):
    assert run(["verify", "--config", small_cfg, "--suites", "nope",
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("suites", [",", ""], ids=["comma", "empty"])
def test_empty_suite_flag_exits_2(tmp_path, small_cfg, suites):
    # only a null suites runs every suite; a flag that names none would check nothing
    assert run(["verify", "--config", small_cfg, "--suites", suites,
                "--out", str(tmp_path / "v")]) == 2
    assert not (tmp_path / "v").exists()


def test_empty_out_flag_exits_2(tmp_path, small_cfg, monkeypatch):
    # only a missing --out means runs/<command>; an empty one names no directory
    monkeypatch.chdir(tmp_path)
    assert run(["oscillation", "--config", small_cfg, "--out", ""]) == 2
    assert not (tmp_path / "runs").exists()


def test_environment_sets_nothing(tmp_path, monkeypatch):
    # settings come from flags and the config file only: variables that once overrode
    # them, set to bad values, change neither the outcome nor a byte of the artifacts
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "runs" / "verify"

    def artifacts():
        assert run(["verify", "--suites", "group"]) == 0
        got = {name: (out / name).read_bytes() for name in ("report.json", "run_meta.json")}
        shutil.rmtree(out)
        return got

    clean = artifacts()
    for name, value in {"CONFIG": str(tmp_path / "no_such_config.json"),
                        "OUT": str(tmp_path / "env_out"), "SUITES": "nope",
                        "SEED": "not_an_int", "MAX_CELLS": "1"}.items():
        monkeypatch.setenv("VILENKIN_" + name, value)
    assert artifacts() == clean
    assert not (tmp_path / "env_out").exists()


def test_coarse_file_family_is_its_tiled_twin(tmp_path):
    # a step file coarser than the group is lifted to the group's resolution: every row
    # but the label matches the file that holds the same function at full resolution
    cells = [[0.5, 0], [-1.0, 0.25], [2.0, 0], [0.0, -0.5], [1.5, 1.0], [-0.75, 0]]
    for name, resolution, pairs in (("coarse", 2, cells), ("tiled", 3, cells * 2)):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"radix": [2, 3, 2], "resolution": resolution, "cells": pairs}), encoding="utf-8")
        (tmp_path / f"{name}_cfg.json").write_text(json.dumps(
            {"radix": [2, 3, 2], "functions": [{"family": "file",
                                                "path": str(tmp_path / f"{name}.json")}]}),
            encoding="utf-8")
    for command, artifact in (("converge", "converge.csv"), ("oscillation", "oscillation.csv")):
        rows = {}
        for name in ("coarse", "tiled"):
            out = tmp_path / command / name
            assert run([command, "--config", str(tmp_path / f"{name}_cfg.json"),
                        "--out", str(out)]) == 0
            with open(out / artifact, encoding="utf-8", newline="") as fh:
                rows[name] = [row[:1] + row[2:] for row in csv.reader(fh)]
        assert len(rows["coarse"]) > 1
        assert rows["coarse"] == rows["tiled"]


def test_converge_csv_schema(tmp_path, small_cfg):
    rc = run(["converge", "--config", small_cfg, "--out", str(tmp_path / "c")])
    assert rc == 0
    lines = (tmp_path / "c" / "converge.csv").read_text().splitlines()
    assert lines[0] == ("schema_version,family,alpha,n,sup_error,"
                        "oscillation_partial,difference_condition,verdict")
    assert all(line.split(",")[0] == "1" for line in lines[1:])
    # default lacunary family converges at every alpha
    verdicts = {line.split(",")[-1] for line in lines[1:]}
    assert verdicts == {"converging"}


def test_csv_label_with_a_comma_stays_one_field(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "radix": {"pattern": [2, 3, 4, 2], "length": 4},
        "functions": [{"family": "lacunary", "coeffs": [0.5, 2]}],
    }), encoding="utf-8")
    for command, name, width in (("converge", "converge.csv", 8),
                                 ("oscillation", "oscillation.csv", 9)):
        out = tmp_path / command
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        assert all(len(row) == width for row in rows)
        assert {row[1] for row in rows[1:]} == {"lacunary-0.5,2.0"}


def test_converge_exact_for_constant(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "radix": {"constant": 2, "length": 5},
        "functions": [{"family": "lacunary", "coeffs": [0.75]}],
        "alphas": [0.5],
    }), encoding="utf-8")
    rc = run(["converge", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert rc == 0
    lines = (tmp_path / "c" / "converge.csv").read_text().splitlines()[1:]
    # a single-coordinate function is reproduced once n reaches M_1
    assert {line.split(",")[-1] for line in lines} <= {"converging", "exact"}


def test_converge_n1_partial_is_empty_sum(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "radix": {"constant": 2, "length": 5},
        "n_schedule": {"kind": "list", "values": [1, 2]},
        "functions": [{"family": "lacunary", "decay": "inverse_scale"},
                      {"family": "random_lipschitz"}],
    }), encoding="utf-8")
    rc = run(["converge", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert rc == 0
    partial = {}
    for line in (tmp_path / "c" / "converge.csv").read_text().splitlines()[1:]:
        _, family, alpha, n, _, p, _, _ = line.split(",")
        partial[family, alpha, int(n)] = float(p)
    assert len(partial) == 2 * 3 * 2
    for (family, alpha, n), p in partial.items():
        if n == 1:
            assert p == 0.0
            assert p <= partial[family, alpha, 2]


def test_converge_evaluates_each_condition_once(tmp_path, small_cfg, monkeypatch):
    calls, spectra = [], []
    original, staged = cli.difference_conditions, oscillation._staged

    def counted(f, k, alphas):
        calls.append((id(f), k, tuple(alphas)))
        return original(f, k, alphas)

    def counted_staged(values, ns, resolution, analysis):
        if analysis and len(values) == ns.cell_count:  # the spectrum of |f - f(. - e_k)|
            spectra.append(resolution)
        return staged(values, ns, resolution, analysis)

    monkeypatch.setattr(cli, "difference_conditions", counted)
    monkeypatch.setattr(oscillation, "_staged", counted_staged)
    rc = run(["converge", "--config", small_cfg, "--out", str(tmp_path / "c")])
    assert rc == 0
    assert len(calls) == len(set(calls))
    # scales_and_neighbors at 2^5 spans k_cond = 1..4: one call and one difference
    # spectrum per scale, every alpha together
    assert sorted(k for _, k, _ in calls) == [1, 2, 3, 4]
    assert {alphas for _, _, alphas in calls} == {(0.25, 0.5, 0.75)}
    assert sorted(spectra) == [1, 2, 3, 4]


def test_converge_group_transforms_f_once(staged_passes):
    values = [1, 2, 5, 6, 24, 47, 48]
    alphas = [0.25, 0.5, 0.75]
    cfg = config.parse(dict(config.DEFAULTS, radix=[2, 3, 4, 2], alphas=alphas,
                            n_schedule={"kind": "list", "values": values}), "converge")
    ns = cfg.ns
    f = families.random_cells(ns, np.random.default_rng(5))
    rows = cli._converge_group(cfg, "random", f)
    # f is folded and transformed once per distinct resolution of the orders,
    # not per order nor per alpha
    levels = sorted({transform.minimal_resolution(ns, n) for n in values})
    assert sorted(k for k, analysis in staged_passes if analysis) == levels
    assert len(levels) < len(values)
    # each row's error is the one cesaro_mean gives, to the byte
    assert len(rows) == len(alphas) * len(values)
    for row, (alpha, n) in zip(rows, [(a, n) for a in alphas for n in values]):
        err = transform.sup_distance(transform.cesaro_mean(f, n, alpha), f)
        assert (row[2], row[3], row[4]) == (alpha, n, cli.fmt_float(err))


@pytest.mark.parametrize("radices", [[2] * 10] + MORE_GRIDS, ids=str)
def test_sup_error_at_own_resolution_is_the_lifted_sup(radices):
    ns = vk.number_system(radices)
    r = ns.resolution
    rng = np.random.default_rng(13)
    orders = config.n_schedule(ns, {"kind": "scales_and_neighbors"})
    fs = [families.random_cells(ns, rng, real=True), families.random_lipschitz(ns, rng),
          families.random_cells(ns, rng),
          transform.StepFunction(ns, r, rng.standard_normal(ns.cell_count) + 1e-15j)]
    ladder_reads = 0
    for f in fs:
        extremes = oscillation.coset_extremes(f)
        means, = transform._cesaro_means(f, orders, [0.4])
        for mean in means:
            # the real part of a mean is a float64 mean on every grid
            for m in (mean, transform.StepFunction(ns, mean.resolution, mean.cells.real)):
                assert cli._sup_error(m, f, extremes) == \
                    transform.sup_distance(m.lift(r), f)
                ladder_reads += extremes is not None and m.cells.dtype == np.float64
    assert ladder_reads >= 2 * len(orders)


@pytest.mark.parametrize("row_block", [1, 1 << 12, verify.ROW_BLOCK])
@pytest.mark.parametrize("radices", [[2] * 9] + MORE_GRIDS, ids=str)
def test_group_suite_passes_with_any_block_of_t(radices, row_block, monkeypatch):
    # a block of t reads the rows of its first t's high digits beside the shared low rows
    monkeypatch.setattr(verify, "ROW_BLOCK", row_block)
    rep = verify._suite_group(vk.number_system(radices), np.random.default_rng(0))
    assert rep["passed"] and rep["details"]["failures"] == 0


@pytest.mark.parametrize("bad_t", [1, 29, 47])
def test_group_suite_catches_one_wrong_translation(bad_t, monkeypatch):
    original = transform.StepFunction.translate

    def wrong(self, t):
        g = original(self, t)
        if t == bad_t:
            g.cells = g.cells[::-1].copy()
        return g

    monkeypatch.setattr(transform.StepFunction, "translate", wrong)
    monkeypatch.setattr(verify, "ROW_BLOCK", 1 << 9)  # blocks of 8 t on 48 cells
    rep = verify._suite_group(vk.number_system([2, 3, 4, 2]), np.random.default_rng(0))
    assert not rep["passed"] and rep["details"]["failures"] >= 1


def test_group_suite_catches_a_repeated_coset_representative(monkeypatch):
    # the last coset of every level k >= 2 gets the cell of the first
    real = verify.coset_rep_cells

    def repeated(ns, k, resolution):
        cells = real(ns, k, resolution).copy()
        if k >= 2:
            cells[-1] = cells[0]
        return cells

    monkeypatch.setattr(verify, "coset_rep_cells", repeated)
    rep = verify._suite_group(vk.number_system([2, 3, 4, 2]), np.random.default_rng(0))
    assert not rep["passed"] and rep["details"]["failures"] == 3


def test_kernel_scan_artifacts(tmp_path, small_cfg):
    rc = run(["kernel-scan", "--config", small_cfg, "--out", str(tmp_path / "k")])
    assert rc == 0
    lines = (tmp_path / "k" / "kernel_scan.csv").read_text().splitlines()
    assert lines[0] == ("schema_version,radix,kind,alpha,n,sup_ratio,"
                        "argmax_cell,resolution")
    kinds = {line.split(",")[2] for line in lines[1:]}
    assert kinds == {"majorant", "coset_decay"}
    summary = json.loads((tmp_path / "k" / "kernel_scan_summary.json").read_text())
    for key, entry in summary.items():
        if key.startswith(("majorant", "coset_decay")):
            assert entry["stable"] is True
            assert np.isfinite(entry["empirical_constant"])


def test_kernel_scan_small_grid_has_no_verdict(tmp_path):
    # on 2^3 the default coset-decay block is n = 2, 3, 4: one order against two
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radix": [2, 2, 2]}), encoding="utf-8")
    rc = run(["kernel-scan", "--config", str(cfg), "--out", str(tmp_path / "k")])
    assert rc == 0
    summary = json.loads((tmp_path / "k" / "kernel_scan_summary.json").read_text())
    for alpha in (0.25, 0.5, 0.75):
        entry = summary[f"coset_decay_alpha_{alpha}"]
        assert entry["stable"] is None
        assert "1 and 2 orders" in entry["stable_reason"]
        # the majorant schedule 1, 2, 3, 4, 6, 7, 8 splits 3 against 4: a verdict is due
        assert summary[f"majorant_alpha_{alpha}"]["stable"] is True
        assert "stable_reason" not in summary[f"majorant_alpha_{alpha}"]


def test_kernel_scan_growing_ratios_fail(tmp_path, monkeypatch):
    # halves of 2 orders each get a verdict, and growth in the upper half fails the run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radix": [2, 2, 2, 2], "kernel_scan": {"kinds": ["coset_decay"],
                                                                      "n": [4, 5, 6, 7]}}),
                   encoding="utf-8")
    original = kernels.coset_decay_scan

    def growing(ns, alpha, k, values):
        return [dataclasses.replace(rec, sup_ratio=float(rec.n) ** 2) for rec in
                original(ns, alpha, k, values)]

    monkeypatch.setattr(kernels, "coset_decay_scan", growing)
    assert run(["kernel-scan", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 1
    summary = json.loads((tmp_path / "k" / "kernel_scan_summary.json").read_text())
    assert summary["coset_decay_alpha_0.5"]["stable"] is False


def test_oscillation_csv(tmp_path, small_cfg):
    rc = run(["oscillation", "--config", small_cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "oscillation.csv").read_text().splitlines()
    assert lines[0] == ("schema_version,family,alpha,k,scale_cells,omega,"
                        "total,nu,series_term")
    assert len(lines) > 1


def test_bench_small_equality(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bench": {"sizes": [{"constant": 2, "length": 3}], "repeats": 1},
    }), encoding="utf-8")
    rc = run(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc == 0
    report = json.loads((tmp_path / "b" / "bench.json").read_text())
    assert report["2-2-2"]["equal"] is True
    timings = json.loads((tmp_path / "b" / "timings.json").read_text())
    assert "speedup" in timings["2-2-2"]


def test_byte_identical_reruns(tmp_path, small_cfg):
    for d in ("r1", "r2"):
        assert run(["converge", "--config", small_cfg, "--seed", "9",
                    "--out", str(tmp_path / d)]) == 0
        assert run(["kernel-scan", "--config", small_cfg, "--seed", "9",
                    "--out", str(tmp_path / d / "k")]) == 0
    for rel in ("converge.csv", "run_meta.json", "k/kernel_scan.csv",
                "k/kernel_scan_summary.json"):
        a = (tmp_path / "r1" / rel).read_bytes()
        b = (tmp_path / "r2" / rel).read_bytes()
        assert a == b, rel


def test_scientific_notation_for_small_values():
    assert cli.fmt_float(0.0) == "0"
    assert cli.fmt_float(5e-7) == "5.000000000000e-07"
    assert "e" not in cli.fmt_float(0.5)


def test_n_schedule_kinds(small_cfg):
    import vilenkin as vk
    ns = vk.number_system([2] * 5)
    scales = config.n_schedule(ns, {"kind": "scales"})
    assert scales == [2, 4, 8, 16, 32]
    dense = config.n_schedule(ns, {"kind": "dense", "start": 3, "stop": 6})
    assert dense == [3, 4, 5, 6]
    explicit = config.n_schedule(ns, {"kind": "list", "values": [1, 32]})
    assert explicit == [1, 32]
    both = config.n_schedule(ns, {"kind": "scales_and_neighbors"})
    assert set(scales) <= set(both)
    assert max(both) <= ns.cell_count
    from vilenkin.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        config.n_schedule(ns, {"kind": "list", "values": [99]})


def test_one_digit_radix_outcomes(tmp_path):
    # N = 1 leaves the default scan level N - 1 = 0, which only a coset-decay scan rejects
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radix": [4], "bench": {"sizes": [[4]], "repeats": 1}}),
                   encoding="utf-8")
    for command in sorted(cli.COMMANDS):
        out = tmp_path / command
        rc = run([command, "--config", str(cfg), "--out", str(out)])
        assert rc == (2 if command == "kernel-scan" else 0), command
        assert out.exists() == (command != "kernel-scan"), command


def test_converge_on_a_length_one_radix(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radix": [4]}), encoding="utf-8")
    rc = run(["converge", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert rc == 0
    rows = (tmp_path / "c" / "converge.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        _, _, _, _, err, partial, cond, _ = row.split(",")
        assert np.isfinite([float(err), float(partial), float(cond)]).all()
        # one digit leaves no scale 1 <= k < N: the condition is the empty sum
        assert float(cond) == 0.0


MALFORMED = {
    "alpha_not_a_number": ("converge", {"alphas": ["x"]}),
    "seed_not_an_integer": ("converge", {"seed": "abc"}),
    "trailing_points_string": ("converge", {"thresholds": {"trailing_points": "4"}}),
    "missing_function_file": ("converge", {"functions": [{"family": "file",
                                                          "path": "no/such/file.json"}]}),
    "zero_bench_repeats": ("bench", {"bench": {"sizes": [{"constant": 2, "length": 3}],
                                               "repeats": 0}}),
    "final_over_first_string": ("converge", {"thresholds": {"final_over_first": "x"}}),
    "dense_start_string": ("converge", {"n_schedule": {"kind": "dense", "start": "a"}}),
    "n_schedule_string": ("converge", {"n_schedule": "x"}),
    "list_value_string": ("converge", {"n_schedule": {"kind": "list", "values": ["a"]}}),
    "thresholds_string": ("converge", {"thresholds": "x"}),
    "stability_factor_string": ("kernel-scan", {"thresholds": {"stability_factor": "x"}}),
    "scan_level_string": ("kernel-scan", {"kernel_scan": {"level": "a"}}),
    "scan_n_string": ("kernel-scan", {"kernel_scan": {"n": ["a"]}}),
    "max_cells_string": ("converge", {"max_cells": "x"}),
    "out_integer": ("converge", {"out": 5}),
    "radix_entry_string": ("converge", {"radix": ["x"]}),
    "radix_constant_string": ("converge", {"radix": {"constant": "a", "length": 3}}),
    "lacunary_coeff_string": ("converge", {"functions": [{"family": "lacunary",
                                                          "coeffs": ["a"]}]}),
    "indicator_level_string": ("converge", {"functions": [{"family": "digit_indicator",
                                                           "level": "a"}]}),
    "lipschitz_bound_string": ("converge", {"functions": [{"family": "random_lipschitz",
                                                           "bound": "a"}]}),
    "lipschitz_bound_negative": ("oscillation", {"functions": [{"family": "random_lipschitz",
                                                                "bound": -1}]}),
    "function_file_not_json": ("converge", {"functions": [{"family": "file",
                                                           "path": "not_json.txt"}]}),
    "function_file_not_a_step": ("converge", {"functions": [{"family": "file",
                                                             "path": "cfg.json"}]}),
    "functions_not_a_list": ("oscillation", {"functions": 5}),
    "scan_kinds_not_a_list": ("kernel-scan", {"kernel_scan": {"kinds": 5}}),
    "suites_not_a_list": ("verify", {"suites": 5}),
    "bench_sizes_not_a_list": ("bench", {"bench": {"sizes": 5}}),
    "function_file_not_utf8": ("converge", {"functions": [{"family": "file",
                                                           "path": "not_utf8.txt"}]}),
    "lipschitz_bound_overflows": ("converge", {"functions": [{"family": "random_lipschitz",
                                                              "bound": 1e308}]}),
    "lipschitz_bound_infinite": ("oscillation", {"functions": [{"family": "random_lipschitz",
                                                                "bound": float("inf")}]}),
    "out_names_a_file": ("converge", {"out": "cfg.json"}),
    # json reads NaN, Infinity and integers past any float; no number key may be one
    "stability_factor_nan": ("kernel-scan", {"thresholds": {"stability_factor": float("nan")}}),
    "stability_factor_infinite": ("kernel-scan",
                                  {"thresholds": {"stability_factor": float("inf")}}),
    "final_over_first_nan": ("converge", {"thresholds": {"final_over_first": float("nan")}}),
    "stability_factor_int_overflows": ("kernel-scan",
                                       {"thresholds": {"stability_factor": 10**400}}),
    "lacunary_coeff_nan": ("converge", {"functions": [{"family": "lacunary",
                                                       "coeffs": [float("nan")]}]}),
    "lacunary_coeff_nan_oscillation": ("oscillation", {"functions": [{"family": "lacunary",
                                                                      "coeffs": [float("nan")]}]}),
    "suite_name_a_list": ("verify", {"suites": [[1]]}),
    # an empty list would check nothing and pass; only null means every suite
    "suites_empty": ("verify", {"suites": []}),
    "alphas_empty": ("converge", {"alphas": []}),
    "functions_empty": ("oscillation", {"functions": []}),
    "scan_kinds_empty": ("kernel-scan", {"kernel_scan": {"kinds": []}}),
    "bench_sizes_empty": ("bench", {"bench": {"sizes": []}}),
    # only null means the default orders or directory: [] and "" name none
    "scan_n_empty": ("kernel-scan", {"kernel_scan": {"n": []}}),
    "out_empty": ("oscillation", {"out": ""}),
    "function_file_path_empty": ("converge", {"functions": [{"family": "file", "path": ""}]}),
    # keys the schema forbids; the message must name them
    "scan_key_typo": ("kernel-scan", {"kernel_scan": {"levle": 3}}, "levle"),
    "thresholds_key_typo": ("converge", {"thresholds": {"stability_factr": 9}},
                            "stability_factr"),
    "bench_key_typo": ("bench", {"bench": {"size": []}}, "size"),
    "bench_size_key_typo": ("bench", {"bench": {"sizes": [{"constant": 2, "length": 3,
                                                           "lenght": 4}]}}, "lenght"),
    "radix_two_forms": ("converge", {"radix": {"constant": 2, "length": 3, "list": [5]}},
                        "list"),
    "function_key_typo": ("converge", {"functions": [{"family": "random_lipschitz", "bnd": 5}]},
                          "bnd"),
    "schedule_key_typo": ("converge", {"n_schedule": {"kind": "dense", "strat": 3}}, "strat"),
    # a dense schedule's bounds are checked before its range is built
    "dense_stop_overflows": ("converge", {"n_schedule": {"kind": "dense", "stop": 10**400}}),
    "dense_stop_past_the_group": ("converge", {"n_schedule": {"kind": "dense", "stop": 10**12}}),
    # an empty range would write a header-only converge.csv and exit 0
    "dense_start_after_stop": ("converge", {"n_schedule": {"kind": "dense", "start": 5,
                                                           "stop": 3}}),
    "radix_length_overflows": ("converge", {"radix": {"constant": 2, "length": 10**30}}),
    # every key is checked before any work, whatever the command
    "scan_n_out_of_range": ("kernel-scan", {"kernel_scan": {"n": [1, 99]}}),
    "indicator_level_out_of_range": ("converge", {"functions": [{"family": "digit_indicator",
                                                                 "level": 9}]}),
    "second_function_unknown": ("converge", {"functions": [{"family": "lacunary",
                                                            "coeffs": [0.5]},
                                                           {"family": "nope"}]}),
    "verify_alpha_string": ("verify", {"alphas": ["x"]}),
    "lacunary_too_many_coeffs": ("oscillation", {"functions": [{"family": "lacunary",
                                                                "coeffs": [1, 1, 1, 1]}]}),
    # a spec or threshold the schema rejects too (test_config.SCHEMA_AND_PARSE_CASES)
    "lacunary_decay_and_coeffs": ("converge", {"functions": [{"family": "lacunary",
                                                              "decay": "inverse_scale",
                                                              "coeffs": [5.0]}]}),
    "function_file_without_path": ("converge", {"functions": [{"family": "file"}]}),
    "lipschitz_with_coeffs": ("converge", {"functions": [{"family": "random_lipschitz",
                                                          "coeffs": [1.0]}]}, "coeffs"),
    "indicator_with_bound": ("converge", {"functions": [{"family": "digit_indicator",
                                                         "level": 1, "bound": 2.0}]}, "bound"),
    # a factor of 0 or below would read every scan as unstable and exit 1
    "stability_factor_zero": ("kernel-scan", {"thresholds": {"stability_factor": 0}}),
    "stability_factor_negative": ("kernel-scan", {"thresholds": {"stability_factor": -1}}),
}


def _step_text(radix, resolution, cells, first="[0.5, 0]"):
    """A step file's JSON text; cells pairs, the first of them first."""
    pairs = ", ".join([first] + ["[0.5, -1]"] * (cells - 1))
    return f'{{"radix": {radix}, "resolution": {resolution}, "cells": [{pairs}]}}'


# step files on the configs' [2, 2, 2] group with one field malformed, each cell count the
# one a reader that converted the field would expect
STEP_FILES = {
    "radix_string.json": _step_text('"222"', 3, 8),
    "radix_entry_float.json": _step_text("[2, 2, 2.7]", 3, 8),
    "resolution_float.json": _step_text("[2, 2, 2]", 2.9, 4),
    "resolution_bool.json": _step_text("[2, 2, 2]", "true", 2),
    "cell_overflows.json": _step_text("[2, 2, 2]", 3, 8, "[1e400, 0]"),
    "cell_bool.json": _step_text("[2, 2, 2]", 3, 8, "[true, 0]"),
}
MALFORMED.update({f"step_{name[:-5]}": ("converge", {"functions": [{"family": "file",
                                                                   "path": name}]})
                  for name in STEP_FILES})


def _run_cli(tmp_path, command, config: bytes):
    """Run the CLI on the config bytes in a fresh interpreter, in tmp_path."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config)
    (tmp_path / "not_json.txt").write_text("not json", encoding="utf-8")
    (tmp_path / "not_utf8.txt").write_bytes(b"\xff\xfe not utf-8")
    for name, text in STEP_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # no --out flag: it would override the file's out; output lands under tmp_path
    return subprocess.run(
        [sys.executable, "-m", "vilenkin.cli", command, "--config", str(cfg)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_2_without_traceback(tmp_path, name):
    command, body, *named = MALFORMED[name]
    config = json.dumps({"radix": {"constant": 2, "length": 3}, **body})
    proc = _run_cli(tmp_path, command, config.encode("utf-8"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr
    for key in named:
        assert repr(key) in proc.stderr
    # the parse runs before any work, so a bad config leaves no output behind
    assert not (tmp_path / "runs").exists()


# config files that the JSON harness above cannot write
UNREADABLE = {
    "not_utf8": b'{"seed": "\xff"}',
    "nested_too_deeply": b"[" * 200_000,
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_config_exits_2_without_traceback(tmp_path, name):
    proc = _run_cli(tmp_path, "verify", UNREADABLE[name])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr


_SCHEMA_WORDS = sorted({"constant", "length", "list", "pattern", "family", "decay", "coeffs",
                        "level", "coset", "bound", "path", "kind", "start", "stop", "values",
                        "stability_factor", "final_over_first", "trailing_points", "kinds",
                        "n", "sizes", "repeats", "lacunary", "inverse_scale", "file",
                        "digit_indicator", "random_lipschitz", "scales", "dense",
                        "scales_and_neighbors", "majorant", "coset_decay", "group", "block"})
_leaf = (st.none() | st.booleans() | st.integers(-3, 10) | st.floats()
         | st.text(max_size=5) | st.sampled_from(_SCHEMA_WORDS))
_value = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(_SCHEMA_WORDS) | st.text(max_size=3), inner, max_size=3), max_leaves=8)
_radix = st.sampled_from([[2, 2, 2], {"constant": 2, "length": 4}, {"list": [3, 2]},
                          {"pattern": [2, 3], "length": 3}]) | _value


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), radix=_radix,
       fragment=st.dictionaries(st.sampled_from(sorted(config.DEFAULTS)), _value, max_size=4))
def test_exit_code_contract(command, radix, fragment):
    # the fragment's own radix or bench, when it draws one, replaces the drawn radix or
    # the bench size under the cap: max_cells caps every group the config names
    body = {"radix": radix, "bench": {"sizes": [[2, 2]], "repeats": 1}, **fragment}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--config", path, "--out", os.path.join(tmp, "out"),
                           "--max-cells", "64"])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "configuration error" in err.getvalue() or "invalid parameter" in err.getvalue()
