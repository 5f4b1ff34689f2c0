"""Config parsing, commands, exit codes, output formats, determinism."""

import collections
import contextlib
import csv
import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lmce.cli
from lmce.cli import (
    ALL_CHECKS,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL_ERROR,
    EXIT_INVALID_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_PASS,
    RunConfig,
    cmd_report,
    cmd_solve,
    cmd_sweep,
    cmd_verify,
    main,
    read_field_csv,
    write_field_csv,
    write_pgm,
)
from lmce.errors import ConfigError
from lmce.geometry import GeometryBundle, bundle_from_hessian, laplace_beltrami
from lmce.grid import MAX_NODES, ScalarField2, build_grid, gradient_norm, hessian_fd, sample
from lmce.identities import CheckReport
from lmce.solver import (
    SolveState,
    anisotropic_family,
    manufacture,
    newton_solve,
    perturbed_family,
    phase_residual,
)
from test_geometry import whole_gradient_norm, whole_modified_slope

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """The benchmark's span module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _load_bench(monkeypatch):
    """The benchmark driver, loaded from its file; it imports spans by name."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", SPANS.parent / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


class TestConfig:
    def test_flat_and_json_equivalent(self, tmp_path):
        flat = tmp_path / "run.cfg"
        flat.write_text(
            "# comment\nfamily=perturbed\neps=0.05\nn=65\nchecks=complex_factorization,slope_volume\nseed=3\nheatmaps=true\n"
        )
        jsn = tmp_path / "run.json"
        jsn.write_text(
            json.dumps(
                {
                    "family": "perturbed",
                    "eps": 0.05,
                    "n": 65,
                    "checks": ["complex_factorization", "slope_volume"],
                    "seed": 3,
                    "heatmaps": True,
                }
            )
        )
        assert RunConfig.from_file(flat) == RunConfig.from_file(jsn)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("family=quadratic\nnot_a_key=1\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(p)

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(checks=["no_such_check"])

    def test_check_groups_expand(self):
        cfg = RunConfig(checks=["identity"])
        assert "complex_factorization" in cfg.checks
        assert "jacobi_pointwise" not in cfg.checks
        cfg = RunConfig(checks=["all"])
        assert "jacobi_pointwise" in cfg.checks

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(source="nowhere")
        with pytest.raises(ConfigError):
            RunConfig(family="cubic")
        with pytest.raises(ConfigError):
            RunConfig(A="fitt")
        with pytest.raises(ConfigError):
            RunConfig(delta=-0.1)

    @pytest.mark.parametrize(
        "override", [{"c": 2.0}, {"c": 0.0}, {"c": "half"}, {"A": -1.0}, {"A": None}]
    )
    def test_bad_slope_constants_rejected(self, override):
        # checks that never build the slope constants must not hide them
        with pytest.raises(ConfigError):
            RunConfig(**override, checks=["identity"])


class TestFieldFile:
    def test_roundtrip_exact(self, tmp_path):
        g = build_grid(2.0, 9)
        f = sample(lambda x1, x2: np.sin(x1) + 0.3 * x2, g)
        path = tmp_path / "field.csv"
        write_field_csv(path, f)
        back = read_field_csv(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_bytes_match_csv_writer(self, tmp_path):
        g = build_grid(2.0, 5)
        values = sample(lambda x1, x2: x1 + 2.0 * x2, g).values.copy()
        values[1, 1:] = [1e-5, -0.0, 1e300, 5e-324]
        f = ScalarField2(g, values)
        path = tmp_path / "field.csv"
        write_field_csv(path, f)
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:
            fh.write(f"# L={g.L!r} n={g.n}\n")
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "value"])
            for i in range(g.n):
                for j in range(g.n):
                    writer.writerow([i, j, repr(float(f.values[i, j]))])
        assert path.read_bytes() == oracle.read_bytes()
        back = read_field_csv(path)
        np.testing.assert_array_equal(back.values, f.values)
        assert np.signbit(back.values[1, 2])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,value\n0,0,1.0\n")
        with pytest.raises(ConfigError):
            read_field_csv(path)

    @pytest.mark.parametrize(
        "header, problem",
        [
            ("# L=4.0 n=3", f"grid needs 5 <= n <= {MAX_NODES} nodes per axis, got n=3"),
            ("# L=-1.0 n=33", "grid half-width must be positive, got L=-1.0"),
            ("# L=4.0 n=3.5", "invalid literal for int"),
        ],
    )
    def test_bad_header_exit_3_names_the_file(self, tmp_path, capsys, header, problem):
        path = tmp_path / "u.csv"
        path.write_text(f"{header}\ni,j,value\n")
        with pytest.raises(ConfigError, match=rf"field file {re.escape(str(path))} header: "):
            read_field_csv(path)
        p = tmp_path / "field.cfg"
        p.write_text(f"family=field\nfield_file={path}\nchecks=slope_volume\nout={tmp_path / 'o'}\n")
        assert main(["verify", "--config", str(p)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert f"lmce: invalid input: field file {path} header: {problem}" in err
        assert not (tmp_path / "o").exists()

    # n=33: line 1 is the header comment, line 2 the column header, and node
    # (32, 32) the last row, line 2 + 33*33
    LAST = 2 + 33 * 33

    @pytest.mark.parametrize(
        "last_row, extra, line, problem",
        [
            ("33,32,{v}", "", LAST, r"node \(33, 32\) is outside 0 <= i, j < 33"),
            ("-1,32,{v}", "", LAST, r"node \(-1, 32\) is outside 0 <= i, j < 33"),
            ("32,32,{v}", "0,0,123.0\n", LAST + 1, r"node \(0, 0\) appears twice"),
            ("32,32", "", LAST, "expected the 3 cells i,j,value, got 2"),
            ("32,32,{v},1.0", "", LAST, "expected the 3 cells i,j,value, got 4"),
            ("32,32,nan", "", LAST, "value 'nan' is not finite"),
            ("32,32,-inf", "", LAST, "value '-inf' is not finite"),
            ("32,32,abc", "", LAST, "could not convert string to float: 'abc'"),
            ("3x,32,{v}", "", LAST, "invalid literal for int"),
        ],
    )
    def test_bad_row_exit_3_names_its_line(self, tmp_path, capsys, last_row, extra, line, problem):
        path = tmp_path / "u.csv"
        write_field_csv(path, sample(lambda x1, x2: x1 * x2, build_grid(4.0, 33)))
        lines = path.read_text().splitlines(keepends=True)
        v = lines[-1].split(",")[2].strip()
        lines[-1] = last_row.format(v=v) + "\n" + extra
        path.write_text("".join(lines))
        where = rf"field file {re.escape(str(path))} line {line}: "
        with pytest.raises(ConfigError, match=where + problem):
            read_field_csv(path)
        p = tmp_path / "field.cfg"
        p.write_text(f"family=field\nfield_file={path}\nchecks=slope_volume\nout={tmp_path / 'o'}\n")
        assert main(["verify", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert f"lmce: invalid input: field file {path} line {line}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPgm:
    def test_header_and_range(self, tmp_path):
        path = tmp_path / "map.pgm"
        values = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        lo, hi = write_pgm(path, values)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")
        assert (lo, hi) == (0.0, 1.0)
        body = raw.split(b"255\n", 1)[1]
        assert len(body) == 64
        assert body[0] == 0 and body[-1] == 255


class TestVerifyCommand:
    def test_quadratic_identity_suite_passes(self, tmp_path):
        cfg = RunConfig(family="quadratic", a=1.0, n=65, checks=["identity"], out=str(tmp_path / "o"))
        report, code = cmd_verify(cfg)
        assert code == EXIT_PASS
        assert len(report.entries) == len(cfg.checks)
        assert (tmp_path / "o" / "verify.csv").exists()
        assert (tmp_path / "o" / "verify.json").exists()

    def test_each_check_appears_once(self, tmp_path):
        cfg = RunConfig(
            family="quadratic", a=1.0, n=65,
            checks=["identity", "complex_factorization"], out=str(tmp_path / "o"),
        )
        report, _ = cmd_verify(cfg)
        names = [e["check"] for e in report.entries]
        assert len(names) == len(set(names))

    def test_budget_failure_exit_code(self, tmp_path):
        cfg = RunConfig(
            family="quadratic", a=1.0, n=65, checks=["hessian_estimate"],
            Cstar_budget=0.01, out=str(tmp_path / "o"),
        )
        _, code = cmd_verify(cfg)
        assert code == EXIT_CHECK_FAILED

    def test_precondition_reported_as_failure(self, tmp_path):
        # volume_formula needs phase in (0, pi) or in (-pi, 0); this
        # anisotropic family has phase 0
        cfg = RunConfig(
            family="quadratic", a=1.0, n=65, checks=["volume_formula"],
            out=str(tmp_path / "o"),
        )
        report, code = cmd_verify(cfg)
        assert code == EXIT_PASS
        cfg2 = RunConfig(
            family="anisotropic", theta1=math.pi / 3, theta2=-math.pi / 3,
            n=65, checks=["volume_formula"], out=str(tmp_path / "o2"),
        )
        report, code = cmd_verify(cfg2)
        assert code == EXIT_CHECK_FAILED
        assert report.entries[0]["status"] == "precondition_failed"

    @pytest.mark.parametrize("check", ["cutoff_volume", "jacobi_integral"])
    def test_grid_without_the_cutoff_support(self, tmp_path, check):
        # the fixed cutoff is supported on B_3, outside [-2.5, 2.5]^2
        cfg = RunConfig(family="quadratic", a=1.0, L=2.5, n=65, checks=[check], out=str(tmp_path))
        report, code = cmd_verify(cfg)
        assert code == EXIT_CHECK_FAILED
        (entry,) = report.entries
        assert entry["status"] == "precondition_failed"
        assert "disk of radius 3.0" in entry["details"]["error"]

    def test_hessian_only_bundle_fails_its_precondition(self, tmp_path, monkeypatch):
        # a bundle built from the Hessian alone carries no |Du|, which both
        # checks read
        monkeypatch.setattr(lmce.cli, "make_bundle", lambda u: bundle_from_hessian(u.grid, hessian_fd(u)))
        p = tmp_path / "v.cfg"
        checks = "volume_bound,hessian_estimate"
        p.write_text(f"family=quadratic\nn=65\nchecks={checks}\nout={tmp_path}\n")
        assert main(["verify", "--config", str(p)]) == EXIT_CHECK_FAILED
        entries = json.loads((tmp_path / "verify.json").read_text())["entries"]
        assert [e["check"] for e in entries] == ["volume_bound", "hessian_estimate"]
        for entry in entries:
            assert entry["status"] == "precondition_failed"
            assert "built from a potential" in entry["details"]["error"]

    def test_even_n_fails_the_hessian_estimate_precondition(self, tmp_path):
        # the origin is no node of an even grid; the run keeps every other
        # entry and writes its outputs
        p = tmp_path / "v.cfg"
        p.write_text(f"family=perturbed\nn=64\nchecks=all\nout={tmp_path}\n")
        assert main(["verify", "--config", str(p)]) == EXIT_CHECK_FAILED
        entries = json.loads((tmp_path / "verify.json").read_text())["entries"]
        status = {e["check"]: e["status"] for e in entries}
        assert list(status) == ALL_CHECKS
        assert status.pop("hessian_estimate") == "precondition_failed"
        assert set(status.values()) == {"ran"}
        assert "odd n, got n=64" in entries[-1]["details"]["error"]
        rows = list(csv.DictReader((tmp_path / "verify.csv").read_text().splitlines()))
        assert rows[-1]["status"] == "precondition_failed"

    def test_negated_family_same_volume_residual(self, tmp_path):
        entries = []
        for sign in (1.0, -1.0):
            cfg = RunConfig(
                family="anisotropic", theta1=0.4 * sign, theta2=1.0 * sign, n=65,
                checks=["volume_formula"], out=str(tmp_path / str(sign)),
            )
            report, code = cmd_verify(cfg)
            assert code == EXIT_PASS
            entries.append(report.entries[0])
        pos, neg = entries
        assert neg["residual"] == pos["residual"]
        assert neg["tolerance"] == pos["tolerance"]

    def test_deterministic_csv(self, tmp_path):
        k = dict(family="perturbed", eps=0.1, n=65, checks=["identity"], seed=11)
        cmd_verify(RunConfig(**k, out=str(tmp_path / "a")))
        cmd_verify(RunConfig(**k, out=str(tmp_path / "b")))
        a = (tmp_path / "a" / "verify.csv").read_bytes()
        b = (tmp_path / "b" / "verify.csv").read_bytes()
        assert a == b

    def test_solved_source(self, tmp_path):
        cfg = RunConfig(
            family="perturbed", eps=0.1, n=65, source="solved",
            checks=["complex_factorization", "form_equivalence"], out=str(tmp_path / "o"),
        )
        report, code = cmd_verify(cfg)
        assert code == EXIT_PASS
        assert report.solver["converged"]

    def test_field_file_source(self, tmp_path):
        g = build_grid(4.0, 65)
        f = sample(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), g)
        path = tmp_path / "u.csv"
        write_field_csv(path, f)
        cfg = RunConfig(
            family="field", field_file=str(path), n=65,
            checks=["complex_factorization", "slope_volume"], out=str(tmp_path / "o"),
        )
        _, code = cmd_verify(cfg)
        assert code == EXIT_PASS

    def test_family_and_field_file_agree(self, tmp_path):
        # one negative-phase potential, verified from its family and from its
        # own field file: the same regime and the same verdict for every check
        family = dict(family="anisotropic", theta1=-0.4, theta2=-1.0, n=65, checks=["all"], seed=3)
        path = tmp_path / "u.csv"
        problem = manufacture(anisotropic_family(-0.4, -1.0), build_grid(4.0, 65))
        write_field_csv(path, problem.u_exact)
        field = {**family, "family": "field", "field_file": str(path)}
        runs = []
        for k, config in enumerate((family, field)):
            report, code = cmd_verify(RunConfig(**config, out=str(tmp_path / str(k))))
            regime = json.loads((tmp_path / str(k) / "verify.json").read_text())["regime"]
            runs.append((regime, code, {e["check"]: e["passed"] for e in report.entries}))
        assert runs[0] == runs[1]
        assert runs[0][0] == "case1"
        assert runs[0][2]["volume_bound"]

    def test_coarse_field_file_exit_3(self, tmp_path):
        path = tmp_path / "u.csv"
        write_field_csv(path, sample(lambda x1, x2: x1 * x2, build_grid(4.0, 33)))
        p = tmp_path / "field.cfg"
        p.write_text(f"family=field\nfield_file={path}\nchecks=super_iso\nout={tmp_path / 'o'}\n")
        assert main(["verify", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()


class TestSolveCommand:
    def test_perturbed_solve(self, tmp_path):
        cfg = RunConfig(family="perturbed", eps=0.1, n=65, out=str(tmp_path / "o"), heatmaps=True)
        report, code = cmd_solve(cfg)
        assert code == EXIT_PASS
        assert report.solver["converged"]
        out = tmp_path / "o"
        assert (out / "solve.csv").exists()
        assert (out / "u.csv").exists()
        assert (out / "u.pgm").exists()
        summary = json.loads((out / "solve.json").read_text())
        assert summary["solver"]["certified_residual"] <= 2e-10
        assert "min" in summary["heatmaps"]["u"]

    def test_per_step_records(self, tmp_path):
        # solve.json and a solved verify.json list one record per Newton system
        base = dict(family="perturbed", eps=0.1, n=65)
        cmd_solve(RunConfig(**base, out=str(tmp_path / "s")))
        checks = ["volume_formula"]
        cmd_verify(RunConfig(**base, source="solved", checks=checks, out=str(tmp_path / "v")))
        solved = json.loads((tmp_path / "s" / "solve.json").read_text())["solver"]
        verified = json.loads((tmp_path / "v" / "verify.json").read_text())["solver"]
        assert solved["systems"] == verified["systems"]
        systems = solved["systems"]
        assert len(systems) == solved["iterations"]
        assert all(set(rec) == {"krylov_iterations", "rtol"} for rec in systems)
        assert sum(rec["krylov_iterations"] for rec in systems) == solved["krylov_iterations"]
        assert systems[0]["rtol"] == 0.1
        assert all(a["rtol"] > b["rtol"] for a, b in zip(systems, systems[1:]))

    def test_entries_are_their_reports_own_fields(self, tmp_path):
        # an identity, an inequality, a precondition_failed entry and
        # residual_certification: each entry is its CheckReport's non-None fields
        checks = ["complex_factorization", "volume_bound"]
        ran, _ = cmd_verify(RunConfig(family="quadratic", n=33, checks=checks, out=str(tmp_path / "a")))
        failed, _ = cmd_verify(RunConfig(
            family="anisotropic", theta1=math.pi / 3, theta2=-math.pi / 3,
            n=33, checks=["volume_formula"], out=str(tmp_path / "b"),
        ))
        solved, _ = cmd_solve(RunConfig(family="perturbed", eps=0.1, n=33, out=str(tmp_path / "c")))
        entries = ran.entries + failed.entries + solved.entries
        assert [e["kind"] for e in entries] == [
            "identity/algebraic", "inequality", "precondition", "solver"
        ]
        for entry in entries:
            report = CheckReport(**entry)
            own = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
            assert entry == {k: v for k, v in own.items() if v is not None}

    def test_solver_summary_is_the_solve_state(self, tmp_path):
        # every SolveState field but u, and the two totals; solve adds its
        # certificate and the error against the exact solution
        base = dict(family="perturbed", eps=0.1, n=33)
        cmd_solve(RunConfig(**base, out=str(tmp_path / "s")))
        cmd_verify(RunConfig(**base, source="solved", checks=["volume_formula"], out=str(tmp_path / "v")))
        solved = json.loads((tmp_path / "s" / "solve.json").read_text())["solver"]
        verified = json.loads((tmp_path / "v" / "verify.json").read_text())["solver"]
        own = {f.name for f in dataclasses.fields(SolveState)} - {"u"}
        assert set(verified) == own | {"final_residual", "krylov_iterations"}
        assert set(solved) == set(verified) | {"certified_residual", "error_vs_exact"}
        assert solved["residual_floor"] == verified["residual_floor"] > 0.0

    def test_nonconvergence_exit_code(self, tmp_path):
        from lmce.cli import EXIT_NO_CONVERGENCE

        cfg = RunConfig(family="perturbed", eps=0.1, n=65, max_iter=0, out=str(tmp_path / "o"))
        _, code = cmd_solve(cfg)
        assert code == EXIT_NO_CONVERGENCE


def _sweep_table(out: Path) -> list[dict]:
    with open(out / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweepCommand:
    def test_hessian_sweep_columns(self, tmp_path):
        cfg = RunConfig(
            family="quadratic", n=65, sweep_param="a", sweep_values=[1.0, 2.0, 4.0, 8.0],
            checks=["hessian_estimate"], out=str(tmp_path / "o"),
        )
        _, code = cmd_sweep(cfg)
        assert code == EXIT_PASS
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "a,h,regime,hessian_estimate.passed,hessian_estimate.margin,"
            "hessian_estimate.C_star,hessian_estimate.hess_origin,hessian_estimate.growth"
        )
        assert len(lines) == 5
        assert lines[1].startswith("1.0,0.125,case1,")
        assert lines[3].startswith("4.0,0.125,case2,")

    def test_grid_sweep(self, tmp_path):
        cfg = RunConfig(
            family="perturbed", eps=0.1, sweep_param="n", sweep_values=[33, 65],
            checks=["jacobi_pointwise", "form_equivalence"], out=str(tmp_path / "o"),
        )
        _, code = cmd_sweep(cfg)
        assert code == EXIT_PASS
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "n,h,regime,jacobi_pointwise.passed,jacobi_pointwise.margin,"
            "jacobi_pointwise.C_hat,jacobi_pointwise.c,jacobi_pointwise.min_defect,"
            "form_equivalence.passed,form_equivalence.residual"
        )
        assert [line.split(",")[:2] for line in lines[1:]] == [["33", "0.25"], ["65", "0.125"]]

    def test_field_sweep_reads_the_file_once(self, tmp_path, monkeypatch):
        # every swept value reads the one field read up front, and the rows
        # are those of the same sweep over the family the field samples
        path = tmp_path / "u.csv"
        write_field_csv(path, manufacture(perturbed_family(0.1), build_grid(4.0, 65)).u_exact)
        reads = []
        read = lmce.cli.read_field_csv
        monkeypatch.setattr(lmce.cli, "read_field_csv", lambda p: reads.append(p) or read(p))
        common = dict(
            n=65, sweep_param="c", sweep_values=[0.25, 0.5, 1.0],
            checks=["jacobi_pointwise", "subharmonic", "volume_bound"],
        )
        field = dict(family="field", field_file=str(path))
        cmd_sweep(RunConfig(**field, out=str(tmp_path / "f"), **common))
        assert reads == [str(path)]
        cmd_sweep(RunConfig(family="perturbed", eps=0.1, out=str(tmp_path / "p"), **common))
        swept = [(tmp_path / out / "sweep.csv").read_bytes() for out in ("f", "p")]
        assert swept[0] == swept[1]
        assert len(swept[0].splitlines()) == 4

    def test_sweep_needs_values(self, tmp_path):
        cfg = RunConfig(family="quadratic", sweep_param="a", out=str(tmp_path / "o"))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg)

    def test_key_without_a_branch(self, tmp_path):
        # any numeric key sweeps; a value takes its field's type, so the
        # integers given for the float c print as floats
        cfg = RunConfig(
            family="perturbed", eps=0.1, n=33, sweep_param="c", sweep_values=[1, 0.25],
            checks=["jacobi_pointwise"], out=str(tmp_path / "o"),
        )
        _, code = cmd_sweep(cfg)
        assert code == EXIT_PASS
        rows = _sweep_table(tmp_path / "o")
        assert [r["c"] for r in rows] == ["1.0", "0.25"]
        assert [r["jacobi_pointwise.c"] for r in rows] == ["1.0", "0.25"]
        assert rows[0]["jacobi_pointwise.C_hat"] != rows[1]["jacobi_pointwise.C_hat"]

    def test_one_value_sweep(self, tmp_path):
        base = "family=perturbed\nn=17\nchecks=slope_volume\nsweep_param=eps\n"
        for name, values in (("one", "0.1"), ("two", "0.1,0.2")):
            p = tmp_path / f"{name}.cfg"
            p.write_text(base + f"sweep_values={values}\nout={tmp_path / name}\n")
            assert main(["sweep", "--config", str(p)]) == EXIT_PASS
        one, two = _sweep_table(tmp_path / "one"), _sweep_table(tmp_path / "two")
        assert len(one) == 1
        assert one[0] == two[0]

    @pytest.mark.parametrize(
        "lines",
        [
            "sweep_param=out\nsweep_values=1,2\n",
            "sweep_param=bogus\nsweep_values=1,2\n",
            "sweep_param=heatmaps\nsweep_values=1,2\n",
            "sweep_param=n\nsweep_values=17,33.5\n",
        ],
    )
    def test_bad_sweep_exit_3(self, tmp_path, lines):
        p = tmp_path / "sweep.cfg"
        p.write_text(f"family=perturbed\nchecks=slope_volume\nout={tmp_path / 'o'}\n" + lines)
        assert main(["sweep", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()

    def test_coarse_value_rejected_before_any_run(self, tmp_path, monkeypatch):
        def no_run(cfg):
            raise AssertionError("a swept value ran")

        monkeypatch.setattr(lmce.cli, "_Context", no_run)
        p = tmp_path / "sweep.cfg"
        p.write_text(
            "family=perturbed\nchecks=super_iso\nsweep_param=n\nsweep_values=65,33\n"
            f"out={tmp_path / 'o'}\n"
        )
        assert main(["sweep", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()

    def test_field_value_rejected_before_any_run(self, tmp_path, monkeypatch):
        def no_run(cfg):
            raise AssertionError("a swept value ran")

        monkeypatch.setattr(lmce.cli, "_Context", no_run)
        path = tmp_path / "u.csv"
        write_field_csv(path, sample(lambda x1, x2: x1 * x1 + x2 * x2, build_grid(4.0, 65)))
        p = tmp_path / "sweep.cfg"
        p.write_text(
            f"family=field\nfield_file={path}\nchecks=subharmonic\nsweep_param=rho\n"
            f"sweep_values=2,5\nout={tmp_path / 'o'}\n"
        )
        assert main(["sweep", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()

    def test_solved_sweep_nonconvergence_exit_2(self, tmp_path):
        p = tmp_path / "sweep.cfg"
        p.write_text(
            "family=perturbed\nsource=solved\nmax_iter=0\nchecks=slope_volume\n"
            f"sweep_param=n\nsweep_values=17,33\nout={tmp_path / 'o'}\n"
        )
        assert main(["sweep", "--config", str(p)]) == EXIT_NO_CONVERGENCE


class TestConvergenceSweep:
    """A solved sweep over n is the convergence study: sup errors against the
    exact solution and observed orders between successive grids."""

    def _run(self, tmp_path, values, **family):
        cfg = RunConfig(
            **family, source="solved", sweep_param="n", sweep_values=values,
            checks=["slope_volume"], out=str(tmp_path / "o"),
        )
        _, code = cmd_sweep(cfg)
        assert code == EXIT_PASS
        return _sweep_table(tmp_path / "o")

    def test_quadratic_roundoff_orders_blank(self, tmp_path):
        rows = self._run(tmp_path, [17, 33, 65], family="quadratic", a=1.0)
        assert all(float(r["err_u"]) <= 1e-10 for r in rows)
        assert all(r[f"order_{k}"] == "" for r in rows for k in ("u", "grad", "hess"))

    def test_perturbed_orders(self, tmp_path):
        first, *rest = self._run(tmp_path, [33, 65, 129], family="perturbed", eps=0.1)
        assert first["order_u"] == "" and int(first["iterations"]) >= 1
        for r in rest:
            assert 1.8 <= float(r["order_u"]) <= 2.2
            assert float(r["order_hess"]) >= 1.5

    def test_error_matches_solve(self, tmp_path):
        rows = self._run(tmp_path, [33, 65], family="perturbed", eps=0.1)
        report, _ = cmd_solve(
            RunConfig(family="perturbed", eps=0.1, n=65, out=str(tmp_path / "s"))
        )
        assert rows[-1]["err_u"] == repr(report.solver["error_vs_exact"])


class TestReportCommand:
    def test_merges_tables(self, tmp_path):
        cfg1 = RunConfig(family="quadratic", a=1.0, n=65, checks=["slope_volume"], out=str(tmp_path / "r1"))
        cmd_verify(cfg1)
        cfg2 = RunConfig(
            family="quadratic", n=65, sweep_param="a", sweep_values=[1.0],
            out=str(tmp_path / "r2"),
        )
        cmd_sweep(cfg2)
        cfg = RunConfig(input=str(tmp_path), out=str(tmp_path / "merged"))
        _, code = cmd_report(cfg)
        assert code == EXIT_PASS
        merged = (tmp_path / "merged" / "merged.csv").read_text().splitlines()
        assert merged[0].startswith("source,")
        assert any("slope_volume" in line for line in merged)
        assert any("sweep.csv" in line for line in merged)

    def test_missing_dir_rejected(self, tmp_path):
        cfg = RunConfig(input=str(tmp_path / "nope"), out=str(tmp_path / "m"))
        with pytest.raises(ConfigError):
            cmd_report(cfg)


class TestMainExitCodes:
    def test_invalid_grid_exit_3(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("family=quadratic\nn=3\n")
        assert main(["solve", "--config", str(p)]) == EXIT_INVALID_INPUT

    def test_unknown_key_exit_3(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("whatever=1\n")
        assert main(["verify", "--config", str(p)]) == EXIT_INVALID_INPUT

    def test_verify_pass_exit_0(self, tmp_path, capsys):
        p = tmp_path / "ok.cfg"
        p.write_text(f"family=quadratic\na=1\nn=65\nchecks=identity\nout={tmp_path / 'o'}\n")
        assert main(["verify", "--config", str(p)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "PASS complex_factorization" in out

    def test_out_and_seed_overrides(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("family=quadratic\na=1\nn=65\nchecks=slope_volume\n")
        code = main(["verify", "--config", str(p), "--out", str(tmp_path / "ov"), "--seed", "42"])
        assert code == EXIT_PASS
        data = json.loads((tmp_path / "ov" / "verify.json").read_text())
        assert data["config"]["seed"] == 42

    @pytest.mark.parametrize("verbose", [False, True])
    def test_internal_fault_exit_4(self, tmp_path, monkeypatch, capsys, verbose):
        # a ValueError raised after the config is loaded is a fault, not bad input
        for fault in (ZeroDivisionError, ValueError):

            def broken(B):
                raise fault("injected fault")

            monkeypatch.setattr(lmce.cli, "check_slope_volume", broken)
            p = tmp_path / "ok.cfg"
            p.write_text(f"family=quadratic\na=1\nn=17\nchecks=slope_volume\nout={tmp_path / 'o'}\n")
            argv = ["verify", "--config", str(p)] + (["-v"] if verbose else [])
            assert main(argv) == EXIT_INTERNAL_ERROR
            err = capsys.readouterr().err
            assert err.endswith(f"lmce: internal error: {fault.__name__}: injected fault\n")
            if verbose:
                assert err.startswith("Traceback (most recent call last):")
                assert "in broken" in err
            else:
                assert err.count("\n") == 1

    def test_runs_as_a_module(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("family=quadratic\na=1\nn=17\nchecks=slope_volume\n")
        # the directory holding the lmce package, as in a checkout
        env = dict(os.environ, PYTHONPATH=str(Path(lmce.cli.__file__).resolve().parents[1]))
        argv = ["verify", "--config", str(p), "--out", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, "-m", "lmce", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert proc.stdout == "PASS slope_volume\n"
        assert (tmp_path / "o" / "verify.csv").is_file()


class TestStrictConfig:
    BASE = {"family": "perturbed", "n": 65, "checks": ["weak_max_principle", "super_iso"]}

    def test_base_is_valid(self):
        RunConfig(**self.BASE)

    @pytest.mark.parametrize(
        "command,override",
        [
            ("verify", {"n": 33.7}),
            ("verify", {"n": 33.0}),
            ("verify", {"trials": 0}),
            ("verify", {"trials": -5}),
            ("verify", {"R": -1.0}),
            ("verify", {"rho": 0}),
            ("solve", {"tol": -1}),
            ("solve", {"max_iter": -2}),
            ("verify", {"c": 2.0, "checks": ["identity"]}),
            ("verify", {"A": -1.0, "checks": ["slope_volume"]}),
            ("verify", {"c": 2.0, "checks": ["jacobi_pointwise"]}),
            # the family and budget keys are numbers, the budgets non-negative
            ("verify", {"theta1": "abc", "family": "anisotropic"}),
            ("verify", {"theta2": True, "family": "anisotropic"}),
            ("solve", {"a": "abc", "family": "quadratic"}),
            ("solve", {"eps": "abc"}),
            ("verify", {"C_budget": "abc"}),
            ("verify", {"C_budget": -1.0}),
            ("verify", {"Cstar_budget": "abc"}),
            ("verify", {"Cstar_budget": -1.0}),
        ],
    )
    def test_bad_config_exit_3(self, tmp_path, command, override):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**self.BASE, **override, "out": str(tmp_path / "o")}))
        assert main([command, "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["a", "eps", "theta1", "theta2", "C_budget", "Cstar_budget"])
    def test_bad_number_named_at_load(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be a"):
            RunConfig(**self.BASE, **{key: "abc"})

    @pytest.mark.parametrize(
        "command,key,lines",
        [
            ("verify", "checks", ["checks="]),
            ("verify", "out", ["out="]),
            ("verify", "heatmaps", ["heatmaps=abc"]),
            ("verify", "seed", ["seed=-1"]),
            ("sweep", "sweep_values", ["sweep_param=n", "sweep_values=abc"]),
        ],
    )
    def test_bad_flat_value_named_at_load(self, tmp_path, command, key, lines):
        # a later line overrides the base; each is refused before any work
        base = ["family=perturbed", "n=65", "checks=weak_max_principle", f"out={tmp_path / 'o'}"]
        p = tmp_path / "bad.cfg"
        p.write_text("\n".join(base + lines) + "\n")
        with pytest.raises(ConfigError, match=f"^{key}[ :]"):
            RunConfig.from_file(p)
        assert main([command, "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, key", [(["--seed", "-1"], "seed"), (["--out", ""], "out")]
    )
    def test_bad_override_named_at_load(self, tmp_path, monkeypatch, capsys, flags, key):
        # the command-line overrides are checked as the file's keys are,
        # before any work; an empty --out would write into the working directory
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "s.cfg"
        p.write_text(f"family=perturbed\nn=65\nchecks=weak_max_principle\nout={tmp_path / 'o'}\n")
        assert main(["verify", "--config", str(p), *flags]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"lmce: invalid input: {key} must be")
        assert sorted(os.listdir(tmp_path)) == ["s.cfg"]

    def test_budget_may_be_none_or_zero(self):
        RunConfig(**self.BASE, C_budget=None, Cstar_budget=0.0)
        RunConfig(**self.BASE, C_budget=0, Cstar_budget=math.inf)

    @pytest.mark.parametrize(
        "override",
        [
            {"n": 33},
            {"n": 33, "checks": ["subharmonic"]},
            {"L": 1.5},
            # subharmonic samples the disk of radius min(rho, 2)
            {"rho": 0.5, "checks": ["subharmonic"]},
        ],
    )
    def test_grid_too_coarse_for_the_sampler_exit_3(self, tmp_path, override):
        p = tmp_path / "coarse.json"
        p.write_text(json.dumps({**self.BASE, **override, "out": str(tmp_path / "o")}))
        assert main(["verify", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "checks, A",
        [
            (["weak_max_principle"], 1.0),
            (["super_iso"], 1.0),
            (["subharmonic"], 1.0),
            # the jacobi checks read no rho, but a sampled check beside them does
            (["jacobi_pointwise", "subharmonic"], "fit"),
            (["jacobi_integral", "super_iso"], "fit"),
        ],
    )
    def test_rho_beyond_the_grid_rejected_at_load(self, tmp_path, monkeypatch, capsys, checks, A):
        # verify and sweep load the grid rule before any set-up work or output
        def no_set_up(*args):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(lmce.cli, "manufacture", no_set_up)
        cfg = {**self.BASE, "rho": 5.0, "checks": checks, "A": A, "out": str(tmp_path / "o")}
        sweep = {"sweep_param": "eps", "sweep_values": [0.1]}
        for command, extra in (("verify", {}), ("sweep", sweep)):
            p = tmp_path / f"{command}.json"
            p.write_text(json.dumps({**cfg, **extra}))
            assert main([command, "--config", str(p)]) == EXIT_INVALID_INPUT
            assert "rho=5.0 exceeds the grid half-width L=4.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rho_beyond_the_grid_unread(self, tmp_path):
        # no check but the sampled ones reads rho, nor the fit of A
        jacobi = ["jacobi_pointwise", "jacobi_integral"]
        for checks, A in ((jacobi, 1.0), (jacobi, "fit"), (["identity", "volume_bound"], "fit")):
            cfg = {**self.BASE, "rho": 5.0, "checks": checks, "A": A, "out": str(tmp_path / "v")}
            cfg = RunConfig(**cfg)
            assert cmd_verify(cfg)[1] == EXIT_PASS
            swept = dataclasses.replace(cfg, sweep_param="eps", sweep_values=[0.1])
            assert cmd_sweep(swept)[1] == EXIT_PASS
        # a field file's grid is known only once it is read
        path = tmp_path / "u.csv"
        write_field_csv(path, sample(lambda x1, x2: x1 * x1 + x2 * x2, build_grid(4.0, 65)))
        cfg = RunConfig(family="field", field_file=str(path), rho=5.0, checks=["subharmonic"])
        with pytest.raises(ConfigError, match=r"rho=5\.0 exceeds"):
            cmd_verify(cfg)

    def test_coarse_grid_without_sampled_checks(self, tmp_path):
        coarse = {"n": 33, "checks": ["jacobi_pointwise"]}
        for override in (coarse, {"rho": 0.5, "checks": ["weak_max_principle"]}):
            cfg = RunConfig(**{**self.BASE, **override, "out": str(tmp_path / "v")})
            assert cmd_verify(cfg)[1] == EXIT_PASS

    def test_solve_runs_no_check(self, tmp_path):
        # the grid rule of the sampled checks is not the solve's: n=33 is too
        # coarse for them, and the configured checks do not run
        p = tmp_path / "solve.cfg"
        p.write_text(f"family=perturbed\nn=33\nchecks=all\nrho=5\nout={tmp_path / 'o'}\n")
        assert main(["solve", "--config", str(p)]) == EXIT_PASS
        assert (tmp_path / "o" / "solve.json").exists()


class TestNonConvergence:
    def _config(self, tmp_path):
        p = tmp_path / "solved.cfg"
        p.write_text(
            "family=perturbed\neps=0.1\nn=33\nsource=solved\nmax_iter=0\n"
            f"checks=slope_volume\nout={tmp_path / 'o'}\n"
        )
        return p

    def test_solved_verify_nonconvergence_exit_2(self, tmp_path):
        assert main(["verify", "--config", str(self._config(tmp_path))]) == EXIT_NO_CONVERGENCE

    def test_other_runtime_error_not_exit_2(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(lmce.cli, "newton_solve", broken)
        code = main(["verify", "--config", str(self._config(tmp_path))])
        assert code == EXIT_INTERNAL_ERROR
        assert capsys.readouterr().err == "lmce: internal error: RuntimeError: internal fault\n"


# one value of each kind, and the kind each annotated config type takes (A
# also takes "fit", checks a name or a list of names, sweep_values a list)
_KINDS = {"list": [[1.0]], "dict": {"k": 1.0}, "bool": True, "number": 7, "string": "abc"}
_TAKES = {
    "int": "number", "float": "number", "float | None": "number", "float | str": "number",
    "list[float]": "number", "str": "string", "list[str]": "string", "bool": "bool",
}


class TestFrontDoor:
    """Exit 3 is a ConfigError raised where the input is read (or an input
    file that cannot be read or is not text); any other exception after
    that, a ValueError included, is exit 4."""

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param(f.name, value, id=f"{f.name}-{kind}")
            for f in dataclasses.fields(RunConfig)
            for kind, value in _KINDS.items()
            if kind != _TAKES[f.type]
        ],
    )
    def test_wrong_kind_named_at_load(self, tmp_path, key, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            RunConfig.from_file(p)

    @pytest.mark.parametrize(
        "command, key, line",
        [
            # a number for a path opened a file descriptor
            ("verify", "field_file", "family=field\nfield_file=7"),
            ("verify", "field_file", "family=field\nfield_file=a.csv,b.csv"),
            ("report", "input", "input=5"),
            ("sweep", "sweep_param", "family=perturbed\nsweep_param=n,a\nsweep_values=17,33"),
            ("solve", "n", "n=3"),
            ("solve", "L", "L=inf"),
            # tol=inf certified a solve of 0 Newton steps; the others failed
            # inside the checks
            ("solve", "tol", "family=perturbed\nn=33\ntol=inf"),
            ("verify", "delta", "family=perturbed\nn=65\nchecks=volume_bound\ndelta=inf"),
            ("verify", "R", "family=perturbed\nn=65\nchecks=hessian_estimate\nR=inf"),
            ("verify", "rho", "family=perturbed\nn=65\nchecks=subharmonic\nrho=inf"),
            # each fails only after load otherwise: a non-finite field, a math
            # domain error, or 4/c^2 dividing by zero
            ("verify", "a", "a=inf"),
            ("verify", "eps", "family=perturbed\neps=inf"),
            ("verify", "theta1", "family=anisotropic\ntheta1=inf"),
            ("verify", "theta2", "family=anisotropic\ntheta2=-inf"),
            ("verify", "A", "family=perturbed\nn=65\nchecks=subharmonic\nA=inf"),
            ("verify", "c", "family=perturbed\nn=65\nchecks=jacobi_integral\nc=1e-320"),
        ],
        ids=[
            "field_file-fd", "field_file-list", "input", "sweep_param", "n", "L",
            "tol-inf", "delta-inf", "R-inf", "rho-inf",
            "a-inf", "eps-inf", "theta1-inf", "theta2-inf", "A-inf", "c-square-zero",
        ],
    )
    def test_bad_key_exit_3_names_it(self, tmp_path, capsys, command, key, line):
        p = tmp_path / "bad.cfg"
        p.write_text(f"n=17\nchecks=slope_volume\nout={tmp_path / 'o'}\n{line}\n")
        assert main([command, "--config", str(p)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"lmce: invalid input: {key} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key", ["L", "delta", "c", "R", "rho", "tol", "a", "Cstar_budget", "A", "sweep_values"]
    )
    def test_overflowing_integer_exit_3_names_it(self, tmp_path, capsys, key):
        # float() of an integer beyond the float range raises OverflowError
        p = tmp_path / "big.cfg"
        p.write_text(
            f"family=perturbed\nn=17\nchecks=slope_volume\nout={tmp_path / 'o'}\n{key}={'9' * 401}\n"
        )
        assert main(["verify", "--config", str(p)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"lmce: invalid input: {key} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, line, problem",
        [
            ("verify", f"n={'9' * 401}", f"n must be at most {MAX_NODES}, got {'9' * 401}"),
            ("verify", f"n={MAX_NODES + 1}", f"n must be at most {MAX_NODES}, got {MAX_NODES + 1}"),
            (
                "sweep",
                f"sweep_param=n\nsweep_values=17,{MAX_NODES + 1}",
                f"n must be at most {MAX_NODES}, got {MAX_NODES + 1}",
            ),
            (
                "verify",
                "family=field\nfield_file={header}",
                f"field file {{header}} header: grid needs 5 <= n <= {MAX_NODES} nodes per axis, "
                f"got n={MAX_NODES + 1}",
            ),
        ],
        ids=["401-digits", "above-the-bound", "swept", "field-file-header"],
    )
    def test_n_above_the_finest_grid_exit_3(self, tmp_path, capsys, command, line, problem):
        # rejected where it is read, before any array of the grid exists
        header = tmp_path / "u.csv"
        header.write_text(f"# L=4.0 n={MAX_NODES + 1}\ni,j,value\n")
        p = tmp_path / "big.cfg"
        p.write_text(
            f"family=perturbed\nn=17\nchecks=slope_volume\nout={tmp_path / 'o'}\n"
            + line.format(header=header) + "\n"
        )
        tracemalloc.start()
        try:
            code = main([command, "--config", str(p)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"lmce: invalid input: {problem.format(header=header)}\n"
        assert peak < 2**20  # one array of the grid asked for is 134 MB
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, key, line",
        [
            ("verify", "source", "source=solved"),
            # the file's header fixes the grid of every swept value
            ("sweep", "sweep_param", "sweep_param=n\nsweep_values=17,65"),
        ],
        ids=["solved", "swept-n"],
    )
    def test_key_a_field_file_ignores_exit_3(self, tmp_path, capsys, command, key, line):
        path = tmp_path / "u.csv"
        write_field_csv(path, sample(lambda x1, x2: x1 * x1 + x2 * x2, build_grid(4.0, 33)))
        p = tmp_path / "field.cfg"
        p.write_text(
            f"family=field\nfield_file={path}\nchecks=slope_volume\nout={tmp_path / 'o'}\n{line}\n"
        )
        assert main([command, "--config", str(p)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"lmce: invalid input: {key} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--config", "run.cfg", "--seed", "abc"],
            ["verify"],
            ["frobnicate", "--config", "run.cfg"],
            [],
        ],
        ids=["bad-seed", "no-config", "unknown-command", "no-command"],
    )
    def test_usage_error_exit_3(self, capsys, argv):
        # exit 2 is non-convergence only; main returns rather than exiting
        assert main(argv) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: lmce")
        assert err.count("\nlmce: invalid input: ") == 1

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-h"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["config", "field file"])
    def test_input_not_text_exit_3(self, tmp_path, name):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00\x81 not text\n")
        p = tmp_path / "run.cfg"
        p.write_text(f"family=field\nfield_file={binary}\nchecks=slope_volume\nout={tmp_path / 'o'}\n")
        config = binary if name == "config" else p
        assert main(["verify", "--config", str(config)]) == EXIT_INVALID_INPUT

    def test_overflowing_field_exit_4(self, tmp_path, capsys):
        p = tmp_path / "big.cfg"
        p.write_text(f"family=quadratic\na=1e308\nn=17\nchecks=slope_volume\nout={tmp_path / 'o'}\n")
        with np.errstate(over="ignore"):
            assert main(["verify", "--config", str(p)]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert err == "lmce: internal error: ValueError: field contains non-finite values\n"

    @pytest.mark.parametrize(
        "command, extra", [("solve", ""), ("verify", "source=solved\n")], ids=["solve", "verify"]
    )
    def test_phase_outside_the_solver_range_exit_3(self, tmp_path, capsys, command, extra):
        p = tmp_path / "neg.cfg"
        p.write_text(f"family=quadratic\na=-1\nn=17\nchecks=slope_volume\n{extra}out={tmp_path}\n")
        assert main([command, "--config", str(p)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("lmce: invalid input: family quadratic: solver needs supercritical")

    @pytest.mark.parametrize("check", ["weak_max_principle", "super_iso"])
    def test_rho_disk_without_an_interior_node(self, tmp_path, check):
        # no node of the even grid lies within 0.01 of the origin
        cfg = RunConfig(family="perturbed", n=64, rho=0.01, checks=[check], out=str(tmp_path))
        report, code = cmd_verify(cfg)
        assert code == EXIT_CHECK_FAILED
        (entry,) = report.entries
        assert entry["status"] == "precondition_failed"
        assert entry["details"]["error"] == "no interior node in the disk of radius rho=0.01"

    @pytest.mark.parametrize(
        "n, rho", [(65, 5.0), (64, 0.01)], ids=["beyond-L", "no-interior-node"]
    )
    def test_jacobi_checks_read_neither_A_nor_rho(self, tmp_path, n, rho):
        # lap_g b >= c |grad_g b|^2 - C reads c; A and rho belong to the modified slope
        runs = []
        for A in ("fit", 0.0, 3.0):
            cfg = RunConfig(
                family="perturbed", n=n, rho=rho, A=A,
                checks=["jacobi_pointwise", "jacobi_integral"], out=str(tmp_path / str(A)),
            )
            report, code = cmd_verify(cfg)
            assert code == EXIT_PASS
            runs.append(report.entries)
        assert runs[0] == runs[1] == runs[2]

    def test_grid_rule_once_per_config(self, tmp_path, monkeypatch):
        calls = []
        rule = lmce.cli._require_sampler_grid
        monkeypatch.setattr(
            lmce.cli, "_require_sampler_grid", lambda cfg, grid: calls.append(cfg) or rule(cfg, grid)
        )
        cfg = RunConfig(family="perturbed", n=65, checks=["weak_max_principle"], out=str(tmp_path))
        cmd_verify(cfg)
        assert calls == [cfg]
        calls.clear()
        cmd_sweep(dataclasses.replace(cfg, sweep_param="eps", sweep_values=[0.1, 0.2]))
        assert [sub.eps for sub in calls] == [0.1, 0.2]
        calls.clear()
        lmce.cli._Context(cfg)  # set-up validates nothing
        assert calls == []


class TestCheckRegistry:
    def test_tracer_names_every_check(self):
        spans = _load_spans()
        assert list(spans.CHECK_FUNCTIONS) == ALL_CHECKS
        for module, function in spans.CHECK_FUNCTIONS.values():
            assert function in importlib.import_module(f"lmce.{module}").__all__

    def test_traced_benchmark_child(self, tmp_path):
        # the benchmark's traced path end to end: one child run with every
        # public lmce function wrapped, its spans turned into layer metrics
        spans = _load_spans()
        cfg = tmp_path / "verify.json"
        cfg.write_text(
            json.dumps({"family": "perturbed", "source": "solved", "n": 65, "checks": "all"})
        )
        result = tmp_path / "result.json"
        proc = subprocess.run(
            [
                sys.executable, str(SPANS.parent / "child.py"), "--root", str(SPANS.parent.parent),
                "--spawned", str(time.monotonic()), "--result", str(result), "--trace",
                "--", "verify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "0",
            ],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        m = spans.layer_metrics(json.loads(result.read_text())["spans"])
        assert m["solver.newton_iterations"] >= 1
        assert m["solver.line_search_trials"] >= 1
        assert m["geometry.bundle_calls"] == 1
        assert m["inequalities.wmp_calls"] == 1
        for check, (module, _) in spans.CHECK_FUNCTIONS.items():
            assert m[f"{module}.{check}_s"] > 0.0, check

    def test_check_looked_up_at_call_time(self, tmp_path, monkeypatch):
        stub = CheckReport(
            check="slope_volume", kind="identity/algebraic", passed=False,
            residual=123.0, tolerance=0.0, location=(1, 2),
        )
        monkeypatch.setattr(lmce.cli, "check_slope_volume", lambda B: stub)
        cfg = RunConfig(family="quadratic", n=17, checks=["slope_volume"], out=str(tmp_path / "o"))
        report, code = cmd_verify(cfg)
        assert code == EXIT_CHECK_FAILED
        (entry,) = report.entries
        assert entry["residual"] == 123.0
        assert entry["location"] == (1, 2)
        assert "lhs" not in entry and "margin" not in entry


def _count_calls(monkeypatch, functions: dict) -> dict:
    """Counts of calls to each function of `functions` (function -> key),
    through every binding of it in the lmce modules, whichever calls it."""
    import lmce.geometry
    import lmce.identities
    import lmce.inequalities

    counts = dict.fromkeys(functions.values(), 0)

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (lmce.geometry, lmce.identities, lmce.inequalities, lmce.cli):
        for attr, value in list(vars(module).items()):
            if callable(value) and value in functions:
                monkeypatch.setattr(module, attr, counting(value, functions[value]))
    return counts


@pytest.fixture
def geometry_calls(monkeypatch):
    """Counts of `laplace_beltrami` and `bundle` calls."""
    import lmce.geometry

    return _count_calls(
        monkeypatch,
        {lmce.geometry.laplace_beltrami: "laplace_beltrami", lmce.geometry.bundle: "bundle"},
    )


@pytest.fixture
def wmp_calls(monkeypatch):
    """Counts of `check_weak_max_principle` calls."""
    import lmce.inequalities

    return _count_calls(monkeypatch, {lmce.inequalities.check_weak_max_principle: "wmp"})


# rho -> the grid of a checks=all verify that reads the fields formed on the
# box of B_rho or B_{2+2h}; the sampler on B_0.5 needs h < 0.0583
_BOX_RUNS = {0.5: 3.5, 1.5: 4.0, 2.0: 4.0, 3.0: 4.0}


class TestBoxBoundFields:
    """lap_g(|x|^2/2), b_mod and |D b_mod| are formed on the box of the disk
    their readers read alone: nothing off it reaches an output, and no more
    nodes than the box holds are formed."""

    @staticmethod
    def _verify(tmp_path, rho, tag):
        cfg = RunConfig(
            family="perturbed", eps=0.1, L=_BOX_RUNS[rho], R=_BOX_RUNS[rho], n=129, rho=rho,
            checks=["all"],
            out=str(tmp_path / f"{tag}-{rho}"),
        )
        report, _ = cmd_verify(cfg)
        assert all(e["status"] == "ran" for e in report.entries)
        return (tmp_path / f"{tag}-{rho}" / "verify.csv").read_bytes()

    @pytest.mark.parametrize("rho", sorted(_BOX_RUNS))
    def test_nothing_off_the_box_is_read(self, tmp_path, monkeypatch, rho):
        import lmce.inequalities

        def off_box(f, box):
            # f with every node off the block box x box set to 1e300
            values = np.full_like(f.values, 1e300)
            values[box, box] = f.values[box, box]
            return ScalarField2(f.grid, values)

        slope_on = lmce.inequalities._modified_slope_on
        grad_on = lmce.inequalities._gradient_norm_on
        with monkeypatch.context() as m:
            m.setattr(
                lmce.inequalities, "_modified_slope_on",
                lambda B, K, box: off_box(slope_on(B, K, box), box),
            )
            m.setattr(
                lmce.inequalities, "_gradient_norm_on", lambda f, box: off_box(grad_on(f, box), box)
            )
            off = self._verify(tmp_path, rho, "sentinel")
        # the whole-grid fields by whole-array expressions, as the runner
        # formed them before it formed them on a box
        q = lambda B: ScalarField2(B.grid, 0.5 * B.grid.radius2())
        with monkeypatch.context() as m:
            m.setattr(
                lmce.inequalities, "_modified_slope_on",
                lambda B, K, box: ScalarField2(B.grid, whole_modified_slope(B, K)),
            )
            m.setattr(
                lmce.inequalities, "_gradient_norm_on",
                lambda f, box: ScalarField2(f.grid, whole_gradient_norm(f)),
            )
            m.setattr(
                lmce.inequalities, "_paraboloid_laplacian",
                lambda B, box: laplace_beltrami(q(B), B).values[box, box],
            )
            whole = self._verify(tmp_path, rho, "whole")
        assert off == whole == self._verify(tmp_path, rho, "box")

    @pytest.mark.parametrize("rho", sorted(_BOX_RUNS))
    def test_work_is_bound_by_the_box(self, tmp_path, monkeypatch, rho):
        import lmce.geometry
        import lmce.inequalities

        formed = collections.defaultdict(list)

        def counting(name, kernel, size):
            def wrapper(*args):
                value = kernel(*args)
                formed[name].append(size(value))
                return value

            return wrapper

        def nonzero(f):
            return np.count_nonzero(f.values)

        for name, size in [
            ("_paraboloid_laplacian", np.size), ("_modified_slope_on", nonzero),
            ("_gradient_norm_on", nonzero),
        ]:
            monkeypatch.setattr(
                lmce.inequalities, name, counting(name, getattr(lmce.inequalities, name), size)
            )
        calls = _count_calls(
            monkeypatch,
            {
                lmce.geometry.laplace_beltrami: "laplace_beltrami",
                lmce.geometry.modified_slope: "modified_slope",
                gradient_norm: "gradient_norm",
            },
        )
        self._verify(tmp_path, rho, "count")
        g = build_grid(_BOX_RUNS[rho], 129)

        def nodes(radius, halo=0):
            # the nodes of the box that the disk spans, widened by halo nodes
            spanned = np.count_nonzero(g.disk_mask(radius).any(axis=1))
            return min(spanned + 2 * halo, g.n) ** 2

        # the shared sample reads B_{2+2h}, subharmonic's own one for rho < 2 less
        sampled = 2.0 + 2 * g.h
        assert max(formed["_paraboloid_laplacian"]) <= nodes(rho)
        assert max(formed["_modified_slope_on"]) <= nodes(sampled, halo=1)
        assert max(formed["_gradient_norm_on"]) <= nodes(sampled)
        # formed on all n^2 nodes, through the public functions, they took
        # a laplace_beltrami of |x|^2/2, a modified_slope and a gradient_norm
        # of it; what is left is lap_g b and the set-up's |Du|
        assert max(max(v) for v in formed.values()) < g.n ** 2
        assert [calls[k] for k in ("laplace_beltrami", "modified_slope", "gradient_norm")] == [1, 0, 1]


class TestBenchmarkOutputs:
    """The JSON summaries pass the benchmark's own output check, on the
    config keys of its workloads (the verify one on a smaller grid)."""

    @pytest.mark.parametrize(
        "workload, n", [("solve-perturbed-257", 257), ("verify-manufactured-1025", 129)]
    )
    def test_workload_outputs_pass_the_check(self, tmp_path, monkeypatch, workload, n):
        bench = _load_bench(monkeypatch)
        command, keys = bench.WORKLOADS[workload]
        p = tmp_path / "workload.cfg"
        p.write_text("".join(f"{k}={v}\n" for k, v in {**keys, "n": n}.items()))
        code = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        reference = json.loads((SPANS.parent / "reference.json").read_text())[workload]
        w = types.SimpleNamespace(reference=reference, command=command, outdir=tmp_path / "out")
        assert bench.Workload.check(w, {"returncode": code}) == []


# each check's bound on its traced peak over what is alive when it starts, in
# arrays of n^2 nodes at n=257 in bands of 16 rows (the share of the grid that
# bands of LB_BAND_ROWS = 64 rows are at n=1025).  Measured: cutoff_volume
# 1.34 and jacobi_integral 2.63 with their grid-sized margin and sums,
# complex_factorization 2.32 with the cos and sin of the phase it builds,
# jacobi_pointwise 1.33 with the slope gradient it builds, coordinate_laplacian
# 0.79 (0.87 through the general operator), weak_max_principle 0.63 (0.76 with
# b_mod and |D b_mod| on the whole grid), hessian_estimate 0.33, super_iso 0.33,
# subharmonic 0.23 (0.32 with lap_g |x|^2/2 on the whole grid), form_equivalence
# 0.25, volume_bound 0.20, volume_formula 0.14 and slope_volume 0.07.  Before they
# reduced through the banded kernels slope_volume formed 1.00, volume_bound
# 1.27 and hessian_estimate 1.68
_CHECK_PEAK_BOUNDS = {
    "check_form_equivalence": 0.4,
    "check_complex_factorization": 2.6,
    "check_volume_formula": 0.3,
    "check_cutoff_volume_identity": 1.6,
    "check_slope_volume": 0.3,
    "check_coordinate_laplacian": 1.1,
    "check_weak_max_principle": 1.0,
    "check_super_iso": 0.6,
    "check_jacobi_pointwise": 1.6,
    "check_subharmonic_modified_slope": 0.6,
    "check_jacobi_integral": 3.0,
    "check_volume_bound": 0.4,
    "check_hessian_estimate": 0.5,
}


class TestVerifyWork:
    def test_geometry_built_once_per_run(self, tmp_path, geometry_calls):
        cfg = RunConfig(family="perturbed", eps=0.1, n=65, checks=["all"], out=str(tmp_path / "o"))
        _, code = cmd_verify(cfg)
        assert code == EXIT_PASS
        assert geometry_calls["bundle"] == 1
        assert geometry_calls["laplace_beltrami"] <= 4

    @pytest.mark.parametrize(
        "command, checks, lb_calls",
        [
            pytest.param("verify", ["hessian_estimate"], 0, id="verify"),
            pytest.param("sweep", ["hessian_estimate"], 0, id="sweep"),
            # lap_g b once per field, and no lap_g |x|^2/2 for a fit
            pytest.param("verify", ["jacobi_pointwise", "jacobi_integral"], 1, id="verify-jacobi"),
            pytest.param("sweep", ["jacobi_pointwise", "jacobi_integral"], 2, id="sweep-jacobi"),
        ],
    )
    def test_hessian_estimate_skips_the_fit(
        self, tmp_path, geometry_calls, command, checks, lb_calls
    ):
        # neither the estimate nor the jacobi checks read the weight A
        cfg = RunConfig(
            family="quadratic", n=65, checks=checks, out=str(tmp_path / "o"),
            sweep_param="a", sweep_values=[1.0, 4.0],
        )
        report, code = (cmd_verify if command == "verify" else cmd_sweep)(cfg)
        assert code == EXIT_PASS
        assert geometry_calls["laplace_beltrami"] == lb_calls
        assert "constants_s" not in report.timings

    @pytest.mark.parametrize(
        "case, checks, calls",
        [
            ("perturbed", ["all"], 1),
            ("perturbed", ["subharmonic"], 1),
            # all three read the slope of the negated potential
            ("negative", ["all"], 1),
            ("negative", ["subharmonic"], 1),
        ],
    )
    def test_one_max_principle_sample_per_field(self, tmp_path, wmp_calls, case, checks, calls):
        family = {
            "perturbed": dict(family="perturbed", eps=0.1),
            "negative": dict(family="anisotropic", theta1=-0.4, theta2=-1.0, seed=3),
        }[case]
        cfg = RunConfig(**family, n=65, checks=checks, out=str(tmp_path / "o"))
        cmd_verify(cfg)
        assert wmp_calls["wmp"] == calls

    def test_one_pointwise_pass_per_verify(self, tmp_path, monkeypatch):
        # jacobi_integral reads the C_hat of the shared jacobi_pointwise report
        calls = []

        def spy(module):
            check = module.check_jacobi_pointwise

            def wrapper(*args, **kwargs):
                calls.append(module.__name__)
                return check(*args, **kwargs)

            monkeypatch.setattr(module, "check_jacobi_pointwise", wrapper)

        spy(lmce.cli)
        spy(lmce.inequalities)
        cfg = RunConfig(family="perturbed", eps=0.1, n=65, checks=["all"], out=str(tmp_path))
        report, code = cmd_verify(cfg)
        assert code == EXIT_PASS
        assert calls == ["lmce.cli"]
        entries = {e["check"]: e for e in report.entries}
        c_hat = entries["jacobi_pointwise"]["fitted"]["C_hat"]
        assert entries["jacobi_integral"]["fitted"]["C_hat"] == c_hat

    def test_subharmonic_alone_reads_the_shared_sample(self, tmp_path, wmp_calls):
        cfg = RunConfig(family="perturbed", eps=0.1, n=65, checks=["subharmonic"], out=str(tmp_path))
        report, code = cmd_verify(cfg)
        assert code == EXIT_PASS
        assert wmp_calls["wmp"] == 1
        assert "wmp_s" in report.timings

    @staticmethod
    def _full_verify_at_129(tmp_path):
        # a coarse run first loads what only a first run allocates
        def config(n, out):
            return RunConfig(family="perturbed", eps=0.1, n=n, checks=["all"], out=str(out))

        cmd_verify(config(65, tmp_path / "warm"))
        tracemalloc.start()
        try:
            _, code = cmd_verify(config(129, tmp_path / "o"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_PASS
        return peak / (8 * 129 * 129)

    def test_peak_memory_of_a_full_verify(self, tmp_path):
        # the traced peak is 16.6 float arrays of n^2 nodes at n=129; 18.6
        # leaves about two arrays of headroom.  It was 17.6 with lap_g
        # |x|^2/2, b_mod and |D b_mod| on the whole grid, and 20.6 with the
        # Hessian and the slope gradient stored and whole-grid temporaries.
        assert self._full_verify_at_129(tmp_path) < 18.6

    def test_peak_memory_of_a_newton_solve(self):
        # the traced peak is 13.15 float arrays of n^2 nodes at n=129, set in
        # the BiCGSTAB loop, by the stencil product and the preconditioner
        # alike (a band is half the grid at this n); 13.8 leaves over half an
        # array of headroom.  It was 12.79 with the Newton system's arrays on
        # the (n-2)^2 interior nodes, 15.75 with a whole-grid product per
        # coupling, the stencil's diagonal stored, r / s and two transforms
        # alive in the preconditioner and the Newton system and phase defect
        # formed on the whole grid; 24.97 with five stencil arrays, the
        # shadow residual a copy, the whole-array sine transform and the
        # Newton system alive through the line search; and 33.9 with nine
        # stacked coefficients and the inverse metric alive through the
        # Krylov solve and the line search.
        def problem(n):
            return manufacture(perturbed_family(0.1), build_grid(4.0, n))

        warm = problem(65)  # a first solve loads what only a first solve allocates
        newton_solve(warm.psi, warm.u_exact)
        prob = problem(129)
        tracemalloc.start()
        try:
            state = newton_solve(prob.psi, prob.u_exact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.converged
        assert peak / (8 * 129 * 129) < 13.8

    def test_peak_memory_of_the_phase_residual(self):
        # over what is alive, phase_residual peaks at 5.24 arrays of n^2
        # nodes at n=257: the differenced Hessian, the residual and one band
        # of the atan2 form's operands.  It was 5.75 with a band of
        # eigenvalues, and 8.0 with whole-grid eigenvalues and arctangents.
        prob = manufacture(perturbed_family(0.1), build_grid(4.0, 257))
        phase_residual(prob.u_exact, prob.psi)  # loads what only a first call allocates
        tracemalloc.start()
        try:
            alive, _ = tracemalloc.get_traced_memory()
            phase_residual(prob.u_exact, prob.psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - alive) / (8 * 257 * 257) < 5.5

    def test_peak_memory_of_writing_a_field(self, tmp_path):
        # u.csv is formatted one grid row at a time: the writer peaks at 0.1
        # arrays of n^2 nodes over what is alive at n=257, within one.  It
        # was 14.5 with the whole file formatted in one string.
        f = manufacture(perturbed_family(0.1), build_grid(4.0, 257)).u_exact
        write_field_csv(tmp_path / "warm.csv", f)  # loads what only a first call allocates
        tracemalloc.start()
        try:
            alive, _ = tracemalloc.get_traced_memory()
            write_field_csv(tmp_path / "u.csv", f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
        assert peak - alive <= 8 * 257 * 257

    def test_peak_memory_of_set_up(self, monkeypatch):
        # bands of 16 rows are the share of the grid at n=257 that bands of
        # LB_BAND_ROWS = 64 rows are at n=1025: set-up holds no temporary of
        # the grid's size, so its traced peak stays within one array of n^2
        # nodes of what it leaves alive (11 arrays: u, psi, |Du| and the
        # bundle's eight).  It was 2.0 arrays with the Hessian stored.
        monkeypatch.setattr(lmce.grid, "LB_BAND_ROWS", 16)
        cfg = RunConfig(family="perturbed", eps=0.1, n=257, checks=["all"])
        lmce.cli._Context(cfg)  # a first run loads what only a first run allocates
        tracemalloc.start()
        try:
            ctx = lmce.cli._Context(cfg)  # bound, so alive when measured
            alive, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.bundle.grid.n == 257
        assert peak - alive <= 8 * 257 * 257

    def test_peak_memory_of_coordinate_laplacian(self, tmp_path, monkeypatch):
        # over what is alive when it starts, the check peaks at 6.5 arrays of
        # n^2 nodes at n=129, all of them band temporaries (a band is half
        # the grid at this n): the rows of the Hessian, the phase gradient,
        # the lift and the operator of one band.  It was 8.5 with the whole
        # lift, a materialized coordinate and its whole Laplacian, and 11.0
        # with the bundle's cached flux coefficients.
        check = lmce.cli.check_coordinate_laplacian
        peaks = []

        def spy(*args, **kwargs):
            alive, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = check(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - alive)
            return report

        monkeypatch.setattr(lmce.cli, "check_coordinate_laplacian", spy)
        self._full_verify_at_129(tmp_path)
        assert len(peaks) == 2
        assert peaks[-1] < 7.5 * 8 * 129 * 129

    @pytest.mark.parametrize("check, bound", sorted(_CHECK_PEAK_BOUNDS.items()))
    def test_peak_memory_of_a_check(self, check, bound):
        assert _check_peaks_at_257()[check] < bound

    def test_peak_memory_of_volume_bound_in_case2(self):
        # case2 integrates sig2 - 1 over B_3 from a gather filled band by
        # band (the whole sig2 - 1 measured 2.13); the perturbed run is case1
        assert _check_peaks_at_257("case2")["check_volume_bound"] < 0.8

    def test_every_check_has_a_peak_bound(self):
        # one function per registry check ran, and each has its bound above
        peaks = _check_peaks_at_257()
        assert len(peaks) == len(ALL_CHECKS)
        assert set(peaks) == set(_CHECK_PEAK_BOUNDS)

    def test_lazy_state_has_its_own_timings(self, tmp_path):
        for case in ("perturbed", "negative"):
            out = tmp_path / case
            cfg = RunConfig(**_RELEASE_CASES[case], n=65, checks=["all"], out=str(out))
            t0 = time.perf_counter()
            report, _ = cmd_verify(cfg)
            wall = time.perf_counter() - t0
            timings = json.loads((out / "verify.json").read_text())["timings"]
            assert timings == report.timings
            # the context's lazily built state, lap_g(|x|^2/2) on the box of
            # B_rho among it, and the bundle's lazily built fields
            lazy = ["constants", "paraboloid_laplacian", "bmod", "bmod_grad_norm", "wmp"]
            lazy += ["pointwise", "slope_laplacian", "slope_grad_norm2", "cos_phase", "sin_phase"]
            lazy += ["negated"] if case == "negative" else []
            expected = {f"{name}_s" for name in ["setup"] + lazy + ALL_CHECKS}
            assert set(timings) == expected
            # disjoint pieces: none is charged twice
            assert all(t >= 0.0 for t in timings.values())
            assert sum(timings.values()) <= wall


# the checks=all verifies _check_peaks_at_257 measures, with the regime and
# exit code each gives: perturbed(0.1), and quadratic(4), whose volume bound
# sqrt(2) sup|Du|^2 fails, as it does for every isotropic quadratic
_PEAK_RUNS = {
    "all": (dict(family="perturbed", eps=0.1), ("case1", EXIT_PASS)),
    "case2": (dict(family="quadratic", a=4.0), ("case2", EXIT_CHECK_FAILED)),
}


@functools.lru_cache(maxsize=None)
def _check_peaks_at_257(run: str = "all") -> dict:
    """Traced peak of each check function of the verify _PEAK_RUNS[run] at
    n=257 in bands of 16 rows, over what is alive when it starts, in arrays
    of n^2 nodes; a check run twice keeps its larger one."""
    peaks = {}

    def spy(name, check):
        def measured(*args, **kwargs):
            alive, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = check(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - alive) / (8 * 257 * 257)
            peaks[name] = max(peaks.get(name, 0.0), peak)
            return report

        return measured

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(lmce.grid, "LB_BAND_ROWS", 16)
        for name in [k for k in vars(lmce.cli) if k.startswith("check_")]:
            mp.setattr(lmce.cli, name, spy(name, getattr(lmce.cli, name)))

        def config(n, out):
            return RunConfig(n=n, checks=["all"], out=str(out), **_PEAK_RUNS[run][0])

        # a coarse run first loads what only a first run allocates
        cmd_verify(config(65, Path(tmp) / "warm"))
        peaks.clear()
        tracemalloc.start()
        try:
            report, code = cmd_verify(config(257, Path(tmp) / "o"))
        finally:
            tracemalloc.stop()
    assert (report.regime, code) == _PEAK_RUNS[run][1]
    return peaks


_RELEASE_CASES = {
    "perturbed": dict(family="perturbed", eps=0.1),
    "negative": dict(family="anisotropic", theta1=-0.4, theta2=-1.0, seed=3),
}


def _lazy_holders(ctx):
    return [ctx, ctx.bundle] + ([ctx.bundle.negated] if "negated" in ctx.bundle.__dict__ else [])


def _lazy_fields(cls):
    return [k for k, v in vars(cls).items() if isinstance(v, functools.cached_property)]


@contextlib.contextmanager
def _count_lazy_builds():
    """Counts of builds of each lazily built field of the verify context and
    of every geometry bundle, keyed by (id of the object, field name)."""
    builds = collections.Counter()
    alive = []  # every counted object, so that no id is reused

    def counting(build, name):
        def wrapper(obj):
            alive.append(obj)
            builds[id(obj), name] += 1
            return build(obj)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for cls in (lmce.cli._Context, GeometryBundle):
            for name in _lazy_fields(cls):
                prop = vars(cls)[name]
                mp.setattr(prop, "func", counting(prop.func, name))
        yield builds


@functools.lru_cache(maxsize=None)
def _in_order_entries(case: str, A) -> dict:
    cfg = RunConfig(**_RELEASE_CASES[case], A=A, n=65, checks=["all"])
    entries = lmce.cli._run_checks(lmce.cli._Context(cfg), cfg.checks, {})
    return {e["check"]: e for e in entries}


class TestReleaseTable:
    """The verify runner drops each lazily built field after its last
    reader; a stale entry of the registry's `reads` or of `_BUILT_FROM`
    shows as a field built twice (a field even under u -> -u counts once
    per twin pair) or as a field left alive."""

    @settings(deadline=None, max_examples=150)
    @given(
        case=st.sampled_from(sorted(_RELEASE_CASES)),
        # a given A builds neither Laplacian with the slope constants
        A=st.sampled_from(["fit", 1.0]),
        order=st.permutations(ALL_CHECKS),
        size=st.integers(1, len(ALL_CHECKS)),
    )
    # the sample builds the constants but not lap_g b, which jacobi_pointwise
    # then builds
    @example(
        case="perturbed",
        A=1.0,
        order=["coordinate_laplacian", "weak_max_principle", "jacobi_pointwise"],
        size=3,
    )
    # the fit builds lap_g q on the negated twin, then subharmonic reads it
    # through the original
    @example(
        case="negative",
        A="fit",
        order=["jacobi_pointwise", "subharmonic"],
        size=2,
    )
    def test_any_order_builds_each_field_once(self, case, A, order, size):
        names = order[:size]
        cfg = RunConfig(**_RELEASE_CASES[case], A=A, n=65, checks=names)
        with _count_lazy_builds() as builds:
            ctx = lmce.cli._Context(cfg)
            entries = lmce.cli._run_checks(ctx, cfg.checks, {})
        full = _in_order_entries(case, A)
        assert [e["check"] for e in entries] == names
        for entry in entries:
            assert entry == full[entry["check"]]
        assert {key: count for key, count in builds.items() if count > 1} == {}
        left = [k for h in _lazy_holders(ctx) for k in _lazy_fields(type(h)) if k in h.__dict__]
        left += [k for k in ("u", "psi", "problem", "solve_state") if k in vars(ctx)]
        assert left == []


    def test_negative_data_drop_the_paraboloid_laplacian(self, monkeypatch):
        # the fit and subharmonic read the context's lap_g q, formed on the
        # box of B_rho from the metric that both twins share, so neither twin
        # builds one, and once subharmonic has run the context keeps none
        held = {}
        ctx = lmce.cli._Context(RunConfig(**_RELEASE_CASES["negative"], n=65, checks=["all"]))

        def spy(name):
            check = getattr(lmce.cli, name)

            def wrapper(B, *args, **kwargs):
                twins = [vars(b) for b in (B, B.negated)]
                held[name] = ("paraboloid_laplacian" in vars(ctx),) + tuple(
                    "paraboloid_laplacian" in t or "paraboloid_laplacian_s" in t for t in twins
                )
                return check(B, *args, **kwargs)

            return wrapper

        for name in ("check_jacobi_pointwise", "check_jacobi_integral"):
            monkeypatch.setattr(lmce.cli, name, spy(name))
        lmce.cli._run_checks(ctx, ctx.cfg.checks, {})
        assert held == {
            "check_jacobi_pointwise": (True, False, False),
            "check_jacobi_integral": (False, False, False),
        }
        box, block = lmce.cli._paraboloid_on_disk(ctx.bundle, ctx.cfg.rho)
        assert block.shape == (box.stop - box.start,) * 2 and box.stop - box.start < 65


def _set_up_refs(ctx) -> dict:
    """Weak references to the set-up arrays of a verify context, and to the
    fields holding them, by name."""
    u = [ctx.u] + ([ctx.problem.u_exact] if ctx.problem is not None else [])
    objects = {
        "u": u + [f.values for f in u],
        # a field file's phase is the bundle's own, which the checks read
        "psi": [ctx.psi] + ([ctx.psi.values] if ctx.psi.values is not ctx.bundle.phase else []),
    }
    return {name: [weakref.ref(obj) for obj in objs] for name, objs in objects.items()}


class TestSetUpRelease:
    """No check reads psi after form_equivalence, nor u after
    coordinate_laplacian; the verify runner drops each of them, and the
    manufactured problem and the solve state that also hold them, once its
    last reader has run."""

    @pytest.mark.parametrize("case", ["perturbed", "negative", "solved", "field"])
    def test_unreferenced_after_the_last_reader(self, tmp_path, monkeypatch, case):
        if case == "field":
            problem = manufacture(anisotropic_family(-0.4, -1.0), build_grid(4.0, 65))
            write_field_csv(tmp_path / "u.csv", problem.u_exact)
            del problem
        family = {
            **_RELEASE_CASES,
            "solved": dict(family="perturbed", eps=0.1, source="solved"),
            "field": dict(family="field", field_file=str(tmp_path / "u.csv")),
        }[case]
        cfg = RunConfig(**family, n=65, checks=["all"])
        ctx = lmce.cli._Context(cfg)
        refs = _set_up_refs(ctx)

        def referenced():
            return {k for k, rs in refs.items() if any(r() is not None for r in rs)}

        alive = []  # (check function, names of the set-up arrays still referenced)

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                alive.append((name, referenced()))
                return fn(*args, **kwargs)

            return wrapper

        for name, fn in list(vars(lmce.cli).items()):
            if name.startswith("check_") and callable(fn):
                monkeypatch.setattr(lmce.cli, name, spy(name, fn))
        entries = lmce.cli._run_checks(ctx, cfg.checks, {})
        assert all(e["status"] == "ran" for e in entries)
        read = [name for name, _ in alive]
        form = read.index("check_form_equivalence")
        lap = read.index("check_coordinate_laplacian")
        for k, (name, names) in enumerate(alive):
            expected = {"psi"} if k <= form else set()
            expected |= {"u"} if k <= lap else set()
            assert names == expected, name
        assert referenced() == set()
