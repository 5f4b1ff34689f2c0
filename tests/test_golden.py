"""Byte-for-byte regression of `verify.csv` and `sweep.csv` at fixed configs.

Every change must reproduce the files under `tests/golden/` exactly.  The
`entries` of each `verify.json` are kept too: a later run may add keys to an
entry, never drop or change one.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named cases (all of them when none is named) and prints
every cell that changes (`file, row, column: old -> new`; a JSON cell is one
leaf of an entry, named by its dotted key) before it overwrites a file, so
the diff can be audited.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

VERIFY_CASES = {
    "verify_perturbed": dict(family="perturbed", eps=0.1, n=65, checks=["all"], seed=3),
    "verify_quadratic_case2": dict(family="quadratic", a=4.0, n=65, checks=["all"]),
    "verify_perturbed_solved": dict(
        family="perturbed", eps=0.1, n=65, source="solved", checks=["all"]
    ),
    # negative phase: the slope checks canonicalize to the negated bundle
    "verify_anisotropic_negative": dict(
        family="anisotropic", theta1=-0.4, theta2=-1.0, n=65, checks=["all"], seed=3
    ),
    # the widest disk the fit and subharmonic read, so the widest box of the
    # fields formed only where the checks read them
    "verify_perturbed_rho3": dict(
        family="perturbed", eps=0.1, n=65, rho=3.0, checks=["all"], seed=3
    ),
}

SWEEP_CASES = {
    "sweep_a": dict(
        family="quadratic", n=65, sweep_param="a", sweep_values=[1.0, 2.0, 4.0, 8.0],
        checks=["hessian_estimate"],
    ),
    "sweep_A": dict(
        family="perturbed", eps=0.1, n=65, sweep_param="A",
        sweep_values=[0.0, 0.5, 1.0, 2.0], trials=50, seed=5, checks=["subharmonic"],
    ),
    "sweep_n": dict(
        family="perturbed", eps=0.1, sweep_param="n", sweep_values=[17, 33, 65],
        checks=["jacobi_pointwise", "form_equivalence"],
    ),
    "sweep_eps": dict(
        family="perturbed", n=65, sweep_param="eps", sweep_values=[0.0, 0.05, 0.1, 0.2],
        checks=["jacobi_pointwise"],
    ),
}


def _run(name: str, out: Path) -> Path:
    from lmce.cli import RunConfig, cmd_sweep, cmd_verify

    if name in VERIFY_CASES:
        cmd_verify(RunConfig(**VERIFY_CASES[name], out=str(out)))
        return out / "verify.csv"
    cmd_sweep(RunConfig(**SWEEP_CASES[name], out=str(out)))
    return out / "sweep.csv"


def _entries(out: Path) -> list[dict]:
    return json.loads((out / "verify.json").read_text())["entries"]


@pytest.mark.parametrize("name", sorted(VERIFY_CASES) + sorted(SWEEP_CASES))
def test_csv_byte_identical(name, tmp_path):
    produced = _run(name, tmp_path / "o")
    assert produced.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_json_entries_only_gain_keys(name, tmp_path):
    _run(name, tmp_path / "o")
    new = _entries(tmp_path / "o")
    old = json.loads((GOLDEN / f"{name}.entries.json").read_text())
    assert [e["check"] for e in new] == [e["check"] for e in old]
    for before, after in zip(old, new):
        for key, value in before.items():
            assert after[key] == value, (before["check"], key)


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_negated_phase_is_the_negation_bit_for_bit(name, tmp_path):
    # what lets the checks take the negated bundle's phase (min, max) from
    # one pass over this bundle's phase
    import numpy as np

    from lmce.cli import RunConfig, _Context

    B = _Context(RunConfig(**VERIFY_CASES[name], out=str(tmp_path))).bundle
    assert np.array_equal(B.negated.phase.view(np.int64), (-B.phase).view(np.int64))


def _passes(e: dict) -> bool:
    """An inequality entry's verdict by the rule `CheckReport` states."""
    if e["check"] == "subharmonic":
        return e["margin"] >= -e["slack"] and e["details"]["wmp_passed"]
    if e["check"] == "jacobi_integral":
        return e["margin"] >= 0.0 and e["fitted"]["ibp_residual"] <= e["fitted"]["ibp_tolerance"]
    return e["margin"] >= 0.0


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_inequalities_pass_by_the_documented_rule(name, tmp_path):
    _run(name, tmp_path / "o")
    inequalities = [e for e in _entries(tmp_path / "o") if e["kind"] == "inequality"]
    assert len(inequalities) == 7
    for e in inequalities:
        assert e["passed"] == _passes(e), e["check"]
        if e["slack"] > 0.0 and e["check"] != "subharmonic":
            # the slack is inside the margin (the sampler's rhs holds it already)
            granted = 0.0 if e["check"] == "weak_max_principle" else e["slack"]
            assert e["margin"] == e["rhs"] + granted - e["lhs"], e["check"]


def test_regenerating_named_cases_writes_only_theirs(tmp_path, monkeypatch, capsys):
    golden = GOLDEN
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    _regenerate(["sweep_a", "verify_perturbed"])
    written = ["sweep_a.csv", "verify_perturbed.csv", "verify_perturbed.entries.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
    with pytest.raises(SystemExit, match="no golden case named sweep_z"):
        _regenerate(["sweep_z"])


def _csv_cells(text: str) -> dict:
    header, *body = csv.reader(text.splitlines())
    return {(r, col): v for r, row in enumerate(body, 1) for col, v in zip(header, row)}


def _json_cells(text: str) -> dict:
    cells = {}

    def walk(value, row, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, row, f"{key}.{k}" if key else k)
        else:
            cells[(row, key)] = json.dumps(value)

    for r, entry in enumerate(json.loads(text), 1):
        walk(entry, r, "")
    return cells


def _rewrite(path: Path, text: str, cells) -> None:
    """Print each cell of `path` that `text` changes, then write `text`."""
    old = cells(path.read_bytes().decode()) if path.exists() else {}
    new = cells(text)
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, "(none)"), new.get(key, "(none)")
        if before != after:
            print(f"{path.name}, row {key[0]}, {key[1]}: {before} -> {after}")
    path.write_bytes(text.encode())


def _regenerate(names: list[str]) -> None:
    import tempfile

    unknown = sorted(set(names) - VERIFY_CASES.keys() - SWEEP_CASES.keys())
    if unknown:
        sys.exit(f"no golden case named {', '.join(unknown)}")
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            produced = _run(name, out)
            _rewrite(GOLDEN / f"{name}.csv", produced.read_bytes().decode(), _csv_cells)
            if name in VERIFY_CASES:
                entries = json.dumps(_entries(out), indent=2, sort_keys=True) + "\n"
                _rewrite(GOLDEN / f"{name}.entries.json", entries, _json_cells)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate(sys.argv[1:] or list(VERIFY_CASES) + list(SWEEP_CASES))
