"""Batch front door: configure, run solves and verification suites, emit
machine-readable reports.

Commands (all take --config, see README for the key reference):

  lmce solve  --config cfg   Newton-solve the configured problem, certify the
                             residual, write the iteration table.
  lmce verify --config cfg   Run the configured identity/inequality checks on
                             the manufactured or solved field.
  lmce sweep  --config cfg   Run the configured checks once per value of one
                             numeric key and tabulate verdicts and fitted
                             constants; with source=solved, also the errors
                             against the exact solution and observed orders.
  lmce report --config cfg   Merge the CSV tables under `input` into one.

Outputs are CSV tables (RFC-4180, header row, repr-formatted floats: a given
config and seed reproduce them byte for byte), one JSON summary per run, and
optional 8-bit P5 graymaps with their min/max recorded in the JSON.  Exit
codes: 0 all pass, 1 a check failed, 2 solver non-convergence, 3 invalid
input (a ConfigError, an OSError, or an input file that is not text),
4 an internal fault (any other exception: one `lmce: internal error` line on
stderr, and its traceback too with -v).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property, wraps
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NonConvergenceError, PreconditionError
from .geometry import SlopeConstants, bundle as make_bundle, classify_phase
from .grid import MAX_NODES, ScalarField2, build_grid, gradient_fd, hessian_fd
from .identities import (
    CheckReport,
    check_complex_factorization,
    check_coordinate_laplacian,
    check_cutoff_volume_identity,
    check_form_equivalence,
    check_slope_volume,
    check_volume_formula,
)
from .inequalities import (
    SAMPLED_RADIUS,
    _canonical_on_disk,
    _paraboloid_on_disk,
    _sampled_grad_norm,
    _sampled_slope,
    check_hessian_estimate,
    check_jacobi_integral,
    check_jacobi_pointwise,
    check_subharmonic_modified_slope,
    check_super_iso,
    check_volume_bound,
    check_weak_max_principle,
    fit_modification_weight,
    sampler_grid_problem,
)
from .solver import (
    anisotropic_family,
    manufacture,
    newton_solve,
    perturbed_family,
    phase_residual,
    quadratic_family,
)

__all__ = [
    "RunConfig",
    "RunReport",
    "cmd_solve",
    "cmd_verify",
    "cmd_sweep",
    "cmd_report",
    "read_field_csv",
    "write_field_csv",
    "main",
]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_INPUT = 3
EXIT_INTERNAL_ERROR = 4

# family -> the config keys its potential reads, and its analytic potential
# (`family=field` reads `field_file`, whose header fixes the grid)
_FAMILIES = {
    "quadratic": (("L", "n", "a"), lambda cfg: quadratic_family(cfg.a)),
    "anisotropic": (
        ("L", "n", "theta1", "theta2"), lambda cfg: anisotropic_family(cfg.theta1, cfg.theta2)
    ),
    "perturbed": (("L", "n", "eps"), lambda cfg: perturbed_family(cfg.eps)),
    "field": ((), None),
}


@dataclass
class RunConfig:
    """Flat run configuration; file keys mirror the field names exactly."""

    L: float = 4.0
    n: int = 257
    delta: float = 0.3
    c: float = 0.5
    A: float | str = "fit"
    C_budget: float | None = None
    Cstar_budget: float = 5.0
    family: str = "quadratic"
    a: float = 1.0
    eps: float = 0.1
    theta1: float = math.pi / 3
    theta2: float = math.pi / 6
    field_file: str = ""
    source: str = "manufactured"
    checks: list[str] = field(default_factory=lambda: ["identity"])
    out: str = "out"
    seed: int = 0
    R: float = 4.0
    rho: float = 2.0
    trials: int = 200
    heatmaps: bool = False
    tol: float = 1e-10
    max_iter: int = 30
    sweep_param: str = ""
    sweep_values: list[float] = field(default_factory=list)
    input: str = ""

    def __post_init__(self):
        self.checks = _expand_checks(self.checks)
        # a flat config with one value (`sweep_values=0.1`) parses to a scalar
        if not isinstance(self.sweep_values, list):
            self.sweep_values = [self.sweep_values]
        if any(math.isnan(_number(v)) for v in self.sweep_values):
            raise ConfigError(f"sweep_values must be numbers, got {self.sweep_values!r}")
        for name, least in (("n", 5), ("trials", 1), ("max_iter", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if self.n > MAX_NODES:
            raise ConfigError(f"n must be at most {MAX_NODES}, got {self.n}")
        for name in ("L", "R", "rho", "delta", "tol"):
            value = getattr(self, name)
            if not 0 < _number(value) < math.inf:
                raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
        if not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out must be a directory path, got {self.out!r}")
        for name in ("field_file", "input", "sweep_param"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.heatmaps, bool):
            raise ConfigError(f"heatmaps must be true or false, got {self.heatmaps!r}")
        if self.source not in ("manufactured", "solved"):
            raise ConfigError(f"source must be manufactured or solved, got {self.source!r}")
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ConfigError(f"family must be one of {', '.join(_FAMILIES)}, got {self.family!r}")
        if self.family == "field" and not self.field_file:
            raise ConfigError("family=field needs field_file")
        if self.family == "field" and self.source == "solved":
            raise ConfigError("source must be manufactured for family=field, got 'solved'")
        # the jacobi integral's bound divides by c^2
        if not (0.0 < _number(self.c) <= 1.0 and self.c**2 > 0.0):
            raise ConfigError(f"c must be a number in (0, 1], its square nonzero, got {self.c!r}")
        if self.A != "fit" and not 0.0 <= _number(self.A) < math.inf:
            raise ConfigError(f"A must be a non-negative finite number or 'fit', got {self.A!r}")
        for name in ("a", "eps", "theta1", "theta2"):
            value = getattr(self, name)
            if not math.isfinite(_number(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("C_budget", "Cstar_budget"):
            value = getattr(self, name)
            if (value is not None or name == "Cstar_budget") and not _number(value) >= 0.0:
                raise ConfigError(f"{name} must be a non-negative number, got {value!r}")
        if self.sweep_param and self.sweep_param not in _SWEEPABLE:
            raise ConfigError(
                f"sweep_param must be a numeric config key ({', '.join(_SWEEPABLE)}), "
                f"got {self.sweep_param!r}"
            )
        # a family key that this family ignores would give identical rows
        ignored = {k for ks, _ in _FAMILIES.values() for k in ks} - {*_FAMILIES[self.family][0]}
        if self.sweep_param in ignored:
            raise ConfigError(
                f"sweep_param must be a key family={self.family} reads, got {self.sweep_param!r}"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        text = Path(path).read_text()
        if text.lstrip().startswith("{"):
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad JSON config: {exc}") from exc
        else:
            raw = _parse_flat(text)
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


def _number(value) -> float:
    """value as a float if it is an int or a float, else NaN (failing every comparison)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.nan


def _require_sampler_grid(cfg: RunConfig, grid) -> None:
    """A grid too coarse for a requested sampled check, or without the disk
    of radius rho that its modified slope reads, is invalid input to the
    commands that run checks, verify and sweep (see `_read_inputs`)."""
    # the sampled checks, the only ones that read rho, -> the disk they sample
    sampled = {
        "weak_max_principle": SAMPLED_RADIUS,
        "super_iso": SAMPLED_RADIUS,
        "subharmonic": min(cfg.rho, SAMPLED_RADIUS),
    }
    requested = [name for name in sampled if name in cfg.checks]
    if requested and cfg.rho > grid.L:
        raise ConfigError(f"rho={cfg.rho} exceeds the grid half-width L={grid.L}")
    for name in requested:
        problem = sampler_grid_problem(grid, sampled[name])
        if problem:
            raise ConfigError(f"{name}: {problem}")


def _read_inputs(configs: list[RunConfig]) -> ScalarField2 | None:
    """Read the configs' field file once (None for a manufactured family)
    and check the grid rule of each config that verify or sweep runs, all
    before any set-up work; return the field read."""
    potential = read_field_csv(configs[0].field_file) if configs[0].family == "field" else None
    for sub in configs:
        _require_sampler_grid(sub, potential.grid if potential else build_grid(sub.L, sub.n))
    return potential


# the scalar numeric config keys a sweep may vary -> the type of their values
_SWEEPABLE = {
    f.name: f.type.split(" | ")[0]
    for f in dataclasses.fields(RunConfig)
    if f.type.split(" | ")[0] in ("int", "float")
}


def _parse_flat(text: str) -> dict:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = _coerce(value.strip())
    return raw


def _coerce(value: str):
    if "," in value:
        return [_coerce(v.strip()) for v in value.split(",") if v.strip()]
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", ""):
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def _expand_checks(requested) -> list[str]:
    if not isinstance(requested, list):
        requested = [requested]
    groups = {"identity": IDENTITY_CHECKS, "inequality": INEQUALITY_CHECKS, "all": ALL_CHECKS}
    out: dict[str, None] = {}
    for name in requested:
        if not isinstance(name, str) or (name not in groups and name not in ALL_CHECKS):
            raise ConfigError(f"checks: unknown check {name!r}")
        out.update(dict.fromkeys(groups.get(name, [name])))
    return list(out)


@dataclass
class RunReport:
    """Everything one run produced, and its JSON summary: config echo, check
    entries (each a `CheckReport.entry()`), solver summary, wall-clock per
    phase, heatmap ranges and the phase regime of the field."""

    config: dict
    entries: list[dict] = field(default_factory=list)
    solver: dict | None = None
    timings: dict = field(default_factory=dict)
    heatmaps: dict = field(default_factory=dict)
    regime: str | None = None

    def all_passed(self) -> bool:
        return all(e["passed"] for e in self.entries)


def write_field_csv(path: str | Path, f: ScalarField2) -> None:
    """Field interchange: `# L=<float> n=<int>` comment, then i,j,value rows."""
    g = f.grid
    cells = [f",{j}," for j in range(g.n)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# L={g.L!r} n={g.n}\n")
        fh.write("i,j,value\r\n")
        # the rows csv.writer would write (no cell needs quoting), one grid row at a time
        for i, row in enumerate(f.values):
            fh.write("".join([f"{i}{cell}{v!r}\r\n" for cell, v in zip(cells, row.tolist())]))


def read_field_csv(path: str | Path) -> ScalarField2:
    """Read a field written by write_field_csv.  Each node (i, j) with
    0 <= i, j < n must appear exactly once with a finite value; any other
    row is a ConfigError that names the file and line."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ConfigError(f"field file {path} is missing the '# L=.. n=..' header")
        meta = dict(
            part.split("=", 1) for part in header.lstrip("#").split() if "=" in part
        )
        try:
            grid = build_grid(float(meta["L"]), int(meta["n"]))
        except KeyError as exc:
            raise ConfigError(f"field file {path} header must name L and n") from exc
        except ValueError as exc:
            raise ConfigError(f"field file {path} header: {exc}") from exc
        n = grid.n
        # NaN marks a node not yet read; nested lists index faster than numpy
        vals = [[math.nan] * n for _ in range(n)]
        reader = csv.reader(fh)
        next(reader)  # column header

        def bad(problem: str) -> ConfigError:
            # the header comment is line 1, which the reader does not count
            return ConfigError(f"field file {path} line {reader.line_num + 1}: {problem}")

        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise bad(f"expected the 3 cells i,j,value, got {len(row)}")
            try:
                i, j, v = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise bad(str(exc)) from exc
            if not (0 <= i < n and 0 <= j < n):
                raise bad(f"node ({i}, {j}) is outside 0 <= i, j < {n}")
            if not math.isfinite(v):
                raise bad(f"value {row[2]!r} is not finite")
            if not math.isnan(vals[i][j]):
                raise bad(f"node ({i}, {j}) appears twice")
            vals[i][j] = v
    vals = np.array(vals)
    if np.any(np.isnan(vals)):
        raise ConfigError(f"field file {path} does not cover every node")
    return ScalarField2(grid, vals)


def write_pgm(path: str | Path, values: np.ndarray) -> tuple[float, float]:
    """8-bit binary P5 graymap of a field; returns the (min, max) used."""
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode())
        fh.write(scaled.tobytes())
    return lo, hi


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# the columns of verify.csv: entry keys, blank where an entry has none, and
# the fitted constants as `name=value;...`
_ENTRY_COLUMNS = [
    "check", "kind", "status", "passed", "lhs", "rhs", "margin", "residual", "tolerance", "slack",
    "fitted",
]


def _entry_row(e: dict) -> list[str]:
    fitted = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(e["fitted"].items()))
    return [_fmt(e.get(k, "")) for k in _ENTRY_COLUMNS[:-1]] + [fitted]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_run(command: str, report: RunReport, header, rows, /, **extra) -> None:
    """The outputs of one run in its `out` directory: `<command>.csv`, the
    header and rows given, and `<command>.json`, the report and any extra
    keys."""
    outdir = Path(report.config["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / f"{command}.csv", header, rows)
    payload = {**dataclasses.asdict(report), **extra}
    text = json.dumps(payload, indent=2, default=_json_default, sort_keys=True)
    (outdir / f"{command}.json").write_text(text + "\n")


@dataclass
class _Clock:
    """The own time of each piece of timed work of a verify context, by key,
    and lazy_s, the total of all of it (see `_timed`)."""

    timings: dict[str, float] = field(default_factory=dict)
    lazy_s: float = 0.0


def _timed(clock: _Clock, key: str, run):
    """run(), charging clock.timings[key] the time it took less that of any
    lazy state built inside it, which is charged to its own key."""
    outer = clock.lazy_s
    t0 = time.perf_counter()
    try:
        return run()
    finally:
        spent = time.perf_counter() - t0
        clock.timings[key] = spent - (clock.lazy_s - outer)
        clock.lazy_s = outer + spent


def _timed_lazy(build):
    """A cached property of `_Context`, its build `_timed` under `timings["<name>_s"]`."""
    key = f"{build.__name__}_s"
    return cached_property(wraps(build)(lambda self: _timed(self.clock, key, lambda: build(self))))


class _Context:
    """Shared state for one verify run, or one swept value.

    Set-up builds the potential u, the phase psi and the bundle of u (the
    manufactured problem also holds the exact u and psi, the solve state the
    solved u) and `fixed`, the slope constants delta and c (all that
    jacobi_pointwise, jacobi_integral and volume_bound read);
    coordinate_laplacian reads u itself.  Built on first use: `constants`,
    those with the weight A (fitted or given) that the modified slope and
    subharmonic read, lap_g(|x|^2/2) on the box of the disk of radius rho
    (shared by the fit and subharmonic), the modified slope and its gradient
    norm |D b_mod| on the box of the disk the sampler reads (shared by the
    sampler and super_iso), the weak-maximum-principle sample of the
    modified slope (shared by the weak_max_principle, super_iso and
    subharmonic checks) and the jacobi_pointwise report (whose C_hat
    jacobi_integral reads).  `clock` holds each one's own time, each
    check's and that of each lazily built field of the bundle and its twin,
    so no check is charged for state it builds first (see `_timed`).
    `_run_checks` drops each of them, each set-up attribute
    (`_SET_UP`) and each lazily built field of the bundle once no remaining
    check reads it, so heatmaps and a sweep's errors against the exact
    solution are taken first.  potential is the field of `cfg.field_file`
    if already read (`_read_inputs`).
    """

    def __init__(self, cfg: RunConfig, potential: ScalarField2 | None = None):
        self.cfg = cfg
        self.problem = self.solve_state = None
        if cfg.family == "field":
            self.u = read_field_csv(cfg.field_file) if potential is None else potential
            self.grid = self.u.grid
        else:
            self.grid = build_grid(cfg.L, cfg.n)
            self.problem = manufacture(_FAMILIES[cfg.family][1](cfg), self.grid)
            if cfg.source == "solved":
                self.solve_state = _solve(cfg, self.problem)
                if not self.solve_state.converged:
                    raise NonConvergenceError(
                        f"solver did not converge: {self.solve_state.message}"
                    )
                self.u = self.solve_state.u
            else:
                self.u = self.problem.u_exact
            self.psi = self.problem.psi
        self.bundle = make_bundle(self.u)
        if self.problem is None:
            self.psi = ScalarField2(self.grid, self.bundle.phase)
        self.regime = classify_phase(self.bundle.phase, cfg.delta)
        self.fixed = SlopeConstants(delta=cfg.delta, c=cfg.c)
        self.clock = clock = _Clock()
        # each lazily built field of the bundle and its twin under its own key;
        # the hook holds the clock alone, so it keeps no context alive
        self.bundle.__dict__["_build_field"] = lambda name, build: _timed(
            clock, f"{name}_s", build
        )

    @_timed_lazy
    def constants(self) -> SlopeConstants:
        a = self.cfg.A
        if a == "fit":
            a, _ = fit_modification_weight(
                self.bundle, rho=self.cfg.rho, lap_q=self.paraboloid_laplacian
            )
        return dataclasses.replace(self.fixed, A=float(a))

    @_timed_lazy
    def paraboloid_laplacian(self) -> tuple[slice, np.ndarray]:
        return _paraboloid_on_disk(self.bundle, self.cfg.rho)

    @_timed_lazy
    def bmod(self) -> ScalarField2:
        # the slope of the bundle that the weight A is fitted on
        B = _canonical_on_disk(self.bundle, self.cfg.rho)[0]
        return _sampled_slope(B, self.constants)

    @_timed_lazy
    def bmod_grad_norm(self) -> ScalarField2:
        return _sampled_grad_norm(self.bmod)

    @_timed_lazy
    def wmp(self) -> CheckReport:
        return check_weak_max_principle(
            self.bmod, trials=self.cfg.trials, seed=self.cfg.seed, grad_norm=self.bmod_grad_norm
        )

    @_timed_lazy
    def pointwise(self) -> CheckReport:
        budget = math.inf if self.cfg.C_budget is None else self.cfg.C_budget
        return check_jacobi_pointwise(self.bundle, self.fixed, C_budget=budget)


class _Check(NamedTuple):
    """One registry entry: the check run on a verify context, and the lazily
    built fields and set-up attributes it reads, of the context or of the
    bundle it reads ("negated" for a check that may canonicalize the bundle)."""

    run: Callable[[_Context], CheckReport]
    reads: tuple[str, ...] = ()


# Canonical check name -> its entry.  Each entry looks its check function up
# by module-global name when it runs, so a caller that rebinds
# `lmce.cli.check_*` (a tracer, a test stub) sees its own function.
IDENTITY_CHECKS = {
    "form_equivalence": _Check(lambda ctx: check_form_equivalence(ctx.bundle, ctx.psi), ("psi",)),
    "complex_factorization": _Check(
        lambda ctx: check_complex_factorization(ctx.bundle), ("cos_phase", "sin_phase")
    ),
    "volume_formula": _Check(lambda ctx: check_volume_formula(ctx.bundle), ("sin_phase",)),
    "cutoff_volume": _Check(
        lambda ctx: check_cutoff_volume_identity(ctx.bundle), ("cos_phase", "sin_phase")
    ),
    "slope_volume": _Check(lambda ctx: check_slope_volume(ctx.bundle)),
    "coordinate_laplacian": _Check(
        lambda ctx: check_coordinate_laplacian(ctx.bundle, ctx.u), ("u",)
    ),
}
INEQUALITY_CHECKS = {
    "weak_max_principle": _Check(lambda ctx: ctx.wmp, ("wmp",)),
    "super_iso": _Check(
        lambda ctx: check_super_iso(
            ctx.bmod,
            trials=ctx.cfg.trials,
            seed=ctx.cfg.seed,
            wmp=ctx.wmp,
            grad_norm=ctx.bmod_grad_norm,
        ),
        ("bmod", "bmod_grad_norm", "wmp"),
    ),
    "jacobi_pointwise": _Check(lambda ctx: ctx.pointwise, ("pointwise",)),
    "subharmonic": _Check(
        lambda ctx: check_subharmonic_modified_slope(
            ctx.bundle,
            ctx.constants,
            rho=ctx.cfg.rho,
            trials=ctx.cfg.trials,
            seed=ctx.cfg.seed,
            # the shared sample is the one the check draws on B_2
            wmp=ctx.wmp if ctx.cfg.rho >= SAMPLED_RADIUS else None,
            lap_q=ctx.paraboloid_laplacian,
        ),
        ("constants", "negated", "slope_laplacian", "paraboloid_laplacian", "wmp"),
    ),
    "jacobi_integral": _Check(
        lambda ctx: check_jacobi_integral(ctx.bundle, ctx.fixed, ctx.pointwise.fitted["C_hat"]),
        ("pointwise", "negated", "slope_laplacian", "slope_grad_norm2"),
    ),
    "volume_bound": _Check(lambda ctx: check_volume_bound(ctx.bundle, ctx.fixed), ("negated",)),
    "hessian_estimate": _Check(
        lambda ctx: check_hessian_estimate(
            ctx.bundle, ctx.cfg.R, delta=ctx.cfg.delta, C_budget=ctx.cfg.Cstar_budget
        ),
        ("negated",),
    ),
}
_CHECKS = {**IDENTITY_CHECKS, **INEQUALITY_CHECKS}
ALL_CHECKS = list(_CHECKS)

# lazily built field of the context -> the lazily built fields its build reads
_BUILT_FROM = {
    "constants": ("slope_laplacian", "paraboloid_laplacian", "negated"),
    "bmod": ("constants", "negated"),
    "bmod_grad_norm": ("bmod",),
    "wmp": ("bmod", "bmod_grad_norm"),
    "pointwise": ("negated", "slope_laplacian", "slope_grad_norm2"),
}
# the set-up attributes of the context, never rebuilt once dropped
_SET_UP = ("u", "psi", "problem", "solve_state")


def _release(ctx: _Context, remaining: list[str]) -> None:
    """From the context, its bundle and the bundle's negated twin, drop each
    lazily built field and set-up attribute that no remaining check reads.

    A field of the context not yet built keeps what its build reads; a
    built one does not."""
    keep: set[str] = set()
    todo = [f for name in remaining for f in _CHECKS[name].reads]
    while todo:
        name = todo.pop()
        if name not in keep:
            keep.add(name)
            if name not in ctx.__dict__:
                todo.extend(_BUILT_FROM.get(name, ()))
    holders = [ctx, ctx.bundle]
    if "negated" in ctx.bundle.__dict__:
        holders.append(ctx.bundle.negated)
    for holder in holders:
        lazy = [k for k, v in vars(type(holder)).items() if isinstance(v, cached_property)]
        for name in lazy + list(_SET_UP):
            if name not in keep:
                holder.__dict__.pop(name, None)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit_heatmaps(report: RunReport, fields: dict[str, np.ndarray]) -> None:
    outdir = Path(report.config["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, values in fields.items():
        path = outdir / f"{name}.pgm"
        lo, hi = write_pgm(path, values)
        report.heatmaps[name] = {"path": path.name, "min": lo, "max": hi}


def _run_checks(ctx: _Context, names: list[str], timings: dict) -> list[dict]:
    """Run the named checks on one context and return their entries; a check
    whose precondition fails gives a failed `precondition_failed` entry.
    Each check's own time and the context's lazy build times are added to
    `timings` under `<name>_s`.  Before the first check and after each one,
    the state that no later check reads is dropped (see `_release`)."""
    entries = []
    _release(ctx, names)
    for k, name in enumerate(names):
        try:
            report = _timed(ctx.clock, f"{name}_s", lambda: _CHECKS[name].run(ctx))
        except PreconditionError as exc:
            details = {"error": str(exc)}
            report = CheckReport(
                name, "precondition", False, details=details, status="precondition_failed"
            )
        entries.append(report.entry())
        _release(ctx, names[k + 1 :])
    for key, value in ctx.clock.timings.items():
        timings[key] = timings.get(key, 0.0) + value
    return entries


def cmd_verify(cfg: RunConfig) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    report = RunReport(config=dataclasses.asdict(cfg))
    ctx = _Context(cfg, _read_inputs([cfg]))
    report.timings["setup_s"] = time.perf_counter() - t0
    if ctx.solve_state is not None:
        report.solver = _solver_summary(ctx.solve_state)
    report.regime = ctx.regime
    if cfg.heatmaps:
        fields = {"u": ctx.u.values, "psi": ctx.psi.values, "slope": ctx.bundle.slope}
        _emit_heatmaps(report, fields)
    report.entries = _run_checks(ctx, cfg.checks, report.timings)
    _write_run("verify", report, _ENTRY_COLUMNS, [_entry_row(e) for e in report.entries])
    code = EXIT_PASS if report.all_passed() else EXIT_CHECK_FAILED
    return report, code


def _solver_summary(state) -> dict:
    """Every field of the SolveState but u, and two totals."""
    summary = dataclasses.asdict(dataclasses.replace(state, u=None))
    del summary["u"]
    summary["final_residual"] = state.residuals[-1]
    summary["krylov_iterations"] = sum(s.krylov_iterations for s in state.systems)
    return summary


def _solve(cfg: RunConfig, problem):
    """Newton-solve a manufactured problem; a phase outside (0, pi) is invalid input."""
    try:
        return newton_solve(problem.psi, problem.u_exact, tol=cfg.tol, max_iter=cfg.max_iter)
    except PreconditionError as exc:
        raise ConfigError(f"family {cfg.family}: {exc}") from exc


def cmd_solve(cfg: RunConfig) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    report = RunReport(config=dataclasses.asdict(cfg))
    if cfg.family == "field":
        raise ConfigError("solve needs a manufactured family, not a field file")
    problem = manufacture(_FAMILIES[cfg.family][1](cfg), build_grid(cfg.L, cfg.n))
    state = _solve(cfg, problem)
    report.timings["solve_s"] = time.perf_counter() - t0
    certified = phase_residual(state.u, problem.psi)
    err_exact = _sup_error((state.u.values, problem.u_exact.values))
    report.solver = _solver_summary(state)
    report.solver["certified_residual"] = certified
    report.solver["error_vs_exact"] = err_exact
    report.regime = classify_phase(problem.psi.values, cfg.delta)
    passed = state.converged and certified <= 2.0 * cfg.tol
    entry = CheckReport(
        "residual_certification", "solver", passed, residual=certified, tolerance=2.0 * cfg.tol
    )
    report.entries.append(entry.entry())
    if cfg.heatmaps:
        _emit_heatmaps(report, {"u": state.u.values, "psi": problem.psi.values})
    rows = [
        [k, repr(r), _fmt(state.damping[k - 1] if 0 < k <= len(state.damping) else "")]
        for k, r in enumerate(state.residuals)
    ]
    _write_run("solve", report, ["iteration", "residual", "damping"], rows)
    write_field_csv(Path(cfg.out) / "u.csv", state.u)
    if not state.converged:
        return report, EXIT_NO_CONVERGENCE
    return report, EXIT_PASS if report.all_passed() else EXIT_CHECK_FAILED


def _sup_error(*pairs) -> float:
    """Largest |a - b| over the given pairs of arrays."""
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def _exact_errors(ctx: _Context) -> dict:
    """Sup errors of a solved field, its differenced gradient and Hessian
    against the exact solution, and the Newton steps taken."""
    exact_grad = ctx.problem.analytic.gradient(*ctx.grid.coords())
    return {
        "err_u": _sup_error((ctx.u.values, ctx.problem.u_exact.values)),
        "err_grad": _sup_error(*zip(gradient_fd(ctx.u), exact_grad)),
        "err_hess": _sup_error(*zip(hessian_fd(ctx.u), ctx.problem.hess_exact)),
        "iterations": ctx.solve_state.iterations,
    }


def _sweep_rows(cfg: RunConfig, timings: dict) -> tuple[list[str], list[list[str]], bool]:
    """One row per swept value: the value, h, the regime, and for each
    configured check its verdict, residual or margin and fitted constants.

    A solved run of an analytic family adds the sup errors against the exact
    solution and, when h changed from the previous row, the observed orders
    log(e0/e1)/log(h0/h1), blank where either error is at round-off (1e-12).
    Every swept config is built, and so validated, and passes the grid rule
    of the sampled checks before any runs.
    """
    if not cfg.sweep_param or not cfg.sweep_values:
        raise ConfigError("sweep needs sweep_param and sweep_values")
    param = cfg.sweep_param
    as_float = _SWEEPABLE[param] == "float"
    configs = [
        dataclasses.replace(cfg, **{param: float(v) if as_float else v})
        for v in cfg.sweep_values
    ]
    # a field file fixes the grid of every value
    potential = _read_inputs(configs)
    rows: list[dict] = []
    all_ok = True
    for sub in configs:
        ctx = _Context(sub, potential)
        # read before the checks drop the set-up state
        errors = _exact_errors(ctx) if ctx.solve_state is not None else None
        row = {param: getattr(sub, param), "h": ctx.grid.h, "regime": ctx.regime}
        for e in _run_checks(ctx, sub.checks, timings):
            name = e["check"]
            all_ok &= e["passed"]
            row[f"{name}.passed"] = e["passed"]
            row.update({f"{name}.{k}": e[k] for k in ("residual", "margin") if k in e})
            row.update({f"{name}.{k}": v for k, v in e["fitted"].items()})
        if errors is not None:
            row.update(errors)
            prev = rows[-1] if rows else row
            if prev["h"] != row["h"]:
                for k in ("u", "grad", "hess"):
                    e0, e1 = prev[f"err_{k}"], row[f"err_{k}"]
                    row[f"order_{k}"] = (
                        math.log(e0 / e1) / math.log(prev["h"] / row["h"])
                        if min(e0, e1) > 1e-12
                        else ""
                    )
        rows.append(row)
    header = list(dict.fromkeys(k for row in rows for k in row))
    return header, [[_fmt(row.get(k, "")) for k in header] for row in rows], all_ok


def cmd_sweep(cfg: RunConfig) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    report = RunReport(config=dataclasses.asdict(cfg))
    header, rows, all_ok = _sweep_rows(cfg, report.timings)
    report.timings["sweep_s"] = time.perf_counter() - t0
    report.entries = [CheckReport(f"sweep_{cfg.sweep_param}", "sweep", all_ok).entry()]
    _write_run("sweep", report, header, rows, header=header, rows=rows)
    return report, EXIT_PASS if all_ok else EXIT_CHECK_FAILED


def cmd_report(cfg: RunConfig) -> tuple[RunReport, int]:
    indir = Path(cfg.input or cfg.out)
    if not indir.is_dir():
        raise ConfigError(f"report input directory {indir} does not exist")
    tables = sorted(p for p in indir.rglob("*.csv") if p.name != "merged.csv")
    if not tables:
        raise ConfigError(f"no CSV tables under {indir}")
    columns: list[str] = ["source"]
    parsed = []
    for path in tables:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [r for r in reader if r and not r[0].startswith("#")]
        if not rows:
            continue
        header, body = rows[0], rows[1:]
        for col in header:
            if col not in columns:
                columns.append(col)
        parsed.append((path.relative_to(indir).as_posix(), header, body))
    merged = [
        [source] + [record.get(c, "") for c in columns[1:]]
        for source, header, body in parsed
        for record in (dict(zip(header, row)) for row in body)
    ]
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "merged.csv", columns, merged)
    report = RunReport(config=dataclasses.asdict(cfg))
    report.entries = [CheckReport("report_merge", "report", True).entry()]
    return report, EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input: the usage line, then a ConfigError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="lmce",
        description="Solve and verify the two-dimensional Lagrangian mean curvature equation on manufactured problems.",
    )
    commands = {"solve": cmd_solve, "verify": cmd_verify, "sweep": cmd_sweep, "report": cmd_report}
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON or key=value config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument(
            "-v", "--verbose", action="store_true", help="print the traceback of an internal fault"
        )
    verbose = False
    try:
        args = parser.parse_args(argv)
        verbose = args.verbose
        cfg = RunConfig.from_file(args.config)
        # the command-line overrides, validated as the file's keys are
        overrides = {"out": args.out, "seed": args.seed}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        report, code = commands[args.command](cfg)
    # UnicodeDecodeError: an input file that is not text
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"lmce: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NonConvergenceError as exc:
        print(f"lmce: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except Exception as exc:
        if verbose:
            traceback.print_exc()
        print(f"lmce: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    for entry in report.entries:
        print(f"{'PASS' if entry['passed'] else 'FAIL'} {entry['check']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
