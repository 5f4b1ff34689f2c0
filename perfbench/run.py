"""The lmce benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs the `lmce solve` / `lmce verify` command of one workload (or of every
workload, with `--workload all`) in a fresh child process per invocation,
back to back for about S seconds (a closed loop with one client), and checks
each invocation's outputs against `perfbench/reference.json`.  The seed is
passed to lmce as `--seed`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the invocations: wall_s, cpu_s and peak_rss_mb of the child process, and
setup_s (spawn to "config loaded") over the invocations and a few set-up-only
children.  --trace 1 runs traced and untraced invocations alternately and
reports the per-layer metrics from the traced ones (see spans.py), plus the
tracing overhead (median traced wall_s minus median untraced wall_s).

Human-readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  `failed` counts
invocations whose exit code or outputs differ from the reference, so the fail
ratio is failed/attempted.  Outputs go under `.perfbench_out/` at the root of
the checkout.  Only the standard library is imported here; numpy and scipy
load in the children only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# name -> (lmce command, config keys; the rest stay at their defaults)
WORKLOADS = {
    "solve-perturbed-257": ("solve", {"family": "perturbed", "eps": 0.1, "n": 257}),
    "solve-anisotropic-129": (
        "solve",
        {"family": "anisotropic", "theta1": 1.4, "theta2": 0.2, "n": 129},
    ),
    "verify-manufactured-1025": (
        "verify",
        {"family": "perturbed", "eps": 0.1, "n": 1025, "source": "manufactured", "checks": "all"},
    ),
}

# one BLAS/OpenMP thread: the plain single-threaded baseline, and on a small
# machine no slower than the default thread pool (which burns CPU spinning)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
THREAD_VAR = re.compile(r"THREADS|^OMP_|^OPENBLAS_|^MKL_|^BLIS_|^GOTO")

SETUP_PROBES = 5  # set-up-only children per untraced run, besides the invocations
MIN_UNTRACED = 3
LAST_START_S = 140.0  # start no invocation after this; a run must end within 180 s
CHILD_DEADLINE_S = 170.0
NOISE_NOTE = (
    "CPUs are not pinned and caches are not dropped (the benchmark runs unprivileged): "
    "timings carry noise from other load on the machine and run with a warm page cache"
)


class BenchError(Exception):
    """The benchmark cannot run here (no lmce source, or a child that cannot start)."""


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.command, config = WORKLOADS[name]
        self.seed = seed
        self.dir = OUT / name
        self.reference = json.loads((HERE / "reference.json").read_text())[name]
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        (self.dir / "tmp").mkdir()
        self.config = self.dir / "workload.cfg"
        self.config.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        self.outdir = self.dir / "out"
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(THREAD_ENV)
        self.env.update(PYTHONHASHSEED="0", TMPDIR=str(self.dir / "tmp"))

    def argv(self) -> list[str]:
        return [
            self.command,
            "--config", str(self.config),
            "--out", str(self.outdir),
            "--seed", str(self.seed),
        ]

    def spawn(self, deadline: float, flags: list[str]) -> dict:
        """One child; returns its wall, CPU and peak RSS with its own report."""
        result_file = self.dir / "child-result.json"
        result_file.unlink(missing_ok=True)
        if self.outdir.exists():
            shutil.rmtree(self.outdir)
        with open(self.dir / "child.log", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [
                    sys.executable, str(HERE / "child.py"),
                    "--root", str(ROOT), "--spawned", repr(spawned),
                    "--result", str(result_file), *flags, "--", *self.argv(),
                ],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            watchdog = threading.Timer(max(1.0, deadline - spawned), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(result_file.read_text())
        except (OSError, ValueError):
            report = {}
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode,
            "child": report,
        }

    def log_tail(self) -> str:
        lines = (self.dir / "child.log").read_text(errors="replace").splitlines()
        return "\n".join(lines[-15:])

    def setup_probe(self, deadline: float, manifest: bool = False) -> dict:
        flags = ["--setup-only"] + (["--manifest"] if manifest else [])
        probe = self.spawn(deadline, flags)
        if probe["returncode"] != 0 or "setup_s" not in probe["child"]:
            raise BenchError(f"{self.name}: set-up child failed:\n{self.log_tail()}")
        return probe

    def check(self, inv: dict) -> list[str]:
        """Differences between one invocation's outputs and the reference."""
        ref = self.reference
        problems = []
        if inv["returncode"] != ref["exit_code"]:
            problems.append(f"exit code {inv['returncode']}, expected {ref['exit_code']}")
        try:
            out = json.loads((self.outdir / f"{self.command}.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"no readable {self.command}.json: {exc}"]
        checks = ref["checks"]
        if self.command == "verify":
            names = out["config"]["checks"]
            if len(names) != len(out["entries"]):
                problems.append("verify.json entries do not match the configured checks")
            verdicts = {
                name: _verdict(entry) for name, entry in zip(names, out["entries"])
            }
        else:
            verdicts = {e["check"]: _verdict(e) for e in out["entries"]}
            solver = out["solver"]
            if not solver["converged"]:
                problems.append(f"solve did not converge: {solver['message']}")
            bound = ref["certified_residual_max_tol"] * out["config"]["tol"]
            if not solver["certified_residual"] <= bound:
                problems.append(f"certified residual {solver['certified_residual']:.3e} > {bound:.3e}")
            err = solver["error_vs_exact"]
            inv["error_vs_exact"] = err
            if "error_vs_exact" in ref:
                want = ref["error_vs_exact"]
                if not abs(err - want) <= ref["error_vs_exact_rtol"] * want:
                    problems.append(f"error_vs_exact {err!r}, reference {want!r}")
            if "error_vs_exact_max" in ref and not err <= ref["error_vs_exact_max"]:
                problems.append(f"error_vs_exact {err:.3e} above {ref['error_vs_exact_max']:.1e}")
        if verdicts != checks:
            diff = {k: verdicts.get(k) for k in set(checks) | set(verdicts) if verdicts.get(k) != checks.get(k)}
            problems.append(f"check verdicts differ from the reference: {diff}")
        return problems


def _verdict(entry: dict) -> str:
    status = entry.get("status", "ran")
    if status != "ran":
        return status
    return "pass" if entry.get("passed") else "fail"


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One measured run of one workload."""

    def __init__(self, workload: Workload, seconds: int, trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.invocations: list[dict] = []
        self.failures: list[str] = []
        self.probes: list[dict] = []
        self.manifest: dict = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def invoke(self, traced: bool) -> dict:
        inv = self.w.spawn(self.start + CHILD_DEADLINE_S, ["--trace"] if traced else [])
        inv["traced"] = traced
        try:
            problems = self.w.check(inv)
        except (KeyError, TypeError) as exc:
            problems = [f"unexpected {self.w.command}.json layout: {exc!r}"]
        if "setup_s" not in inv["child"]:
            problems.append("child did not load the config")
        if traced and "spans" not in inv["child"]:
            problems.append("traced child wrote no spans")
        if problems:
            inv["problems"] = problems
            self.failures.append(f"invocation {len(self.invocations) + 1}: " + "; ".join(problems))
            self.failures.append(self.w.log_tail())
        self.invocations.append(inv)
        return inv

    def more(self, minimum_done: bool) -> bool:
        walls = [i["wall_s"] for i in self.invocations]
        estimate = _median(walls)
        if self.elapsed() + estimate > LAST_START_S:
            return False
        return not minimum_done or self.elapsed() + 0.5 * estimate < self.seconds

    def execute(self) -> None:
        first = self.w.setup_probe(self.start + CHILD_DEADLINE_S, manifest=True)
        self.manifest = first["child"]["manifest"]
        if self.trace:
            kinds = ["traced", "untraced", "traced"]
            while self.more(len(self.invocations) >= len(kinds)):
                n = len(self.invocations)
                kind = kinds[n] if n < len(kinds) else ("untraced" if n % 2 else "traced")
                self.invoke(kind == "traced")
        else:
            self.probes = [
                self.w.setup_probe(self.start + CHILD_DEADLINE_S) for _ in range(SETUP_PROBES)
            ]
            while self.more(len(self.invocations) >= MIN_UNTRACED):
                self.invoke(False)
        if not self.invocations:
            raise BenchError(f"{self.w.name}: no invocation fitted in the time limit")

    def end_to_end(self) -> dict[str, float]:
        runs = [i for i in self.invocations if not i["traced"]]
        setups = [p["child"]["setup_s"] for p in self.probes]
        setups += [i["child"]["setup_s"] for i in runs if "setup_s" in i["child"]]
        return {
            "wall_s": _median([i["wall_s"] for i in runs]),
            "setup_s": _median(setups),
            "cpu_s": _median([i["cpu_s"] for i in runs]),
            "peak_rss_mb": _median([i["peak_rss_mb"] for i in runs]),
        }

    def per_layer(self, units: dict[str, str]) -> dict[str, float]:
        traced = [i for i in self.invocations if i["traced"] and "spans" in i["child"]]
        if not traced:
            self.failures.append("no traced invocation produced spans")
            return {name: 0.0 for name in units}
        layers = []
        for inv in traced:
            m = spans.layer_metrics(inv["child"]["spans"])
            m["cli.import_s"] = inv["child"].get("import_s", 0.0)
            m["cli.config_load_s"] = inv["child"].get("config_load_s", 0.0)
            layers.append(m)
        for name in spans.EXACT_COUNTS:
            values = {m[name] for m in layers}
            if len(values) > 1:
                self.failures.append(f"self-check: {name} differs between traced invocations: {sorted(values)}")
        out = {
            name: float(_median([m[name] for m in layers])) if units[name] == "s" else layers[0][name]
            for name in layers[0]
        }
        untraced = [i["wall_s"] for i in self.invocations if not i["traced"]]
        out["trace_overhead_s"] = _median([i["wall_s"] for i in traced]) - _median(untraced)
        return out


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    run = Run(Workload(name, seed), seconds, trace)
    run.execute()
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    values = run.per_layer(units) if trace else run.end_to_end()
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    failed = sum(1 for i in run.invocations if "problems" in i)
    attempted = len(run.invocations)
    env = run.w.env
    manifest = dict(
        run.manifest,
        git_sha=_git_sha(),
        cpu_count=os.cpu_count(),
        thread_env={k: env[k] for k in sorted(env) if THREAD_VAR.search(k)},
        note=NOISE_NOTE,
    )

    traced_n = sum(1 for i in run.invocations if i["traced"])
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"invocations {attempted} ({traced_n} traced)  elapsed {run.elapsed():.1f} s")
    for metric, value in values.items():
        line = f"  {metric:<42} {value!r} {units[metric]}"
        if not trace and metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            xs = [i[metric] for i in run.invocations if not i["traced"]]
            line += f"  (median of {len(xs)}, min {min(xs):.4g}, max {max(xs):.4g})"
        print(line)
    errs = [i["error_vs_exact"] for i in run.invocations if "error_vs_exact" in i]
    if errs:
        print(f"  {'error_vs_exact':<42} {errs[0]!r} (reference check, all {len(errs)} invocations)")
    print(f"  {'fail_ratio':<42} {failed}/{attempted}")
    for line in run.failures:
        print(line, file=sys.stderr)
    print("manifest " + json.dumps(manifest, sort_keys=True))

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "manifest": manifest, "metrics": values, "failures": run.failures,
        "invocations": [
            {k: v for k, v in i.items() if k != "child"}
            | {k: v for k, v in i["child"].items() if k != "spans"}
            for i in run.invocations
        ],
    }
    traced = [i for i in run.invocations if i["traced"]]
    if traced:
        record["spans"] = traced[0]["child"].get("spans", [])
    (run.w.dir / "result.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lmce" / "cli.py").is_file():
        print(f"perfbench: no lmce source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            n: run_workload(n, args.seed, args.seconds, bool(args.trace), bench) for n in names
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
