"""One lmce CLI invocation in a fresh process, as the benchmark runs it.

    python3 perfbench/child.py --root ROOT --spawned T --result FILE
        [--trace] [--setup-only] [--manifest] -- solve|verify --config CFG --out DIR --seed N

Imports lmce from ROOT/src, loads the config through `RunConfig.from_file`
(the same call `lmce.cli.main` makes), then runs `lmce.cli.main` on the
arguments after `--`.  With --setup-only it stops after loading the config.
T is the parent's `time.monotonic()` just before it spawned this process, so
the reported set-up time includes interpreter start.  The result file holds
the set-up marks, the exit code, and with --trace the spans.  The process
exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path


def _manifest() -> dict:
    import lmce
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "lmce_version": lmce.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--manifest", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    src = Path(args.root, "src").resolve()
    result: dict = {"exit_code": None}
    try:
        sys.path.insert(0, str(src))
        t0 = time.monotonic()
        import lmce.cli as cli

        result["import_s"] = time.monotonic() - t0
        if not Path(cli.__file__).resolve().is_relative_to(src):
            raise ImportError(f"lmce was imported from {cli.__file__}, not from {src}")

        load = cli.RunConfig.__dict__["from_file"].__func__

        def from_file(cls, path):
            t1 = time.monotonic()
            cfg = load(cls, path)
            result["config_load_s"] = time.monotonic() - t1
            result["setup_s"] = time.monotonic() - args.spawned
            return cfg

        cli.RunConfig.from_file = classmethod(from_file)
        if args.setup_only:
            cli.RunConfig.from_file(argv[argv.index("--config") + 1])
            result["exit_code"] = 0
        else:
            recorder = None
            if args.trace:
                import spans

                recorder = spans.Recorder()
                spans.install(recorder)
            result["exit_code"] = cli.main(argv)
            if recorder is not None:
                result["spans"] = recorder.spans
        if args.manifest:
            result["manifest"] = _manifest()
    except BaseException:
        result["exception"] = traceback.format_exc()
        raise
    finally:
        Path(args.result).write_text(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
