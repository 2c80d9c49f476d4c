"""One benchmark client: runs a workload's CLI steps back to back, in-process.

Started by run.py in a fresh interpreter, so its peak resident memory is
the workload's alone. ``--setup-only`` imports ``slukit.cli``, prints
``ready`` and exits; run.py times it to measure set-up. Otherwise the
worker reads a plan (steps, work directory, time budget), repeats the
steps through ``slukit.cli.run`` until the budget is spent, and writes
per-iteration wall times, exit codes and output digests as JSON. With
tracing on, a second loop runs under the tracer and its spans and
per-layer metrics are written too.

Only the standard library is imported before ``slukit``, so set-up time
is the program's own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI step; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught program error fails the step, not the run
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


def _loop(cli, plan: dict, mode: str, budget: float, tracer=None) -> dict:
    """Repeat the workload until `budget` seconds have passed (at least min_iters)."""
    work = Path(plan["work"])
    walls, step_times, codes, digests, errors = [], [], [], [], []
    previous = None
    started = perf_counter()
    i = 0
    while i < plan["min_iters"] or perf_counter() - started < budget:
        run_dir = work / f"{mode}-{i}"
        run_dir.mkdir(parents=True)
        gc.collect()
        os.chdir(run_dir)
        try:
            if tracer is not None:
                tracer.begin(i)
            times, step_codes = [], []
            t0 = perf_counter()
            for argv in plan["steps"]:
                s0 = perf_counter()
                code, err = _call(cli, argv)
                times.append(perf_counter() - s0)
                step_codes.append(code)
                if code != 0:
                    last_line = (err.strip().splitlines() or [""])[-1]
                    errors.append(f"{mode} iteration {i}: {argv[0]} exited {code}: {last_line}")
            walls.append(perf_counter() - t0)
        finally:
            os.chdir(plan["root"])
        step_times.append(times)
        codes.append(step_codes)
        digests.append(_digests(run_dir))
        if previous is not None:
            shutil.rmtree(previous)
        previous = run_dir
        i += 1
    return {"walls": walls, "step_times": step_times, "codes": codes,
            "digests": digests, "errors": errors, "last_dir": str(previous)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        import slukit.cli  # noqa: F401  (the import is what is timed)
        print("ready", flush=True)
        return 0

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    import slukit.cli as cli

    result = {"untraced": _loop(cli, plan, "untraced", plan["budget_untraced"])}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if plan["trace"]:
        import tracer as tracing  # the benchmark's own module, beside this file

        spans = tracing.Tracer()
        spans.install()
        try:
            traced = _loop(cli, plan, "traced", plan["budget_traced"], spans)
        finally:
            spans.uninstall()
        per_run = tracing.summarise(spans.spans)
        traced["layers"] = [
            tracing.layer_metrics(per_run.get(i, {}), spans.counts[i],
                                  sum(c != 0 for c in codes), plan["train_tokens"])
            for i, codes in enumerate(traced["codes"])
        ]
        with open(Path(plan["work"]) / "spans.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent, run_id in spans.spans:
                handle.write(json.dumps([name, start, end, parent, run_id]) + "\n")
        result["traced"] = traced
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
