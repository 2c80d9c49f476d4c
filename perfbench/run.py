"""slukit benchmark: seeded synthetic workloads driven through the CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

- ``transfer``: homogenize three corpora, merge two, project the third
  through soft alignments, evaluate against planted target gold.
- ``train``: train the joint tagger with the masked-token objective,
  predict a held-out set from the saved checkpoint, evaluate.
- ``significance``: an almost-stochastic-order table, 2 systems against
  a baseline over 12 languages, 1000 bootstrap replicates.

The run generates the inputs from ``--seed`` (not timed), times the
set-up of fresh interpreters, then starts one worker process that repeats
the workload's steps back to back through ``slukit.cli.run`` for
``--seconds``. One client, closed loop, BLAS pinned to one thread. All
outputs are checked against the planted truth, and a deliberately
corrupted copy must fail the checks. With ``--trace 1`` half the time is
spent untraced and half under the tracer, which yields per-layer metrics
and the tracing overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The full record, with the environment and input
properties, goes to ``.perfbench_work/<workload>-<seed>/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRAIN_EPOCHS = 1
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Units of the per-layer metrics; any name not listed here is in seconds.
LAYER_UNITS = {
    "cli.bytes_read": "bytes", "cli.bytes_written": "bytes", "cli.steps_failed": "count",
    "corpus.parse_utts_per_s": "utts/s", "corpus.write_utts_per_s": "utts/s",
    "bio.repair_calls": "count", "bio.repair_changed_ratio": "ratio",
    "projection.score_cells": "count", "projection.spans_lost_ratio": "ratio",
    "sampler.draws": "count", "tagger.train_tokens_per_s": "tokens/s",
    "tagger.checkpoint_bytes": "bytes", "tagger.predict_tokens_per_s": "tokens/s",
    "metrics.spans_scored": "count", "significance.aso_calls": "count",
    "significance.replicates_per_s": "replicates/s",
    "result.tokens_per_s": "tokens/s", "result.slot_f1": "ratio", "result.intent_acc": "ratio",
}


def steps(workload: str, seed: int) -> list[tuple[str, list[str], list[str]]]:
    """(step name, CLI argv, output files) run inside a fresh directory per iteration."""
    i = "../inputs/"
    if workload == "transfer":
        trim = ",".join(gen.FUNCTION_WORDS)
        homogenize = [
            ("homogenize", ["homogenize", "--in", f"{i}{src}.conll", "--map", f"{i}map_{m}.tsv",
                            "--trim", trim, "--out", f"{out}.conll"],
             [f"{out}.conll", f"{out}.conll.manifest.json"])
            for src, m, out in (("corpus_a", "a", "a"), ("corpus_b", "b", "b"),
                                ("test_src", "a", "test"))
        ]
        return homogenize + [
            ("merge", ["merge", "a.conll", "b.conll", "--out", "merged.conll", "--seed", str(seed)],
             ["merged.conll", "merged.conll.manifest.json"]),
            ("project", ["project", "--src", "test.conll", "--align", f"{i}align.jsonl",
                         "--out", "projected.conll"],
             ["projected.conll", "projected.conll.manifest.json"]),
            ("evaluate", ["evaluate", "--gold", f"{i}test_tgt_gold.conll", "--pred",
                          "projected.conll", "--json", "report.json"],
             ["report.json", "evaluate.manifest.json"]),
        ]
    if workload == "train":
        return [
            ("train", ["train", "--train", f"{i}train.conll", "--mlm", f"{i}mlm.txt",
                       "--out", "model.json", "--seed", str(seed), "--epochs", str(TRAIN_EPOCHS)],
             ["model.json", "model.json.manifest.json"]),
            ("predict", ["predict", "--model", "model.json", "--in", f"{i}heldout.conll",
                         "--out", "pred.conll"],
             ["pred.conll", "pred.conll.manifest.json"]),
            ("evaluate", ["evaluate", "--gold", f"{i}heldout.conll", "--pred", "pred.conll",
                          "--json", "report.json"],
             ["report.json", "evaluate.manifest.json"]),
        ]
    return [
        ("significance", ["significance", "--scores", f"{i}scores.csv", "--baseline", "baseline",
                          "--boot", "1000", "--alpha", "0.05", "--seed", str(seed),
                          "--out", "table.txt", "--json", "table.json"],
         ["table.txt", "table.json", "table.txt.manifest.json"]),
    ]


def generate(workload: str, seed: int, inputs: Path) -> dict:
    if workload == "transfer":
        return gen.transfer(seed, inputs)
    if workload == "train":
        return gen.train(seed, inputs, TRAIN_EPOCHS)
    return gen.significance(seed, inputs)


def time_setup(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported slukit.cli."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), "--setup-only"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import slukit.cli")
    return elapsed


def environment(seed: int, props: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: BLAS_THREADS for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_commit": commit,
        "seed": seed, "inputs": props,
    }


def failed_steps(workload_steps, loop: dict, semantic: set) -> set:
    """(iteration, step index) pairs that exited non-zero, lost an output,
    wrote bytes differing from the first untraced iteration, or failed a check."""
    bad = set()
    for it, (codes, digests) in enumerate(zip(loop["codes"], loop["digests"])):
        for k, ((name, _, outputs), code) in enumerate(zip(workload_steps, codes)):
            if code != 0 or any(f not in digests for f in outputs):
                bad.add((it, k))
            elif any(digests[f] != loop["reference"].get(f) for f in outputs):
                bad.add((it, k))
            elif name in semantic:
                bad.add((it, k))
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description="slukit benchmark")
    parser.add_argument("--workload", required=True, choices=("transfer", "train", "significance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    src = ROOT / "src"
    if not (src / "slukit" / "cli.py").is_file():
        print(f"error: no slukit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import check  # imports slukit, so only once the sources are known to be there

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    generated = generate(args.workload, args.seed, work / "inputs")
    workload_steps = steps(args.workload, args.seed)

    env = dict(os.environ, PYTHONPATH=str(src), **{v: BLAS_THREADS for v in THREAD_VARS})
    time_setup(env)  # discarded: the first interpreter also compiles bytecode
    setup = [time_setup(env) for _ in range(SETUP_SAMPLES)]

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    plan = {
        "root": str(ROOT), "work": str(work), "result": str(work / "worker.json"),
        "steps": [argv for _, argv, _ in workload_steps], "trace": bool(args.trace),
        "budget_untraced": untraced_budget, "budget_traced": args.seconds - untraced_budget,
        "min_iters": 2 if args.trace else 3, "train_tokens": generated.get("train_tokens", 0),
    }
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    remaining = TIME_LIMIT_S - (perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "--plan", str(work / "plan.json")],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not finish within {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))

    loops = {"untraced": result["untraced"]}
    if args.trace:
        loops["traced"] = result["traced"]
    reference = result["untraced"]["digests"][0]
    names = [name for name, _, _ in workload_steps]
    problems, figures, attempted, failed = [], {}, 0, 0
    for mode, loop in loops.items():
        loop["reference"] = reference
        problems += loop["errors"]
        fails, figures = check.verify(args.workload, Path(loop["last_dir"]), generated["truth"],
                                      names)
        problems += [f"{mode}: {step}: {message}" for step, message in fails]
        attempted += len(loop["codes"]) * len(workload_steps)
        failed += len(failed_steps(workload_steps, loop, {step for step, _ in fails}))

    # Self-test: the checks must reject a deliberately corrupted output.
    last = Path(result["untraced"]["last_dir"])
    try:
        check.corrupt(args.workload, last)
    except OSError:
        pass  # an output is missing; the checks below fail on that already
    caught = check.verify(args.workload, last, generated["truth"], names)[0]
    if not caught:
        problems.append("self-test: a corrupted output passed the checks")

    walls = result["untraced"]["walls"]
    wall = statistics.median(walls)
    tokens = generated["tokens"]
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    extra = {
        "wall_s_max": (max(walls), "s"),
        "iterations": (len(walls), "count"),
        "error_rate": (failed / attempted, "ratio"),
    }
    if tokens:
        extra["tokens_per_s"] = (tokens / wall, "tokens/s")
    for name in ("slot_f1", "intent_acc"):
        if name in figures:
            extra[name] = (figures[name], "ratio")
    for name, (value, unit) in {**end_to_end, **extra}.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    step_medians = [statistics.median(col) for col in zip(*result["untraced"]["step_times"])]
    for (name, _, _), t in zip(workload_steps, step_medians):
        print(f"step\t{name}\t{t:.6g}\ts")

    per_layer = {}
    if args.trace:
        traced = result["traced"]
        per_layer = {n: statistics.median(m[n] for m in traced["layers"])
                     for n in traced["layers"][0]}
        per_layer["projection.spans_lost_ratio"] = figures.get("spans_lost_ratio", 0.0)
        per_layer["trace_overhead_s"] = statistics.median(traced["walls"]) - wall
        per_layer["result.tokens_per_s"] = tokens / wall if tokens else 0.0
        per_layer["result.slot_f1"] = figures.get("slot_f1", 0.0)
        per_layer["result.intent_acc"] = figures.get("intent_acc", 0.0)
        traced_wall = statistics.median(traced["walls"])
        for name in sorted(per_layer):
            print(f"layer\t{name}\t{per_layer[name]:.6g}\t{LAYER_UNITS.get(name, 's')}")
        for layer in tracer.LAYERS:
            share = per_layer[f"{layer}.self_s"] / traced_wall
            print(f"share\t{layer}\t{share:.4f}\tof traced wall_s")

    for problem in problems[:10]:
        print(f"problem\t{problem}")
    if len(problems) > 10:
        print(f"problem\t... {len(problems) - 10} more in results.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed, generated["props"]),
        "setup_samples_s": setup, "walls_s": walls, "step_medians_s": dict(
            zip([f"{k}:{s[0]}" for k, s in enumerate(workload_steps)], step_medians)),
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "extra": {k: v[0] for k, v in extra.items()},
        "per_layer": per_layer, "problems": problems,
        "self_test": [f"{step}: {message}" for step, message in caught],
    }
    (work / "results.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)

    chosen = per_layer if args.trace else {k: v[0] for k, v in end_to_end.items()}
    units = {k: LAYER_UNITS.get(k, "s") for k in per_layer} if args.trace else {
        k: v[1] for k, v in end_to_end.items()}
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
