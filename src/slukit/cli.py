"""Command line entry point wiring the toolkit into file-based pipelines.

``run`` does all file I/O. It checks every output path first (none
empty, no two on one file, parent made, a directory rejected), so a bad
path fails before any work. Each ``_cmd_*`` handler reads every input
through ``_load``, which records the sha256 of the exact bytes it parsed
and prefixes an error in them with the path as given, and returns
``(outputs, extras)``: per output flag, text or a function that writes a
given path, plus manifest extras.
``run`` writes the outputs atomically, then one manifest (command, flags,
input digests, seed, tool version, extras) beside ``--out``, or in the
working directory when there is none. Exit codes: 0 success, 1 module
error (message on stderr), 2 usage error. The handlers that need numpy
(``project``, ``train``, ``predict``, ``significance``) import their
module in their first line, so the other commands never load it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__, corpus, homogenize, metrics, sampler
from .config import TrainConfig
from .errors import ParseError, ToolkitError

OUT_FLAGS = ("out", "json")  # every output flag; the manifest goes beside --out
# --mlm tokens split at spaces and tabs only: a dataset token may hold other whitespace (U+00A0).
_MLM_TOKEN_RE = re.compile(r"[^ \t\n]+")


def _read_text(path: str, digests: dict[str, str]) -> str:
    """Decode ``path`` as ``Path.read_text`` does; record the sha256 of its bytes in ``digests``."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise ToolkitError(f"cannot read {path}: {err.strerror or err}") from None
    digests[path] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ToolkitError(f"cannot read {path}: not UTF-8 text (byte {err.start})") from None
    if "\r" in text:  # universal newlines; an LF-only text needs no pass
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _check_out(path: Path) -> None:
    """Make the parent of output ``path`` and reject a directory in its place."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ToolkitError(f"cannot write {path}: {err.strerror or err}") from None
    if path.is_dir():
        raise ToolkitError(f"cannot write {path}: is a directory")


@contextmanager
def _writing(path: Path):
    """Yield a temporary sibling of ``path`` to write; on success it replaces ``path``.

    ``os.replace`` moves it onto ``path`` only once the block finishes, so
    a write that fails part-way leaves any previous file untouched; the
    temporary file is removed on any failure. OS failures read ``cannot
    write PATH``; the parent directory must exist (``_check_out`` makes it).
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # per process: runs never share one
    try:
        yield tmp
        os.replace(tmp, path)
    except OSError as err:
        raise ToolkitError(f"cannot write {path}: {err.strerror or err}") from None
    finally:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _writing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _digest(path: str) -> str:
    """sha256 of the file at ``path``.

    No command calls it, since ``_read_text`` hashes what it reads; the
    benchmark's tracer (``perfbench/tracer.py``) wraps this name.
    """
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as err:
        raise ToolkitError(f"cannot read {path}: {err.strerror or err}") from None


def _load(path: str, digests: dict[str, str], parse=None):
    """Read ``path`` and return ``parse(text)``, a dataset by default; errors name ``path``."""
    text = _read_text(path, digests)
    try:
        # looked up per call, so a wrapper put on corpus.parse_dataset sees every parse
        return (parse or corpus.parse_dataset)(text)
    except (ToolkitError, csv.Error) as err:
        raise ToolkitError(f"{path}: {err}") from None


def _write_manifest(args, digests: dict[str, str], target: Path, extra: dict) -> None:
    """Record enough to replay the run: flags, input digests, seed, version."""
    config = {k: v for k, v in vars(args).items() if k != "handler" and not k.startswith("_")}
    manifest = {
        "command": args._command,
        "config": config,
        "inputs": digests,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        **extra,
    }
    _write_text(target, _json_text(manifest))


def _cmd_validate(args, digests):
    issues = corpus.validate(_load(args.infile, digests))
    for issue in issues:
        print(f"{issue.utterance_id}\t{issue.position}\t{issue.kind.value}")
    print(f"issues\t{len(issues)}")
    return {}, {}


def _cmd_evaluate(args, digests):
    gold = _load(args.gold, digests)
    pred = _load(args.pred, digests)
    report = metrics.strict_f1(gold, pred)
    text = metrics.format_report(report)
    sys.stdout.write(text)
    json_text = _json_text(metrics.report_to_json(report)) if args.json else None
    return {"out": text, "json": json_text}, {}


def _cmd_project(args, digests):
    from . import projection

    src = _load(args.src, digests)
    alignments = _load(args.align, digests, projection.parse_alignments)
    projected = projection.project_dataset(src, alignments)
    return {"out": corpus.write_dataset(projected)}, {}


def _cmd_homogenize(args, digests):
    ds = _load(args.infile, digests)
    lmap = _load(args.map, digests, homogenize.parse_label_map)
    out = homogenize.apply_label_map(ds, lmap)
    if words := [t for t in (args.trim or "").split(",") if t]:  # "--trim ," trims nothing
        out = homogenize.trim_spans(out, words)
    return {"out": corpus.write_dataset(out)}, {}


def _cmd_merge(args, digests):
    # each input is checked as a dataset, but only its block texts are shuffled and written
    pools = [_load(path, digests, corpus.parse_blocks) for path in args.inputs]
    merged = homogenize.merge_shuffle(pools, args.seed)
    return {"out": corpus.write_blocks(merged)}, {"rng": homogenize.RNG_ALGORITHM}


def _cmd_schedule(args, digests):
    names = [n for n in args.names.split(",") if n]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as err:
        raise ToolkitError(f"--sizes: {err}") from None
    if len(names) != len(sizes):
        raise ToolkitError(f"{len(names)} names but {len(sizes)} sizes")
    tasks = [sampler.TaskSpec(name, size) for name, size in zip(names, sizes)]
    schedule = sampler.schedule_epoch(tasks, args.batches, args.alpha, args.seed)
    weights = sampler.sampling_weights(sizes, args.alpha)
    for name, weight in zip(names, weights):
        print(f"weight\t{name}\t{weight:.6f}")
    for name in names:
        print(f"batches\t{name}\t{schedule.counts[name]}")
    payload = {
        "seed": schedule.seed,
        "alpha": args.alpha,
        "weights": {n: w for n, w in zip(names, weights)},
        "counts": schedule.counts,
        "draws": [list(d) for d in schedule.draws],
    }
    return {"out": _json_text(payload) if args.out else None}, {}


def _raw_sentences(text: str) -> list[list[str]]:
    """The ``--mlm`` text's token lists, one per line that holds a token."""
    return [s for s in map(_MLM_TOKEN_RE.findall, text.split("\n")) if s]


def _cmd_train(args, digests):
    from . import tagger

    data = _load(args.train, digests)
    mlm_sentences = _load(args.mlm, digests, _raw_sentences) if args.mlm else None
    hyper = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)}
    config = TrainConfig(**hyper)
    try:
        model, log = tagger.train(data, config, mlm_sentences)
    except ToolkitError as err:  # named after the model file it leaves unwritten
        raise ToolkitError(f"{args.out}: {err}") from None
    for entry in log:
        losses = [getattr(entry, task) for task in tagger.HEADS]
        cells = ["-" if v is None else f"{v:.6f}" for v in losses]
        print("\t".join(["epoch", str(entry.epoch), f"{entry.total:.6f}", *cells]))
    return {"out": lambda path: tagger.save_model(model, path)}, {}


def _cmd_predict(args, digests):
    from . import tagger

    model = _load(args.model, digests, tagger.loads_model)
    data = _load(args.infile, digests)
    return {"out": corpus.write_dataset(tagger.predict_dataset(model, data))}, {}


def _agreement_table(text: str) -> metrics.AgreementTable:
    header, rows = corpus.csv_rows(text)
    rows = list(rows)
    if len(header) < 2 or not rows:
        raise ToolkitError("need a header row and at least one item row")
    item, *categories = header
    counts = []
    for line, row in rows:
        try:
            votes = tuple(int(row[c]) for c in categories)
        except ValueError:
            raise ParseError(f"non-integer count in row {row[item]!r}", line=line) from None
        # AgreementTable makes the same checks, but can name only an item index
        if any(c < 0 for c in votes):
            raise ParseError("negative count", line=line)
        if counts and sum(votes) != sum(counts[0]):
            raise ParseError(f"row sums to {sum(votes)}, expected {sum(counts[0])}", line=line)
        counts.append(votes)
    return metrics.AgreementTable(tuple(counts), sum(counts[0]))


def _cmd_agreement(args, digests):
    kappa = metrics.fleiss_kappa(_load(args.table, digests, _agreement_table))
    print(f"fleiss_kappa\t{kappa:.4f}")
    return {}, {}


def _pearson(text: str, x: str, y: str) -> float:
    header, rows = corpus.csv_rows(text)
    for col in (x, y):
        if col not in header:
            raise ToolkitError(f"no column {col!r}")
    xs, ys = [], []
    for line, row in rows:
        try:
            xs.append(float(row[x]))
            ys.append(float(row[y]))
        except ValueError:
            raise ParseError(f"non-numeric value in row {row!r}", line=line) from None
    return metrics.pearson(xs, ys)


def _cmd_correlate(args, digests):
    r = _load(args.scores, digests, lambda text: _pearson(text, args.x, args.y))
    print(f"pearson\t{r:.4f}")
    return {}, {}


def _score_table(text: str, metric: str | None, baseline: str) -> dict:
    """One metric's ``(system, language) -> sample`` table from a score CSV."""
    from . import significance

    cells = significance.parse_scores_csv(text)
    if not cells:
        raise ToolkitError("no score rows")
    present = sorted({m for _, _, m in cells})
    if metric is None and len(present) != 1:
        raise ToolkitError(f"has metrics {','.join(present)}; pick one with --metric")
    metric = present[0] if metric is None else metric
    scores = {(system, language): s for (system, language, m), s in cells.items() if m == metric}
    if not scores:
        raise ToolkitError(f"no rows with metric {metric!r}")
    significance.baseline_languages(scores, baseline)
    return scores


def _cmd_significance(args, digests):
    from . import significance

    scores = _load(args.scores, digests, lambda t: _score_table(t, args.metric, args.baseline))
    table = significance.compare_table(
        scores, args.baseline, alpha=args.alpha, n_boot=args.boot, seed=args.seed
    )
    text = significance.format_comparison(table)
    sys.stdout.write(text)
    json_text = _json_text(significance.comparison_to_json(table)) if args.json else None
    return {"out": text, "json": json_text}, {}


def _count(text: str) -> int:
    """argparse type of a count flag: an int >= 1, so a usage error names the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The slukit argument parser, built once per process and shared by every ``run``.

    Sharing it is safe: ``parse_args`` fills a fresh namespace per call,
    and no default is a mutable object a call could change.
    """
    parser = argparse.ArgumentParser(
        prog="slukit",
        description="Evaluation and transfer toolkit for intent and slot data",
    )
    parser.add_argument("--version", action="version", version=f"slukit {__version__}")
    sub = parser.add_subparsers(dest="_command", required=True, metavar="command")

    p = sub.add_parser("validate", help="list BIO violations in a dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", help="write the text report here as well")
    p.add_argument("--json", help="write the full JSON report here")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("project", help="project labels through an alignment file")
    p.add_argument("--src", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("homogenize", help="rename labels onto a shared schema")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trim", help="comma-separated function words to trim from span starts; "
                   "naming any word also repairs every tag sequence")
    p.set_defaults(handler=_cmd_homogenize)

    p = sub.add_parser("merge", help="concatenate and shuffle datasets")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("schedule", help="draw one epoch of task batches")
    p.add_argument("--names", required=True, help="comma-separated task names")
    p.add_argument("--sizes", required=True, help="comma-separated task sizes")
    p.add_argument("--batches", type=_count, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the full schedule as JSON")
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("train", help="train the joint tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--mlm", help="raw text file (one tokenised sentence per line)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    for field in dataclasses.fields(TrainConfig):  # defaults live in TrainConfig only
        if field.name != "seed":
            kind = float if isinstance(field.default, float) else int
            p.add_argument(f"--{field.name.replace('_', '-')}", type=kind, default=field.default)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="tag a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("agreement", help="Fleiss kappa over an item-by-category count CSV")
    p.add_argument("--table", required=True)
    p.set_defaults(handler=_cmd_agreement)

    p = sub.add_parser("correlate", help="Pearson correlation between two CSV columns")
    p.add_argument("--scores", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("significance", help="almost-stochastic-order comparison table")
    p.add_argument("--scores", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--metric", help="metric to compare (required when the file has several)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boot", type=_count, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the text table here as well")
    p.add_argument("--json", help="write the JSON table here")
    p.set_defaults(handler=_cmd_significance)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        given = {f: getattr(args, f) for f in OUT_FLAGS if getattr(args, f, None) is not None}
        for flag, value in given.items():
            if not value:
                raise ToolkitError(f"--{flag}: empty output path")
        targets = {f: Path(value) for f, value in given.items()}
        primary = targets.get("out") or Path(args._command)
        manifest = primary.with_name(primary.name + ".manifest.json")
        roles = {f"--{flag}": path for flag, path in targets.items()} | {"the manifest": manifest}
        claimed: dict[str, str] = {}
        for role, path in roles.items():
            other = claimed.setdefault(os.path.realpath(path), role)
            if other != role:
                raise ToolkitError(f"cannot write {path}: {role} is the same file as {other}")
        for path in roles.values():
            _check_out(path)
        digests: dict[str, str] = {}
        outputs, extra = args.handler(args, digests)
        for flag, path in targets.items():
            if callable(outputs[flag]):
                with _writing(path) as tmp:
                    outputs[flag](tmp)
            else:
                _write_text(path, outputs[flag])
        _write_manifest(args, digests, manifest, extra)
    except ToolkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
