"""Command line entry point wiring the toolkit into file-based pipelines.

Every run writes a manifest (command, resolved flags, sha256 digests of
the inputs, seed, tool version) next to its primary output, or into the
working directory when a command only prints. Set SLUKIT_OUT_DIR to
redirect relative output paths into another directory. Exit codes:
0 success, 1 module error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__, corpus, homogenize, metrics, projection, sampler, significance, tagger
from .errors import ToolkitError

OUT_DIR_ENV = "SLUKIT_OUT_DIR"


def _resolve_out(path: str) -> Path:
    base = os.environ.get(OUT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ToolkitError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ToolkitError(f"cannot read {path}: not UTF-8 text (byte {err.start})") from None


@contextmanager
def _writing(path: Path):
    """Create the parent directory of an output and report OS failures as errors."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as err:
        raise ToolkitError(f"cannot write {path}: {err.strerror or err}") from None


def _write_text(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text, encoding="utf-8")


def _digest(path: str) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as err:
        raise ToolkitError(f"cannot read {path}: {err.strerror or err}") from None


def _load_dataset(path: str) -> corpus.Dataset:
    return corpus.parse_dataset(_read_text(path), name=Path(path).stem)


def _write_manifest(args, inputs: list[str], primary_out: str | None, extra=None) -> None:
    """Record enough to replay the run: flags, input digests, seed, version."""
    config = {
        k: v for k, v in vars(args).items() if k != "handler" and not k.startswith("_")
    }
    manifest = {
        "command": args._command,
        "config": config,
        "inputs": {path: _digest(path) for path in inputs},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
    }
    if extra:
        manifest.update(extra)
    if primary_out is not None:
        out = _resolve_out(primary_out)
        target = out.with_name(out.name + ".manifest.json")
    else:
        target = _resolve_out(f"{args._command}.manifest.json")
    _write_text(target, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _cmd_validate(args) -> None:
    ds = _load_dataset(args.infile)
    issues = corpus.validate(ds)
    for issue in issues:
        print(f"{issue.utterance_id}\t{issue.position}\t{issue.kind.value}")
    print(f"issues\t{len(issues)}")
    _write_manifest(args, [args.infile], None)


def _cmd_evaluate(args) -> None:
    gold = _load_dataset(args.gold)
    pred = _load_dataset(args.pred)
    report = metrics.strict_f1(gold, pred)
    text = metrics.format_report(report)
    sys.stdout.write(text)
    if args.out:
        _write_text(_resolve_out(args.out), text)
    if args.json:
        _write_text(
            _resolve_out(args.json),
            json.dumps(metrics.report_to_json(report), sort_keys=True, indent=2) + "\n",
        )
    _write_manifest(args, [args.gold, args.pred], args.out)


def _cmd_project(args) -> None:
    src = _load_dataset(args.src)
    alignments = projection.parse_alignments(_read_text(args.align))
    projected = projection.project_dataset(src, alignments)
    _write_text(_resolve_out(args.out), corpus.write_dataset(projected))
    _write_manifest(args, [args.src, args.align], args.out)


def _cmd_homogenize(args) -> None:
    ds = _load_dataset(args.infile)
    lmap = homogenize.parse_label_map(_read_text(args.map))
    out = homogenize.apply_label_map(ds, lmap)
    if args.trim:
        out = homogenize.trim_spans(out, [t for t in args.trim.split(",") if t])
    _write_text(_resolve_out(args.out), corpus.write_dataset(out))
    _write_manifest(args, [args.infile, args.map], args.out)


def _cmd_merge(args) -> None:
    datasets = [_load_dataset(path) for path in args.inputs]
    merged = homogenize.merge_shuffle(datasets, args.seed)
    _write_text(_resolve_out(args.out), corpus.write_dataset(merged))
    _write_manifest(
        args, list(args.inputs), args.out, extra={"rng": homogenize.RNG_ALGORITHM}
    )


def _cmd_schedule(args) -> None:
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
    if args.out:
        payload = {
            "seed": schedule.seed,
            "alpha": args.alpha,
            "weights": {n: w for n, w in zip(names, weights)},
            "counts": schedule.counts,
            "draws": [list(d) for d in schedule.draws],
        }
        _write_text(_resolve_out(args.out), json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _write_manifest(args, [], args.out)


def _cmd_train(args) -> None:
    data = _load_dataset(args.train)
    mlm_sentences = None
    inputs = [args.train]
    if args.mlm:
        mlm_sentences = [line.split() for line in _read_text(args.mlm).splitlines() if line.split()]
        inputs.append(args.mlm)
    config = tagger.TrainConfig(
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        w_intent=args.w_intent,
        w_slot=args.w_slot,
        w_mlm=args.w_mlm,
        mask_rate=args.mask_rate,
        alpha=args.alpha,
        min_count=args.min_count,
        batches_per_epoch=args.batches_per_epoch,
        max_mlm_sentences=args.max_mlm_sentences,
    )
    out = _resolve_out(args.out)
    with _writing(out):  # creates the parent, so a bad --out fails before training
        if out.is_dir():
            raise ToolkitError(f"cannot write {out}: is a directory")
    model, log = tagger.train(data, config, mlm_sentences)
    with _writing(out):
        tagger.save_model(model, out)
    fmt = lambda v: "-" if v is None else f"{v:.6f}"
    for entry in log:
        print(
            f"epoch\t{entry.epoch}\t{entry.total:.6f}"
            f"\t{fmt(entry.intent)}\t{fmt(entry.slot)}\t{fmt(entry.mlm)}"
        )
    _write_manifest(args, inputs, args.out)


def _cmd_predict(args) -> None:
    model = _load_model(args.model)
    data = _load_dataset(args.infile)
    predicted = tagger.predict_dataset(model, data)
    _write_text(_resolve_out(args.out), corpus.write_dataset(predicted))
    _write_manifest(args, [args.model, args.infile], args.out)


def _load_model(path: str) -> tagger.TaggerModel:
    if not Path(path).exists():
        raise ToolkitError(f"cannot read {path}: no such file")
    try:
        return tagger.load_model(path)
    except OSError as err:
        raise ToolkitError(f"cannot read {path}: {err.strerror or err}") from None


def _cmd_agreement(args) -> None:
    rows = list(csv.reader(io.StringIO(_read_text(args.table))))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ToolkitError(f"{args.table}: need a header row and at least one item row")
    counts = []
    for row in rows[1:]:
        try:
            counts.append(tuple(int(c) for c in row[1:]))
        except ValueError:
            raise ToolkitError(f"{args.table}: non-integer count in row {row[0]!r}") from None
    table = metrics.AgreementTable(tuple(counts), n_annotators=sum(counts[0]))
    print(f"fleiss_kappa\t{metrics.fleiss_kappa(table):.4f}")
    _write_manifest(args, [args.table], None)


def _cmd_correlate(args) -> None:
    reader = csv.DictReader(io.StringIO(_read_text(args.scores)))
    fields = reader.fieldnames or []
    for col in (args.x, args.y):
        if col not in fields:
            raise ToolkitError(f"{args.scores}: no column {col!r}")
    xs, ys = [], []
    for row in reader:
        try:
            xs.append(float(row[args.x]))
            ys.append(float(row[args.y]))
        except (TypeError, ValueError):
            raise ToolkitError(f"{args.scores}: non-numeric value in row {row!r}") from None
    print(f"pearson\t{metrics.pearson(xs, ys):.4f}")
    _write_manifest(args, [args.scores], None)


def _cmd_significance(args) -> None:
    cells = significance.parse_scores_csv(_read_text(args.scores))
    metrics_present = sorted({metric for _, _, metric in cells})
    metric = args.metric
    if metric is None:
        if len(metrics_present) != 1:
            raise ToolkitError(
                "score file has metrics "
                + ",".join(metrics_present)
                + "; pick one with --metric"
            )
        metric = metrics_present[0]
    scores = {
        (system, language): sample
        for (system, language, m), sample in cells.items()
        if m == metric
    }
    if not scores:
        raise ToolkitError(f"no rows with metric {metric!r}")
    table = significance.compare_table(
        scores, args.baseline, alpha=args.alpha, n_boot=args.boot, seed=args.seed
    )
    text = significance.format_comparison(table)
    sys.stdout.write(text)
    if args.out:
        _write_text(_resolve_out(args.out), text)
    if args.json:
        _write_text(
            _resolve_out(args.json),
            json.dumps(significance.comparison_to_json(table), sort_keys=True, indent=2) + "\n",
        )
    _write_manifest(args, [args.scores], args.out)


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--trim", help="comma-separated function words to trim from span starts")
    p.set_defaults(handler=_cmd_homogenize)

    p = sub.add_parser("merge", help="concatenate and shuffle datasets")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("schedule", help="draw one epoch of task batches")
    p.add_argument("--names", required=True, help="comma-separated task names")
    p.add_argument("--sizes", required=True, help="comma-separated task sizes")
    p.add_argument("--batches", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the full schedule as JSON")
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("train", help="train the joint tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--mlm", help="raw text file (one tokenised sentence per line)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--w-intent", type=float, default=1.0)
    p.add_argument("--w-slot", type=float, default=1.0)
    p.add_argument("--w-mlm", type=float, default=0.01)
    p.add_argument("--mask-rate", type=float, default=0.15)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--batches-per-epoch", type=int, default=None)
    p.add_argument("--max-mlm-sentences", type=int, default=100_000)
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
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the text table here as well")
    p.add_argument("--json", help="write the JSON table here")
    p.set_defaults(handler=_cmd_significance)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except ToolkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
