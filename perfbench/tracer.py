"""Spans around the public functions of each slukit module.

The tracer replaces module attributes with timing wrappers inside the
benchmark process only; the program itself is unchanged. A name is
wrapped where its caller looks it up: ``tagger`` imports
``schedule_epoch`` by name, so the wrapper goes on
``slukit.tagger.schedule_epoch``. Calls made inside a module through its
own globals (``significance.aso`` from ``compare_table``,
``tagger.encode`` from ``predict``) go through the module dictionary
and are caught the same way. Per-token helpers such as ``bio.parse_tag``
stay unwrapped.

Spans are (name, start, end, parent index, run id) tuples kept in
memory; counters are updated at the same boundaries.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "corpus", "bio", "homogenize", "projection", "sampler", "tagger",
          "metrics", "significance")


def _size(counter):
    def count(counts, args, kwargs, result):
        counts[counter] += os.stat(args[0]).st_size
    return count


def _written(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.stat(args[0]).st_size


def _parsed(counts, args, kwargs, result):
    counts["corpus.parse_utts"] += len(result)


def _serialised(counts, args, kwargs, result):
    counts["corpus.write_utts"] += len(args[0])


def _repaired(counts, args, kwargs, result):
    counts["bio.repair_calls"] += 1
    if result != list(args[0]):
        counts["bio.repair_changed"] += 1


def _cells(counts, args, kwargs, result):
    counts["projection.score_cells"] += sum(
        len(r.src_tokens) * len(r.tgt_tokens) for r in result)


def _draws(counts, args, kwargs, result):
    counts["sampler.draws"] += len(result.draws)


def _checkpoint(counts, args, kwargs, result):
    counts["tagger.checkpoint_bytes"] += os.stat(args[1]).st_size


def _predicted(counts, args, kwargs, result):
    counts["tagger.predict_tokens"] += sum(len(u.tokens) for u in args[1])


def _scored(counts, args, kwargs, result):
    counts["metrics.spans_scored"] += sum(
        2 * s.tp + s.fp + s.fn for s in result.per_label.values())


def _replicates(counts, args, kwargs, result):
    counts["significance.replicates"] += kwargs.get("n_boot", 1000)


# (module, attribute, span name or None for a counter only, counter)
WRAPS = (
    ("cli", "run", "cli.run", None),
    ("cli", "_read_text", None, _size("cli.bytes_read")),
    ("cli", "_digest", None, _size("cli.bytes_read")),
    ("cli", "_write_text", None, _written),
    ("corpus", "parse_dataset", "corpus.parse_dataset", _parsed),
    ("corpus", "write_dataset", "corpus.write_dataset", _serialised),
    ("corpus", "validate", "corpus.validate", None),
    ("bio", "tag_issues", "bio.tag_issues", None),
    ("bio", "repair", "bio.repair", _repaired),
    ("bio", "spans_from_tags", "bio.spans_from_tags", None),
    ("bio", "tags_from_spans", "bio.tags_from_spans", None),
    ("homogenize", "parse_label_map", "homogenize.parse_label_map", None),
    ("homogenize", "apply_label_map", "homogenize.apply_label_map", None),
    ("homogenize", "trim_spans", "homogenize.trim_spans", None),
    ("homogenize", "merge_shuffle", "homogenize.merge_shuffle", None),
    ("projection", "parse_alignments", "projection.parse_alignments", _cells),
    ("projection", "project_dataset", "projection.project_dataset", None),
    ("tagger", "schedule_epoch", "sampler.schedule_epoch", _draws),
    ("tagger", "build_vocab", "tagger.build_vocab", None),
    ("tagger", "train", "tagger.train", None),
    ("tagger", "mask_tokens", "tagger.mask_tokens", None),
    ("tagger", "save_model", "tagger.save_model", _checkpoint),
    ("tagger", "load_model", "tagger.load_model", None),
    ("tagger", "predict_dataset", "tagger.predict_dataset", _predicted),
    ("tagger", "predict", "tagger.predict", None),
    ("tagger", "encode", "tagger.encode", None),
    ("metrics", "strict_f1", "metrics.strict_f1", _scored),
    ("metrics", "format_report", "metrics.format_report", None),
    ("metrics", "report_to_json", "metrics.report_to_json", None),
    ("significance", "parse_scores_csv", "significance.parse_scores_csv", None),
    ("significance", "compare_table", "significance.compare_table", None),
    ("significance", "aso", "significance.aso", _replicates),
    ("significance", "format_comparison", "significance.format_comparison", None),
    ("significance", "comparison_to_json", "significance.comparison_to_json", None),
)


class Tracer:
    """Installs the wrappers and collects spans and counters per run id."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, dict[str, float]] = {}
        self.run_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    def install(self) -> None:
        for module_name, attr, span, counter in WRAPS:
            module = importlib.import_module("slukit." + module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span, counter))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts[run_id] = defaultdict(float)

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.run_id)
            if counter is not None:
                counter(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced


def summarise(spans) -> dict[int, dict[str, dict[str, float]]]:
    """Per run id: total time, self time and call count for each span name.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, dict[str, float]]] = {}
    for k, (name, start, end, parent, run_id) in enumerate(spans):
        entry = out.setdefault(run_id, {}).setdefault(
            name, {"total": 0.0, "self": 0.0, "calls": 0})
        entry["total"] += end - start
        entry["self"] += end - start - child_time[k]
        entry["calls"] += 1
    return out


def layer_metrics(by_name: dict, counts: dict, failed_steps: int, train_tokens: int) -> dict:
    """Per-layer metrics of one traced iteration, named as in BENCHMARK.json."""
    total = lambda n: by_name.get(n, {}).get("total", 0.0)
    calls = lambda n: by_name.get(n, {}).get("calls", 0)
    rate = lambda num, den: num / den if den else 0.0
    c = lambda k: counts.get(k, 0.0)
    m = {
        "cli.bytes_read": c("cli.bytes_read"),
        "cli.bytes_written": c("cli.bytes_written"),
        "cli.steps_failed": failed_steps,
        "corpus.parse_s": total("corpus.parse_dataset"),
        "corpus.parse_utts_per_s": rate(c("corpus.parse_utts"), total("corpus.parse_dataset")),
        "corpus.write_s": total("corpus.write_dataset"),
        "corpus.write_utts_per_s": rate(c("corpus.write_utts"), total("corpus.write_dataset")),
        "bio.repair_s": total("bio.repair"),
        "bio.repair_calls": c("bio.repair_calls"),
        "bio.repair_changed_ratio": rate(c("bio.repair_changed"), c("bio.repair_calls")),
        "bio.spans_from_tags_s": total("bio.spans_from_tags"),
        "homogenize.map_s": total("homogenize.apply_label_map"),
        "homogenize.trim_s": total("homogenize.trim_spans"),
        "homogenize.merge_s": total("homogenize.merge_shuffle"),
        "projection.parse_s": total("projection.parse_alignments"),
        "projection.project_s": total("projection.project_dataset"),
        "projection.score_cells": c("projection.score_cells"),
        "sampler.schedule_s": total("sampler.schedule_epoch"),
        "sampler.draws": c("sampler.draws"),
        "tagger.train_s": total("tagger.train"),
        "tagger.train_tokens_per_s": rate(train_tokens if calls("tagger.train") else 0,
                                          total("tagger.train")),
        "tagger.mask_s": total("tagger.mask_tokens"),
        "tagger.save_s": total("tagger.save_model"),
        "tagger.load_s": total("tagger.load_model"),
        "tagger.checkpoint_bytes": c("tagger.checkpoint_bytes"),
        "tagger.predict_s": total("tagger.predict_dataset"),
        "tagger.predict_tokens_per_s": rate(c("tagger.predict_tokens"),
                                            total("tagger.predict_dataset")),
        "tagger.encode_s": total("tagger.encode"),
        "metrics.eval_s": total("metrics.strict_f1"),
        "metrics.spans_scored": c("metrics.spans_scored"),
        "significance.parse_s": total("significance.parse_scores_csv"),
        "significance.table_s": total("significance.compare_table"),
        "significance.aso_s": total("significance.aso"),
        "significance.aso_calls": calls("significance.aso"),
        "significance.replicates_per_s": rate(c("significance.replicates"),
                                              total("significance.aso")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v["self"] for n, v in by_name.items() if n.split(".", 1)[0] == layer)
    return m
