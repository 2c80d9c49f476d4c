"""Span F1 under three matching regimes, intent accuracy, agreement, correlation.

The three regimes share precision = matched predictions / all predictions
and recall = matched gold / all gold, with F1 their harmonic mean (0 when
both are 0):

* strict: a predicted span counts only if start, end and label all match
  a gold span exactly.
* unlabeled: only the boundaries have to match; the label is ignored.
* loose: a span on either side is matched as soon as it shares at least
  one token with a span of the same label on the other side. Matching is
  many-to-many and each span is counted once per side, so precision and
  recall use different match counts.

Predicted tag sequences are repaired into valid BIO before scoring; gold
sequences are required to be valid already.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import bio
from .corpus import Dataset
from .errors import AlignmentError, StructuralError

REGIMES = ("strict", "unlabeled", "loose")


@dataclass(frozen=True)
class MicroScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class LabelScores:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """Complete evaluation result for a (gold, pred) dataset pair."""

    per_label: dict[str, LabelScores]
    micro: dict[str, MicroScores]
    intent_accuracy: float
    n_utterances: int


def _scores(hits_pred: int, n_pred: int, hits_gold: int, n_gold: int) -> MicroScores:
    """Precision hits_pred / n_pred and recall hits_gold / n_gold (0 when empty), with F1."""
    p = hits_pred / n_pred if n_pred else 0.0
    r = hits_gold / n_gold if n_gold else 0.0
    return MicroScores(p, r, 0.0 if p + r == 0 else 2 * p * r / (p + r))


def _aligned_spans(gold: Dataset, pred: Dataset):
    """Pair up the span lists of equal-length gold and pred, repairing pred tags first.

    Pairs are made by position, so each pair must also share its id.
    """
    pairs = []
    for k, (g, p) in enumerate(zip(gold, pred)):
        if g.id != p.id:
            raise AlignmentError(f"utterance {k}: gold id {g.id!r}, pred id {p.id!r}")
        if len(g.tokens) != len(p.tokens):
            raise AlignmentError(
                f"utterance {k} (id {g.id!r}): gold has {len(g.tokens)} tokens, "
                f"pred has {len(p.tokens)}"
            )
        try:
            gold_spans = bio.spans_from_tags(g.slot_tags)
        except StructuralError as err:
            raise StructuralError(f"gold utterance {g.id!r}: {err}") from None
        pred_spans = bio.spans_from_tags(bio.repair(p.slot_tags))
        pairs.append((gold_spans, pred_spans))
    return pairs


def strict_f1(gold: Dataset, pred: Dataset) -> EvalReport:
    """Evaluate pred against gold, with strict span matching as the headline.

    Returns the full report: a per-label table of strict counts, micro
    precision/recall/F1 for all three regimes, and intent accuracy.
    """
    accuracy = intent_accuracy(gold, pred)  # checks that the lengths agree
    pairs = _aligned_spans(gold, pred)
    labels = sorted(
        {s.label for gs, _ in pairs for s in gs}
        | {s.label for _, ps in pairs for s in ps}
    )
    tp = dict.fromkeys(labels, 0)
    fp = dict.fromkeys(labels, 0)
    fn = dict.fromkeys(labels, 0)
    for gold_spans, pred_spans in pairs:
        gset, pset = set(gold_spans), set(pred_spans)
        for span in pset:
            if span in gset:
                tp[span.label] += 1
            else:
                fp[span.label] += 1
        for span in gset:
            if span not in pset:
                fn[span.label] += 1
    per_label = {}
    for label in labels:
        m = _scores(tp[label], tp[label] + fp[label], tp[label], tp[label] + fn[label])
        per_label[label] = LabelScores(tp[label], fp[label], fn[label], m.precision, m.recall, m.f1)
    # micro strict comes from the summed per-label counts by construction
    tp_sum, fp_sum, fn_sum = sum(tp.values()), sum(fp.values()), sum(fn.values())
    micro = {
        "strict": _scores(tp_sum, tp_sum + fp_sum, tp_sum, tp_sum + fn_sum),
        "unlabeled": _micro_unlabeled(pairs),
        "loose": _micro_loose(pairs),
    }
    return EvalReport(per_label, micro, accuracy, len(gold))


def _micro_unlabeled(pairs) -> MicroScores:
    """Micro scores where only span boundaries must match."""
    tp = fp = fn = 0
    for gold_spans, pred_spans in pairs:
        gset = {(s.start, s.end) for s in gold_spans}
        pset = {(s.start, s.end) for s in pred_spans}
        hit = len(gset & pset)
        tp += hit
        fp += len(pset) - hit
        fn += len(gset) - hit
    return _scores(tp, tp + fp, tp, tp + fn)


def _micro_loose(pairs) -> MicroScores:
    """Micro scores where one shared token with a same-label span counts."""
    matched_pred = total_pred = matched_gold = total_gold = 0
    for gold_spans, pred_spans in pairs:
        total_pred += len(pred_spans)
        total_gold += len(gold_spans)
        for span in pred_spans:
            if any(span.label == g.label and span.overlaps(g) for g in gold_spans):
                matched_pred += 1
        for span in gold_spans:
            if any(span.label == p.label and span.overlaps(p) for p in pred_spans):
                matched_gold += 1
    return _scores(matched_pred, total_pred, matched_gold, total_gold)


def intent_accuracy(gold: Dataset, pred: Dataset) -> float:
    """Fraction of utterances whose intent labels agree."""
    if len(gold) != len(pred):
        raise AlignmentError(
            f"gold has {len(gold)} utterances, pred has {len(pred)}"
        )
    if len(gold) == 0:
        raise StructuralError("intent accuracy is undefined on an empty dataset")
    hits = sum(g.intent == p.intent for g, p in zip(gold, pred))
    return hits / len(gold)


@dataclass(frozen=True)
class AgreementTable:
    """Items-by-categories count matrix for a fixed annotator panel."""

    counts: tuple[tuple[int, ...], ...]
    n_annotators: int

    def __post_init__(self):
        object.__setattr__(
            self, "counts", tuple(tuple(int(c) for c in row) for row in self.counts)
        )
        if self.n_annotators < 2:
            raise StructuralError("need at least 2 annotators")
        if not self.counts:
            raise StructuralError("agreement table has no items")
        width = len(self.counts[0])
        if width == 0:
            raise StructuralError("agreement table has no categories")
        for i, row in enumerate(self.counts):
            if len(row) != width:
                raise StructuralError(f"item {i}: ragged row")
            if any(c < 0 for c in row):
                raise StructuralError(f"item {i}: negative count")
            if sum(row) != self.n_annotators:
                raise StructuralError(
                    f"item {i}: row sums to {sum(row)}, expected {self.n_annotators}"
                )


def fleiss_kappa(table: AgreementTable) -> float:
    """Chance-corrected agreement for multiple annotators.

    Per-item agreement is the fraction of agreeing annotator pairs,
    n_ij * (n_ij - 1) summed over categories and divided by n * (n - 1).
    Expected agreement is the sum of squared pooled category shares. The
    statistic is (mean observed - expected) / (1 - expected); a table
    where every vote fell into a single category returns 1.0 rather than
    dividing by zero.
    """
    n = table.n_annotators
    rows = table.counts
    count = len(rows)
    p_bar = sum(sum(c * (c - 1) for c in row) for row in rows) / (count * n * (n - 1))
    shares = [sum(col) / (count * n) for col in zip(*rows)]
    p_exp = sum(s * s for s in shares)
    if p_exp == 1.0:
        return 1.0
    return (p_bar - p_exp) / (1 - p_exp)


def _unit_scaled(values: list[float]) -> list[float]:
    """Values times the power of two that brings the largest magnitude into [0.5, 1).

    Pearson r does not depend on scale, and a power-of-two factor is
    exact, so neither the sums nor the squares can overflow or underflow
    while ordinary inputs keep the bits of the unscaled arithmetic.
    """
    _, exponent = math.frexp(max(abs(v) for v in values))
    return [math.ldexp(v, -exponent) for v in values]


def pearson(x, y) -> float:
    """Sample Pearson correlation; needs two or more points and spread in both.

    It is ``statistics.correlation`` (exact ``fsum`` sums) of the unit-scaled values.
    """
    from statistics import StatisticsError, correlation  # only ``correlate`` needs it

    x, y = list(x), list(y)
    if len(x) != len(y):
        raise StructuralError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise StructuralError("correlation needs at least 2 points")
    if not all(math.isfinite(v) for v in x + y):
        raise StructuralError("correlation needs finite values")
    try:
        return correlation(_unit_scaled(x), _unit_scaled(y))
    except StatisticsError:
        raise StructuralError("correlation is undefined for a zero-variance input") from None


def format_report(report: EvalReport) -> str:
    """Flat metric<TAB>value block, metric values with 4 decimals."""
    lines = [f"n_utterances\t{report.n_utterances}"]
    lines.append(f"intent_accuracy\t{report.intent_accuracy:.4f}")
    for regime in REGIMES:
        m = report.micro[regime]
        lines.append(f"{regime}_precision\t{m.precision:.4f}")
        lines.append(f"{regime}_recall\t{m.recall:.4f}")
        lines.append(f"{regime}_f1\t{m.f1:.4f}")
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> dict:
    """JSON-ready mirror of EvalReport: its field names are the JSON keys."""
    return asdict(report)
