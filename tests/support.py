"""Shared generators, fixtures and independent oracles for the test suite.

The oracles here are deliberately written against the definitions rather
than the package internals (quadratic span enumeration, midpoint grid
integration, a Fraction breakpoint walk), so agreement with the package
is evidence, not tautology.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np

import slukit
from slukit.bio import (
    IssueKind, SlotSpan, check_tags, parse_tag, repair, spans_from_tags, tags_from_spans,
)
from slukit.corpus import Dataset, Utterance
from slukit.errors import ParseError, StructuralError
from slukit.significance import AsoResult
from slukit.tagger import _loss_and_grads

LABELS = ("loc", "datetime", "device", "song")


# ---------------------------------------------------------------- generators


def random_valid_tags(rng: random.Random, n: int, labels=LABELS) -> list[str]:
    """Random BIO sequence built left to right so it is valid by construction."""
    tags: list[str] = []
    open_label = None
    for _ in range(n):
        roll = rng.random()
        if open_label is not None and roll < 0.35:
            tags.append("I-" + open_label)
            continue
        if roll < 0.65:
            open_label = rng.choice(labels)
            tags.append("B-" + open_label)
        else:
            open_label = None
            tags.append("O")
    return tags


def random_messy_tags(rng: random.Random, n: int, labels=LABELS) -> list[str]:
    """Lexically well-formed tags with no transition discipline at all."""
    out = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            out.append("O")
        else:
            out.append(("B-" if kind == 1 else "I-") + rng.choice(labels))
    return out


def make_dataset(tag_seqs, intents=None, prefix="u") -> Dataset:
    """Wrap tag sequences into a Dataset with synthetic tokens."""
    utts = []
    for k, tags in enumerate(tag_seqs):
        tokens = tuple(f"tok{j}" for j in range(len(tags)))
        intent = intents[k] if intents is not None else "none"
        utts.append(
            Utterance(f"{prefix}{k}", " ".join(tokens), tokens, tuple(tags), intent)
        )
    return Dataset(tuple(utts))


# ------------------------------------------------------------- subprocesses


def package_env() -> dict[str, str]:
    """os.environ with the imported slukit's parent directory first on PYTHONPATH.

    A child started with ``python -m slukit`` then runs the same code as
    the test process, whatever its ``cwd`` and however the parent found
    the package (an installed copy, or a relative ``PYTHONPATH=src``
    that would not resolve from the child's working directory).
    """
    root = str(Path(slukit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


# --------------------------------------------------------- benchmark modules

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` as a fresh module, writing no bytecode into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------- span oracles


def brute_spans(tags) -> set[tuple[int, int, str]]:
    """All (start, end, label) chunks, found by testing every candidate triple.

    A candidate is a chunk iff it opens with B-label, continues with
    I-label, and is maximal (not followed by another I-label). Quadratic
    on purpose: it shares no code path with the package's linear scan.
    """
    tags = list(tags)
    n = len(tags)
    labels = {t[2:] for t in tags if t != "O"}
    found = set()
    for label in labels:
        for start in range(n):
            if tags[start] != "B-" + label:
                continue
            for end in range(start + 1, n + 1):
                if any(tags[k] != "I-" + label for k in range(start + 1, end)):
                    continue
                if end < n and tags[end] == "I-" + label:
                    continue
                found.add((start, end, label))
    return found


def scan_tag_issues(tags) -> list[tuple[int, IssueKind]]:
    """BIO violations by a walk of chunk labels, without repairing anything.

    An I with no open chunk is an orphan and opens one with its own label;
    an I whose label differs from its chunk's is a switch and leaves the
    chunk's label as it was. A malformed tag raises as ``check_tags`` does.
    """
    check_tags(tags)
    issues = []
    label = None
    for pos, tag in enumerate(tags):
        prefix, own = parse_tag(tag)
        if prefix != "I":
            label = own
        elif label is None:
            issues.append((pos, IssueKind.ORPHAN_I))
            label = own
        elif own != label:
            issues.append((pos, IssueKind.LABEL_SWITCH))
    return issues


def _oracle_micro(hits_pred, n_pred, hits_gold, n_gold) -> tuple[float, float, float]:
    """Precision hits_pred / n_pred and recall hits_gold / n_gold (0 when empty), with F1."""
    precision = hits_pred / n_pred if n_pred else 0.0
    recall = hits_gold / n_gold if n_gold else 0.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def oracle_strict_micro(gold_seqs, pred_seqs) -> tuple[float, float, float]:
    """Micro precision/recall/F1 over exact span matches, via brute_spans."""
    tp = fp = fn = 0
    for g, p in zip(gold_seqs, pred_seqs):
        gs, ps = brute_spans(g), brute_spans(p)
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    return _oracle_micro(tp, tp + fp, tp, tp + fn)


def brute_repaired_spans(tags) -> set[tuple[int, int, str]]:
    """The (start, end, label) chunks of raw tags, read the way repair reads them.

    A chunk opens at a B, or at an I with no chunk open (first position,
    or after O), and takes the opening tag's label; every I after it
    continues it whatever its label. Each candidate pair of bounds is
    tested on its own, with no call into the package.
    """
    tags = list(tags)
    n = len(tags)
    found = set()
    for start in range(n):
        opens = tags[start].startswith("B-") or (
            tags[start].startswith("I-") and (start == 0 or tags[start - 1] == "O")
        )
        if not opens:
            continue
        for end in range(start + 1, n + 1):
            if not all(tags[k].startswith("I-") for k in range(start + 1, end)):
                continue
            if end < n and tags[end].startswith("I-"):
                continue
            found.add((start, end, tags[start][2:]))
    return found


def _touch(x, y) -> bool:
    """Same label and at least one shared token."""
    return x[2] == y[2] and x[0] < y[1] and y[0] < x[1]


def oracle_regimes(gold_seqs, pred_seqs):
    """Per-label strict (tp, fp, fn), and unlabeled and loose micro (P, R, F1).

    Gold is read with brute_spans and raw pred with brute_repaired_spans.
    Loose matching tests every gold span against every predicted span.
    """
    per_label: dict[str, list[int]] = {}
    n_gold = n_pred = boundary_hits = loose_gold = loose_pred = 0
    for g, p in zip(gold_seqs, pred_seqs):
        gs, ps = brute_spans(g), brute_repaired_spans(p)
        n_gold += len(gs)
        n_pred += len(ps)
        for span in gs | ps:
            counts = per_label.setdefault(span[2], [0, 0, 0])
            counts[0] += span in gs and span in ps
            counts[1] += span in ps and span not in gs
            counts[2] += span in gs and span not in ps
        boundary_hits += len({s[:2] for s in gs} & {s[:2] for s in ps})
        loose_pred += sum(any(_touch(x, y) for y in gs) for x in ps)
        loose_gold += sum(any(_touch(x, y) for y in ps) for x in gs)
    return (
        {label: tuple(counts) for label, counts in per_label.items()},
        _oracle_micro(boundary_hits, n_pred, boundary_hits, n_gold),
        _oracle_micro(loose_pred, n_pred, loose_gold, n_gold),
    )


# -------------------------------------------------------------- grid oracle


def grid_epsilon(a_values, b_values, points: int = 1_000_000) -> float:
    """Midpoint Riemann approximation of the quantile violation ratio.

    Evaluates both empirical quantile functions on a uniform grid over
    (0, 1). When both sample sizes divide the grid size the step
    boundaries land between grid midpoints and the sum is exact.
    """
    av = np.sort(np.asarray(a_values, dtype=float))
    bv = np.sort(np.asarray(b_values, dtype=float))
    t = (np.arange(points) + 0.5) / points
    f = av[np.minimum(np.ceil(t * av.size).astype(int) - 1, av.size - 1)]
    g = bv[np.minimum(np.ceil(t * bv.size).astype(int) - 1, bv.size - 1)]
    d = g - f
    den = float(np.mean(d * d))
    if den == 0.0:
        return 0.5
    num = float(np.mean(np.where(d > 0, d * d, 0.0)))
    return num / den


# --------------------------------------------------------------- ASO oracle


def walk_masses(av, bv) -> tuple[float, float]:
    """Violation and total mass of two sorted samples, one breakpoint at a time.

    The merged breakpoints i/n and j/m and each segment's midpoint are
    exact Fractions; both step values are read at the midpoint, and the
    masses width * diff**2 are summed sequentially in Python floats.
    """
    n, m = len(av), len(bv)
    breaks = sorted(
        {Fraction(i, n) for i in range(1, n + 1)} | {Fraction(j, m) for j in range(1, m + 1)}
    )
    prev = Fraction(0)
    violation = total = 0.0
    for point in breaks:
        mid = (prev + point) / 2
        diff = bv[math.ceil(mid * m) - 1] - av[math.ceil(mid * n) - 1]
        mass = float(point - prev) * diff * diff
        total += mass
        if diff > 0:
            violation += mass
        prev = point
    return violation, total


def walk_epsilon(a_values, b_values) -> float:
    violation, total = walk_masses(sorted(a_values), sorted(b_values))
    return 0.5 if total == 0.0 else violation / total


def walk_aso(a_values, b_values, alpha=0.05, n_boot=1000, seed=0) -> AsoResult:
    """The ASO test replicate by replicate: per replicate, draw n indices into a, then m into b."""
    violation, total = walk_masses(sorted(a_values), sorted(b_values))
    if total == 0.0:
        return AsoResult(0.5, 0.0, 0.5, alpha, False)
    eps_hat = violation / total
    rng = np.random.default_rng(seed)
    av, bv = np.asarray(a_values, dtype=float), np.asarray(b_values, dtype=float)
    boots = []
    for _ in range(n_boot):
        ra = av[rng.integers(0, av.size, av.size)].tolist()
        rb = bv[rng.integers(0, bv.size, bv.size)].tolist()
        boots.append(walk_epsilon(ra, rb))
    sigma = float(np.std(boots))
    eps_min = eps_hat - sigma * NormalDist().inv_cdf(1 - alpha)
    return AsoResult(eps_hat, sigma, eps_min, alpha, eps_min < 0.5)


# ------------------------------------------------------------ parser oracle


def line_parse_dataset(text: str) -> Dataset:
    """The block-format parser as a plain line-by-line walk.

    This is the package's earlier parser, kept as a reference for the bulk
    one: every line is numbered, and every block is checked line by line.
    The token index rule has changed since: only ``str(offset)`` is
    accepted, so ``01`` or ``+1`` is an index error that quotes the raw
    column, while a column ``int`` cannot read stays "not an integer".
    Each row is checked as its block is read (a one-row Dataset), so a
    bad row is reported ahead of any error in a later block.
    """
    utterances = []
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            if block:
                utterances.append(_line_parse_block(block))
                block = []
        else:
            block.append((lineno, line))
    if block:
        utterances.append(_line_parse_block(block))
    return Dataset(tuple(utterances))


def _line_parse_block(lines: list[tuple[int, str]]) -> Utterance:
    headers = ("# id: ", "# text: ", "# intent: ")
    if len(lines) < len(headers):
        raise StructuralError(f"line {lines[0][0]}: incomplete utterance block")
    values = []
    for (lineno, line), header in zip(lines, headers):
        if not line.startswith(header):
            raise StructuralError(f"line {lineno}: expected {header.rstrip()!r} header")
        values.append(line[len(header):])
    utt_id, utt_text, intent = values
    tokens, tags = [], []
    for offset, (lineno, line) in enumerate(lines[len(headers):], start=1):
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(
                f"expected 3 tab-separated columns, got {len(cols)}", line=lineno
            )
        index_str, token, tag = cols
        try:
            int(index_str)
        except ValueError:
            raise ParseError(
                f"token index {index_str!r} is not an integer", line=lineno
            ) from None
        if index_str != str(offset):
            raise StructuralError(f"line {lineno}: token index {index_str}, expected {offset}")
        tokens.append(token)
        tags.append(tag)
    row = Utterance(utt_id, utt_text, tuple(tokens), tuple(tags), intent)
    Dataset((row,))  # checks the row
    return row


# ------------------------------------------------------------ trim oracle


def span_trim_spans(ds: Dataset, leading_tokens) -> Dataset:
    """Trim spans through the span list: the package's earlier ``trim_spans``.

    It repairs every sequence, extracts its spans, moves each span's start
    past its leading drop words (case-insensitive), drops a span left
    empty and renders the rest as tags again. The package rewrites the
    repaired tags in one pass instead; this is the reference it is held to.
    """
    drop = {t.lower() for t in leading_tokens}
    out = []
    for utt in ds:
        tags = repair(utt.slot_tags)
        if any(tag[0] == "B" and tok.lower() in drop for tok, tag in zip(utt.tokens, tags)):
            kept = []
            for span in spans_from_tags(tags):
                start = span.start
                while start < span.end and utt.tokens[start].lower() in drop:
                    start += 1
                if start < span.end:
                    kept.append(SlotSpan(start, span.end, span.label))
            tags = tags_from_spans(kept, len(utt.tokens))
        tags = tuple(tags)
        out.append(
            utt if tags == utt.slot_tags
            else Utterance(utt.id, utt.text, utt.tokens, tags, utt.intent)
        )
    return Dataset(tuple(out))


# ------------------------------------------------------------- toy corpora


def overfit_corpus() -> Dataset:
    """20 separable sentences: two intents keyed by disjoint vocabularies."""
    utts = []
    for i in range(10):
        tokens = ("turn", "on", "lamp", f"room{i % 3}")
        utts.append(
            Utterance(
                f"l{i}", " ".join(tokens), tokens,
                ("O", "O", "B-device", "B-place"), "lights/on",
            )
        )
    for i in range(10):
        tokens = ("play", "song", f"track{i % 4}", "now")
        utts.append(
            Utterance(
                f"m{i}", " ".join(tokens), tokens,
                ("O", "O", "B-song", "B-when"), "music/play",
            )
        )
    return Dataset(tuple(utts))


def plain_sentences(count: int = 300, seed: int = 5) -> list[tuple[str, ...]]:
    """Unlabelled token sequences for the masked-token task."""
    words = ["the", "cat", "dog", "sat", "ran", "on",
             "mat", "rug", "fast", "slow", "big", "small"]
    rng = random.Random(seed)
    return [
        tuple(rng.choice(words) for _ in range(rng.randint(5, 9)))
        for _ in range(count)
    ]


# ----------------------------------------------------- finite differences


def joint_loss(params, batch, config) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted multi-task loss and dense analytic gradients for one batch.

    The tagger's own step keeps gradients sparse (only the tensors and
    embedding rows the batch touches); this scatters them into arrays
    shaped like ``params``, zero elsewhere, for comparison and checks.
    """
    loss, grads, emb_rows, _ = _loss_and_grads(params, batch, config)
    dense = {name: np.zeros_like(arr) for name, arr in params.items()}
    for name, grad in grads.items():
        if name == "emb":
            dense[name][emb_rows] = grad
        else:
            dense[name][...] = grad
    return loss, dense


def finite_difference_worst(params, batch, config) -> float:
    """Worst relative error of analytic gradients vs central differences.

    Every entry of every tensor is perturbed by 1e-5 * max(1, |value|);
    the relative error floor of 1e-6 keeps zero-gradient entries from
    amplifying finite-difference noise.
    """
    _, grads = joint_loss(params, batch, config)
    worst = 0.0
    for name, arr in params.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = float(arr[idx])
            step = 1e-5 * max(1.0, abs(saved))
            arr[idx] = saved + step
            up, _ = joint_loss(params, batch, config)
            arr[idx] = saved - step
            down, _ = joint_loss(params, batch, config)
            arr[idx] = saved
            numeric = (up - down) / (2 * step)
            analytic = float(grads[name][idx])
            rel = abs(numeric - analytic) / max(1e-6, abs(numeric), abs(analytic))
            worst = max(worst, rel)
    return worst


# ------------------------------------------------- repair behaviour table

# Hand-derived input/output pairs for the two repair rules. Covers valid
# sequences (fixed points), orphan-I promotion (rule: an I that opens a
# chunk becomes a B and its label governs the chunk), label-switch
# unification (rule: an I inside a chunk takes the chunk-initial label),
# and interactions of the two.
REPAIR_CASES = [
    # valid input is returned unchanged
    ([], []),
    (["O"], ["O"]),
    (["B-a"], ["B-a"]),
    (["O", "O", "O"], ["O", "O", "O"]),
    (["B-a", "I-a"], ["B-a", "I-a"]),
    (["B-a", "I-a", "I-a"], ["B-a", "I-a", "I-a"]),
    (["B-a", "B-a"], ["B-a", "B-a"]),
    (["B-a", "B-b"], ["B-a", "B-b"]),
    (["B-a", "I-a", "B-b", "I-b"], ["B-a", "I-a", "B-b", "I-b"]),
    (["O", "B-a", "I-a", "O"], ["O", "B-a", "I-a", "O"]),
    (["B-a", "B-b", "I-b"], ["B-a", "B-b", "I-b"]),
    (["B-a", "I-a", "B-a", "I-a"], ["B-a", "I-a", "B-a", "I-a"]),
    (["B-a", "B-b", "B-c"], ["B-a", "B-b", "B-c"]),
    # orphan-I promotion
    (["I-a"], ["B-a"]),
    (["I-a", "I-a"], ["B-a", "I-a"]),
    (["O", "I-a"], ["O", "B-a"]),
    (["O", "I-a", "I-a"], ["O", "B-a", "I-a"]),
    (["O", "I-loc", "I-loc"], ["O", "B-loc", "I-loc"]),
    (["B-a", "O", "I-a"], ["B-a", "O", "B-a"]),
    (["B-a", "O", "I-b"], ["B-a", "O", "B-b"]),
    (["O", "O", "I-c"], ["O", "O", "B-c"]),
    (["B-a", "I-a", "O", "I-a"], ["B-a", "I-a", "O", "B-a"]),
    (["I-a", "O", "I-a"], ["B-a", "O", "B-a"]),
    (["I-a", "B-a"], ["B-a", "B-a"]),
    (["I-a", "I-a", "I-a"], ["B-a", "I-a", "I-a"]),
    (["O", "I-a", "O", "I-b", "O"], ["O", "B-a", "O", "B-b", "O"]),
    (["I-x-y"], ["B-x-y"]),
    (["O", "O", "B-a", "I-a", "I-a", "O", "I-a"],
     ["O", "O", "B-a", "I-a", "I-a", "O", "B-a"]),
    # label-switch unification
    (["B-a", "I-b"], ["B-a", "I-a"]),
    (["B-loc", "I-datetime"], ["B-loc", "I-loc"]),
    (["B-a", "I-b", "I-b"], ["B-a", "I-a", "I-a"]),
    (["B-a", "I-b", "I-a"], ["B-a", "I-a", "I-a"]),
    (["B-a", "B-b", "I-a"], ["B-a", "B-b", "I-b"]),
    (["B-b", "I-a", "I-b"], ["B-b", "I-b", "I-b"]),
    (["B-a", "I-a", "I-b", "I-a"], ["B-a", "I-a", "I-a", "I-a"]),
    (["B-a", "I-b", "O"], ["B-a", "I-a", "O"]),
    (["B-x-y", "I-z"], ["B-x-y", "I-x-y"]),
    (["B-a", "I-a", "I-a", "I-b"], ["B-a", "I-a", "I-a", "I-a"]),
    # both rules interacting: the promoted label governs the chunk
    (["I-a", "I-b"], ["B-a", "I-a"]),
    (["O", "I-a", "I-b"], ["O", "B-a", "I-a"]),
    (["I-b", "I-a", "I-b"], ["B-b", "I-b", "I-b"]),
    (["I-a", "B-b", "I-a"], ["B-a", "B-b", "I-b"]),
    (["O", "B-a", "I-b", "O", "I-b"], ["O", "B-a", "I-a", "O", "B-b"]),
    (["I-dt", "I-dt", "B-dt", "I-loc"], ["B-dt", "I-dt", "B-dt", "I-dt"]),
    (["I-c", "I-b", "I-a"], ["B-c", "I-c", "I-c"]),
    (["I-a", "I-b", "I-c", "I-d"], ["B-a", "I-a", "I-a", "I-a"]),
    (["O", "B-a", "O", "I-a", "I-a", "B-b", "I-a"],
     ["O", "B-a", "O", "B-a", "I-a", "B-b", "I-b"]),
    (["O", "I-b", "B-b", "I-b", "O", "I-c", "I-b"],
     ["O", "B-b", "B-b", "I-b", "O", "B-c", "I-c"]),
    (["I-a", "B-b", "I-c", "I-b"], ["B-a", "B-b", "I-b", "I-b"]),
    (["B-a", "O", "O", "I-b", "I-c", "B-d", "I-e", "O", "I-a"],
     ["B-a", "O", "O", "B-b", "I-b", "B-d", "I-d", "O", "B-a"]),
]
