"""Shared generators, fixtures and independent oracles for the test suite.

The oracles here are deliberately written against the definitions rather
than the package internals (quadratic span enumeration, midpoint grid
integration), so agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np

import slukit
from slukit.corpus import Dataset, Utterance

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


def make_dataset(tag_seqs, intents=None, name="toy", prefix="u") -> Dataset:
    """Wrap tag sequences into a Dataset with synthetic tokens."""
    utts = []
    for k, tags in enumerate(tag_seqs):
        tokens = tuple(f"tok{j}" for j in range(len(tags)))
        intent = intents[k] if intents is not None else "none"
        utts.append(
            Utterance(f"{prefix}{k}", " ".join(tokens), tokens, tuple(tags), intent)
        )
    return Dataset(name, tuple(utts))


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


def oracle_strict_micro(gold_seqs, pred_seqs) -> tuple[float, float, float]:
    """Micro precision/recall/F1 over exact span matches, via brute_spans."""
    tp = fp = fn = 0
    for g, p in zip(gold_seqs, pred_seqs):
        gs, ps = brute_spans(g), brute_spans(p)
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


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
    return Dataset("overfit", tuple(utts))


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


def finite_difference_worst(params, batch, config) -> float:
    """Worst relative error of analytic gradients vs central differences.

    Every entry of every tensor is perturbed by 1e-5 * max(1, |value|);
    the relative error floor of 1e-6 keeps zero-gradient entries from
    amplifying finite-difference noise.
    """
    from slukit.tagger import joint_loss

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
