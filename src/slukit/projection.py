"""Slot label transfer across parallel sentences via alignment score matrices.

Each record pairs a source and a target token list with a score matrix
(rows = source tokens, columns = target tokens). Every labelled source
token votes for its highest scoring target column; the raw target tags
are then repaired into valid BIO.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bio
from .corpus import Dataset, Utterance
from .errors import ParseError, StructuralError


@dataclass(frozen=True, eq=False)
class AlignmentRecord:
    """One sentence pair; ``scores`` is a read-only float64 [n_src, n_tgt] array."""

    id: str
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        for field in ("src_tokens", "tgt_tokens"):
            tokens = getattr(self, field)
            if not (isinstance(tokens, (list, tuple)) and all(isinstance(t, str) for t in tokens)):
                raise StructuralError(f"record {self.id!r}: {field} must be a list of strings")
            object.__setattr__(self, field, tuple(tokens))
        n_src, n_tgt = len(self.src_tokens), len(self.tgt_tokens)
        rows = list(self.scores)
        if len(rows) != n_src:
            raise StructuralError(
                f"record {self.id!r}: {len(rows)} score rows for {n_src} source tokens"
            )
        for i, row in enumerate(rows):
            if len(row) != n_tgt:
                raise StructuralError(
                    f"record {self.id!r}: row {i} has {len(row)} scores for "
                    f"{n_tgt} target tokens"
                )
        scores = np.array(rows, dtype=np.float64) if rows else np.empty((0, n_tgt))
        if scores.ndim != 2:
            raise StructuralError(f"record {self.id!r}: scores must be numbers")
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise StructuralError(f"record {self.id!r}: non-finite score in row {bad}")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)


def project_labels(src_tags, rec: AlignmentRecord) -> list[str]:
    """Carry a valid source BIO sequence onto the record's target side.

    Rules: each labelled source token places its tag on its argmax target
    column (ties break to the lowest index); when several source tokens
    pick the same target, the leftmost one wins; O tokens place nothing
    and never erase a label; unclaimed targets stay O. The raw result is
    passed through bio.repair, so the output is always valid.
    """
    src_tags = list(src_tags)
    if len(src_tags) != len(rec.src_tokens):
        raise StructuralError(
            f"record {rec.id!r}: {len(src_tags)} tags for "
            f"{len(rec.src_tokens)} source tokens"
        )
    problems = bio.tag_issues(src_tags)
    if problems:
        pos, kind = problems[0]
        raise StructuralError(
            f"record {rec.id!r}: invalid source BIO ({kind.value} at position {pos})"
        )
    n_tgt = len(rec.tgt_tokens)
    if n_tgt == 0:
        return []
    raw = ["O"] * n_tgt
    for tag, best in zip(src_tags, rec.scores.argmax(axis=1).tolist()):
        if tag != "O" and raw[best] == "O":
            raw[best] = tag
    return bio.repair(raw)


def parse_alignments(text: str) -> list[AlignmentRecord]:
    """Read JSON Lines alignment records.

    Each line is an object with "id", "src_tokens", "tgt_tokens" and
    "scores" ([source][target]). Blank lines are skipped. Dimension or
    finiteness problems are reported with the record id, malformed JSON
    with the line number.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err.msg}", line=lineno) from None
        try:
            rec = AlignmentRecord(
                id=str(obj["id"]),
                src_tokens=obj["src_tokens"],
                tgt_tokens=obj["tgt_tokens"],
                scores=obj["scores"],
            )
        except KeyError as err:
            raise ParseError(f"missing field {err}", line=lineno) from None
        except (TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"bad record: {err}", line=lineno) from None
        records.append(rec)
    return records


def project_dataset(src: Dataset, alignments) -> Dataset:
    """Project every utterance onto its alignment record's target side.

    Records are matched to utterances by id; intents are copied verbatim
    since they label the whole sentence, and the target text is the
    space-joined target tokens.
    """
    by_id: dict[str, AlignmentRecord] = {}
    for rec in alignments:
        if rec.id in by_id:
            raise StructuralError(f"duplicate alignment record id {rec.id!r}")
        by_id[rec.id] = rec

    projected = []
    for utt in src:
        rec = by_id.get(utt.id)
        if rec is None:
            raise StructuralError(f"no alignment record for utterance id {utt.id!r}")
        tags = project_labels(utt.slot_tags, rec)
        projected.append(
            Utterance(utt.id, " ".join(rec.tgt_tokens), rec.tgt_tokens, tuple(tags), utt.intent)
        )
    return Dataset(f"{src.name}-projected", tuple(projected))
