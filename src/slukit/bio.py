"""BIO tag algebra: validity checks, repair, and span extraction.

A tag is ``O`` or ``B-<label>``/``I-<label>`` with a nonempty label that
contains no whitespace. A sequence is valid when every ``I`` continues a
chunk opened by a ``B`` (or an earlier ``I``) with the same label; a
violation is a position that ``repair`` rewrites.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .errors import StructuralError

_TAG_RE = re.compile(r"O|[BI]-\S+")

# parse_tag is called per token in tight loops; tag strings repeat heavily,
# so results are memoised (bounded, in case callers stream huge label sets).
_SPLIT_CACHE: dict[str, tuple[str, str | None]] = {}
_SPLIT_CACHE_MAX = 100_000
_KNOWN = _SPLIT_CACHE.keys()  # live view: every tag parse_tag has accepted


class SlotSpan(NamedTuple):
    """Half-open token interval [start, end) carrying a slot label; tags_from_spans checks it."""

    start: int
    end: int
    label: str

    def overlaps(self, other: SlotSpan) -> bool:
        return self.start < other.end and other.start < self.end


class IssueKind(enum.Enum):
    ORPHAN_I = "OrphanI"
    LABEL_SWITCH = "LabelSwitch"


def parse_tag(tag: str, position: int | None = None) -> tuple[str, str | None]:
    """Split a tag into (prefix, label); ``O`` has label ``None``.

    Raises StructuralError on lexically malformed tags, naming the token
    position when one is given.
    """
    got = _SPLIT_CACHE.get(tag)
    if got is None:
        if not isinstance(tag, str) or not _TAG_RE.fullmatch(tag):
            where = "" if position is None else f" at position {position}"
            raise StructuralError(f"malformed tag {tag!r}{where}")
        got = ("O", None) if tag == "O" else (tag[0], tag[2:])
        if len(_SPLIT_CACHE) < _SPLIT_CACHE_MAX:
            _SPLIT_CACHE[tag] = got
    return got


def check_tags(tags) -> None:
    """Raise StructuralError for the first lexically malformed tag, naming its position.

    Every tag in the parse_tag cache has been validated, so a sequence of
    known tags costs one set-containment test; the positional parse_tag
    scan runs only when some tag is new.
    """
    if not _KNOWN >= set(tags):
        for pos, tag in enumerate(tags):
            parse_tag(tag, pos)


# The scans below run check_tags first, so each tag is "O", "B-x" or "I-x"
# and a chunk is tracked as the I tag that continues it ("I-" + its label).


def tag_issues(tags) -> list[tuple[int, IssueKind]]:
    """Scan a sequence for BIO violations: the positions that repair rewrites.

    An I that repair promotes to B opened a chunk (ORPHAN_I); an I that it
    rewrites to another I broke its chunk's label (LABEL_SWITCH).
    """
    return [
        (pos, IssueKind.ORPHAN_I if new[0] == "B" else IssueKind.LABEL_SWITCH)
        for pos, (old, new) in enumerate(zip(tags, repair(tags)))
        if old != new
    ]


def repair(tags) -> list[str]:
    """Rewrite a lexically well-formed sequence into valid BIO.

    Two rules, applied in one left-to-right pass: an I whose label
    differs from its chunk's is rewritten to the chunk-initial token's
    label, and an I that opens a chunk is promoted to B (keeping its own
    label, which then governs the chunk). Valid input comes back
    unchanged, and the operation is idempotent.
    """
    check_tags(tags)
    out = []
    inside: str | None = None
    for tag in tags:
        if tag == "O":
            inside = None
            out.append(tag)
        elif tag[0] == "B":
            inside = "I" + tag[1:]
            out.append(tag)
        elif inside is None:
            inside = tag
            out.append("B" + tag[1:])
        else:
            out.append(inside)
    return out


def spans_from_tags(tags) -> list[SlotSpan]:
    """Extract chunk spans from a valid BIO sequence, sorted by start.

    Invalid sequences are rejected rather than silently repaired so that
    data bugs surface at the call site; run repair first when unclean
    input is expected. A malformed tag anywhere is reported before the
    first transition violation.
    """
    check_tags(tags)
    spans = []
    start = 0
    inside: str | None = None
    for pos, tag in enumerate(tags):
        if tag == inside:
            continue
        if tag[0] == "I":
            pos, kind = tag_issues(tags)[0]
            raise StructuralError(f"invalid BIO sequence: {kind.value} at position {pos}")
        if inside is not None:
            spans.append(SlotSpan(start, pos, inside[2:]))
            inside = None
        if tag != "O":
            start, inside = pos, "I" + tag[1:]
    if inside is not None:
        spans.append(SlotSpan(start, len(tags), inside[2:]))
    return spans


def tags_from_spans(spans, length: int) -> list[str]:
    """Render pairwise disjoint, well-formed spans as a BIO sequence of the given length."""
    tags = ["O"] * length
    prev: SlotSpan | None = None
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        if not 0 <= span.start < span.end:
            raise StructuralError(f"bad span bounds [{span.start}, {span.end})")
        if not span.label:
            raise StructuralError("span label must be nonempty")
        if span.end > length:
            raise StructuralError(f"span {span} exceeds sequence length {length}")
        if prev is not None and span.start < prev.end:
            raise StructuralError(f"spans {prev} and {span} overlap")
        tags[span.start] = "B-" + span.label
        for k in range(span.start + 1, span.end):
            tags[k] = "I-" + span.label
        prev = span
    return tags
