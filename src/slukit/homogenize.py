"""Label-schema renaming, span trimming, and reproducible corpus merging.

Different corpora name the same concepts differently (for example several
location-ish labels on one side versus a single LOCATION on the other).
A LabelMap renames slot labels and intents onto a shared inventory; any
label without an entry maps to itself, and ``trim_spans`` strips
function words from span starts. After renaming, ``merge_shuffle``
pools the items of several datasets (the ``merge`` command pools block
texts, see ``corpus.parse_blocks``) and shuffles them with a pinned,
documented PRNG, so a merge can be replayed bit-for-bit anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from . import bio
from .corpus import Dataset, Utterance
from .errors import ParseError, StructuralError

# Identifier for the shuffle algorithm, recorded in run manifests.
RNG_ALGORITHM = "splitmix64/fisher-yates"

_MASK64 = (1 << 64) - 1
_SECTIONS = ("slots", "intents")


@dataclass(frozen=True)
class LabelMap:
    """Slot-label and intent renamings with identity fallback; a slot target must form a tag."""

    slot_map: Mapping[str, str]
    intent_map: Mapping[str, str]

    def __post_init__(self):
        for kind, mapping in (("slot", self.slot_map), ("intent", self.intent_map)):
            for old, new in mapping.items():
                _check_target(kind, old, new)
        object.__setattr__(self, "slot_map", MappingProxyType(dict(self.slot_map)))
        object.__setattr__(self, "intent_map", MappingProxyType(dict(self.intent_map)))

    def slot(self, label: str) -> str:
        return self.slot_map.get(label, label)

    def intent(self, label: str) -> str:
        return self.intent_map.get(label, label)


def _check_target(kind: str, old: str, new: str) -> None:
    """Raise StructuralError unless ``new`` is a usable ``kind`` label ("slot" or "intent")."""
    if not new:
        raise StructuralError(f"{kind} label {old!r} maps to an empty label")
    if kind == "slot":
        try:
            bio.parse_tag("B-" + new)
        except StructuralError:
            raise StructuralError(
                f"slot label {old!r} maps to {new!r}, which cannot form a tag"
            ) from None


def parse_label_map(text: str) -> LabelMap:
    """Read a label map file.

    Format: ``[slots]`` and ``[intents]`` section headers, one
    ``old<TAB>new`` pair per line, ``#`` comment lines and blank lines
    ignored. Only a line feed ends a line, so a label may hold U+2028 as
    a dataset's may. Duplicate keys within a section are rejected, and
    each target is checked as `LabelMap` checks it, on the line that
    holds it.
    """
    maps: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    section: str | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in maps:
                raise ParseError(f"unknown section {name!r}", line=lineno)
            section = name
            continue
        if section is None:
            raise ParseError("mapping before any section header", line=lineno)
        cols = raw.split("\t")
        if len(cols) != 2:
            raise ParseError(
                f"expected old<TAB>new, got {len(cols)} columns", line=lineno
            )
        old, new = cols
        if old in maps[section]:
            raise ParseError(f"duplicate key {old!r} in [{section}]", line=lineno)
        try:
            _check_target(section[:-1], old, new)  # "slots" -> "slot"
        except StructuralError as err:
            raise ParseError(str(err), line=lineno) from None
        maps[section][old] = new
    return LabelMap(maps["slots"], maps["intents"])


def apply_label_map(ds: Dataset, lmap: LabelMap) -> Dataset:
    """Rename slot labels and intents; B/I prefixes and boundaries stay put.

    Two adjacent spans that collapse onto the same new label remain two
    spans, because the second one keeps its B tag. Each distinct tag is
    renamed once.
    """
    renamed = {}
    for tag in set().union(*(utt.slot_tags for utt in ds)):
        prefix, label = bio.parse_tag(tag)
        renamed[tag] = "O" if label is None else f"{prefix}-{lmap.slot(label)}"
    out = tuple(
        Utterance(
            utt.id, utt.text, utt.tokens, tuple(map(renamed.__getitem__, utt.slot_tags)),
            lmap.intent(utt.intent),
        )
        for utt in ds
    )
    return Dataset(out)


def trim_spans(ds: Dataset, leading_tokens) -> Dataset:
    """Strip configured function words from the front of every span.

    Converted annotation schemes sometimes include lead-ins such as "for"
    or "at" inside a span; this hook removes them. Matching is
    case-insensitive, a span whose tokens are all stripped is dropped,
    and tag sequences are repaired first so unclean input does not abort
    the cleanup. The repaired tags are rewritten in one pass: at a B tag
    on a drop word, the chunk's leading drop words become O and its first
    kept token opens it. Each distinct token is lowercased once. An
    utterance with no span-initial drop word keeps its repaired tags; one
    that this leaves unchanged is passed through as it is.
    """
    drop = {t.lower() for t in leading_tokens}
    dropped = {tok for tok in set().union(*(utt.tokens for utt in ds)) if tok.lower() in drop}
    out = []
    for utt in ds:
        tags = bio.repair(utt.slot_tags)
        tokens = utt.tokens
        if not dropped.isdisjoint(tokens):
            for pos, tag in enumerate(tags):
                if tag[0] != "B" or tokens[pos] not in dropped:
                    continue
                inside = "I" + tag[1:]  # in a repaired sequence, the chunk's other tags
                tags[pos] = "O"
                for k in range(pos + 1, len(tags)):
                    if tags[k] != inside:
                        break
                    if tokens[k] not in dropped:
                        tags[k] = tag  # the first kept token opens the chunk
                        break
                    tags[k] = "O"
        tags = tuple(tags)
        out.append(
            utt if tags == utt.slot_tags
            else Utterance(utt.id, utt.text, utt.tokens, tags, utt.intent)
        )
    return Dataset(tuple(out))


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of SplitMix64; returns (next state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def seeded_permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by SplitMix64.

    The generator is pinned by name (RNG_ALGORITHM) so the permutation
    can be reproduced outside this codebase; draws use rejection sampling
    to stay unbiased.
    """
    state = seed & _MASK64
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        k = i + 1
        bound = (1 << 64) - ((1 << 64) % k)
        while True:
            state, value = _splitmix64(state)
            if value < bound:
                break
        j = value % k
        order[i], order[j] = order[j], order[i]
    return order


def merge_shuffle(pools, seed: int) -> list:
    """Concatenate the items of the pools and shuffle them with the seeded PRNG.

    A pool is any iterable: a Dataset of utterances, or the block texts
    of ``corpus.parse_blocks``; nothing about an item is read. Duplicates
    survive; the result, a list, holds as many items as the pools.
    """
    pools = list(pools)
    if not pools:
        raise StructuralError("merge_shuffle needs at least one dataset")
    pooled = [item for pool in pools for item in pool]
    return [pooled[i] for i in seeded_permutation(len(pooled), seed)]
