"""Utterance data model and its tab-separated block file format.

One utterance per block, blocks separated by exactly one blank line::

    # id: <id>
    # text: <raw text>
    # intent: <label>
    1<TAB><token><TAB><tag>
    2<TAB><token><TAB><tag>

Token indices are 1-based and contiguous, written as plain decimals
(``1``, ``2``, ...; no sign, padding or other digits). Files are UTF-8
with LF line endings and no trailing blank line; ``write_dataset`` emits
exactly this shape and ``parse_dataset`` inverts it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import bio
from .errors import ParseError, StructuralError

_HEADERS = ("# id: ", "# text: ", "# intent: ")
_ID, _TEXT, _INTENT = _HEADERS
_BLOCK_RE = re.compile(r"[^\n]+(?:\n[^\n]+)*")  # a maximal run of nonblank lines
_ROWS_RE = re.compile(r"[^\t\n]*\t[^\t\n]*\t[^\t\n]*(?:\n[^\t\n]*\t[^\t\n]*\t[^\t\n]*)*")
_INDEX = [str(k) for k in range(1, 513)]  # the only accepted token index strings, in order


@dataclass(frozen=True)
class Utterance:
    """A single annotated sentence.

    Tags must be lexically well-formed BIO (``O`` / ``B-x`` / ``I-x``);
    transition-level validity is deliberately not enforced here, that is
    what validate and bio.repair are for. Metadata fields may not contain
    newlines and tokens may not contain tabs, since either would break
    the file format round trip.
    """

    id: str
    text: str
    tokens: tuple[str, ...]
    slot_tags: tuple[str, ...]
    intent: str

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "slot_tags", tuple(self.slot_tags))
        if len(self.tokens) == 0:
            raise StructuralError(f"utterance {self.id!r} has no tokens")
        if len(self.slot_tags) != len(self.tokens):
            raise StructuralError(
                f"utterance {self.id!r}: {len(self.tokens)} tokens "
                f"but {len(self.slot_tags)} tags"
            )
        for name, value in (("id", self.id), ("text", self.text), ("intent", self.intent)):
            if "\n" in value:
                raise StructuralError(f"utterance {self.id!r}: newline in {name} field")
        joined = "".join(self.tokens)
        if "\t" in joined or "\n" in joined:
            bad = next(tok for tok in self.tokens if "\t" in tok or "\n" in tok)
            raise StructuralError(
                f"utterance {self.id!r}: token {bad!r} contains tab or newline"
            )
        bio.check_tags(self.slot_tags)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of utterances plus derived label inventories.

    Inventories are computed at construction, so they always equal the
    union of labels observed in the utterances. Duplicate utterances are
    retained as distinct records.
    """

    name: str
    utterances: tuple[Utterance, ...]
    label_inventory: frozenset[str] = field(init=False)
    intent_inventory: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "utterances", tuple(self.utterances))
        tags = set().union(*(utt.slot_tags for utt in self.utterances))
        labels = {bio.parse_tag(tag)[1] for tag in tags} - {None}
        object.__setattr__(self, "label_inventory", frozenset(labels))
        intents = frozenset(utt.intent for utt in self.utterances)
        object.__setattr__(self, "intent_inventory", intents)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


@dataclass(frozen=True)
class Issue:
    """One BIO violation found by validate."""

    utterance_id: str
    position: int
    kind: bio.IssueKind


def parse_dataset(text: str, name: str = "dataset") -> Dataset:
    """Parse the block format into a Dataset.

    Extra blank lines between blocks and a trailing blank line are
    tolerated; the canonical form written by write_dataset has exactly
    one separator line and none at the end. Each block is split in bulk;
    only a block that fails the bulk checks is walked line by line, to
    word the error with its line number.
    """
    utterances = []
    for match in _BLOCK_RE.finditer(text):
        lines = match.group().split("\n", 3)
        if (
            len(lines) == 4
            and lines[0].startswith(_ID)
            and lines[1].startswith(_TEXT)
            and lines[2].startswith(_INTENT)
            and _ROWS_RE.fullmatch(lines[3])
        ):
            cells = lines[3].replace("\n", "\t").split("\t")
            if cells[0::3] == _indices(len(cells) // 3):
                utterances.append(Utterance(
                    lines[0][len(_ID):], lines[1][len(_TEXT):], cells[1::3], cells[2::3],
                    lines[2][len(_INTENT):],
                ))
                continue
        first = text.count("\n", 0, match.start()) + 1
        _block_error(list(enumerate(match.group().split("\n"), start=first)))
    return Dataset(name, tuple(utterances))


def _indices(n: int) -> list[str]:
    return _INDEX[:n] if n <= len(_INDEX) else [str(k) for k in range(1, n + 1)]


def _block_error(lines: list[tuple[int, str]]) -> None:
    """Raise the error of a block that failed parse_dataset's bulk checks."""
    if len(lines) < len(_HEADERS):
        raise StructuralError(f"line {lines[0][0]}: incomplete utterance block")
    values = []
    for (lineno, line), header in zip(lines, _HEADERS):
        if not line.startswith(header):
            raise StructuralError(f"line {lineno}: expected {header.rstrip()!r} header")
        values.append(line[len(header):])
    for offset, (lineno, line) in enumerate(lines[len(_HEADERS):], start=1):
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(
                f"expected 3 tab-separated columns, got {len(cols)}", line=lineno
            )
        index_str = cols[0]
        if index_str != str(offset):
            try:
                int(index_str)
            except ValueError:
                raise ParseError(
                    f"token index {index_str!r} is not an integer", line=lineno
                ) from None
            raise StructuralError(f"line {lineno}: token index {index_str}, expected {offset}")
    utt_id, utt_text, intent = values
    Utterance(utt_id, utt_text, (), (), intent)  # a block with no token lines: raises
    raise AssertionError("a block failed the bulk checks but passed the line checks")


def write_dataset(ds: Dataset) -> str:
    """Serialise to the canonical block format; inverse of parse_dataset."""
    index = _indices(max((len(utt.tokens) for utt in ds.utterances), default=0))
    blocks = []
    for utt in ds.utterances:
        rows = map("\t".join, zip(index, utt.tokens, utt.slot_tags))
        blocks.append(
            f"{_ID}{utt.id}\n{_TEXT}{utt.text}\n{_INTENT}{utt.intent}\n" + "\n".join(rows) + "\n"
        )
    return "\n".join(blocks)


def validate(ds: Dataset) -> list[Issue]:
    """List BIO transition violations; empty means every sequence is valid."""
    issues = []
    for utt in ds.utterances:
        for pos, kind in bio.tag_issues(utt.slot_tags):
            issues.append(Issue(utt.id, pos, kind))
    return issues
