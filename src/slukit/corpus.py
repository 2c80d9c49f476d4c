"""Utterance data model and its tab-separated block file format.

An ``Utterance`` is a plain, immutable record; a ``Dataset`` is the one
place where rows are checked, all of them in bulk, whenever one is built.

One utterance per block, blocks separated by exactly one blank line::

    # id: <id>
    # text: <raw text>
    # intent: <label>
    1<TAB><token><TAB><tag>
    2<TAB><token><TAB><tag>

Token indices are 1-based and contiguous, written as plain decimals
(``1``, ``2``, ...; no sign, padding or other digits). Files are UTF-8
with LF line endings and no trailing blank line; ``write_blocks`` emits
exactly this shape, and ``write_dataset`` writes through it.
``parse_dataset`` inverts it, in one regex pass over the text. In a
parsed Dataset, equal tokens, tags and intents share one ``str`` object
(a corpus has far fewer types than tokens), so callers compare them with
``==``, never ``is``.

``parse_blocks`` makes the same scan and the same checks, but keeps each
block as its text: a caller that only reorders utterances (``merge``)
never builds a record. Any text the scan refuses goes to
``parse_dataset``, so both raise the same error for it.

``csv_rows`` reads the CSV tables that ``agreement``, ``correlate`` and
``significance`` take: no column name repeats, and every row holds
exactly as many cells as the header.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from . import bio
from .errors import ParseError, StructuralError

_HEADERS = ("# id: ", "# text: ", "# intent: ")
_ID, _TEXT, _INTENT = _HEADERS
_BLOCK_RE = re.compile(r"[^\n]+(?:\n[^\n]+)*")  # a maximal run of nonblank lines
_ROW = r"[^\t\n]*\t[^\t\n]*\t[^\t\n]*"  # three tab-separated cells
# blank lines, then one whole block (its header values and its rows), then a blank line or the end
_UTTERANCE_RE = re.compile(
    rf"\n*{_ID}([^\n]*)\n{_TEXT}([^\n]*)\n{_INTENT}([^\n]*)\n({_ROW}(?:\n{_ROW})*)(?=\n\n|\n?\Z)"
)
_INDEX = [str(k) for k in range(1, 513)]  # the only accepted token index strings, in order


class Utterance(NamedTuple):
    """A single annotated sentence: a plain, immutable record.

    An Utterance checks nothing itself; the ``Dataset`` that holds it
    checks it (see ``Dataset``).
    """

    id: str
    text: str
    tokens: tuple[str, ...]
    slot_tags: tuple[str, ...]
    intent: str


def _check_row(utt: Utterance) -> None:
    """Raise the first problem of one row as a StructuralError that names its id.

    The checks run in a fixed order: tokens present, one tag per token,
    no newline in the id, text or intent, no tab or newline in a token,
    then each tag lexically well-formed BIO (``O`` / ``B-x`` / ``I-x``).
    Transition-level validity is not checked; that is what validate and
    bio.repair are for.
    """
    if len(utt.tokens) == 0:
        raise StructuralError(f"utterance {utt.id!r} has no tokens")
    if len(utt.slot_tags) != len(utt.tokens):
        raise StructuralError(
            f"utterance {utt.id!r}: {len(utt.tokens)} tokens but {len(utt.slot_tags)} tags"
        )
    for name, value in (("id", utt.id), ("text", utt.text), ("intent", utt.intent)):
        if "\n" in value:
            raise StructuralError(f"utterance {utt.id!r}: newline in {name} field")
    for tok in utt.tokens:
        if "\t" in tok or "\n" in tok:
            raise StructuralError(f"utterance {utt.id!r}: token {tok!r} contains tab or newline")
    try:
        bio.check_tags(utt.slot_tags)
    except StructuralError as err:
        raise StructuralError(f"utterance {utt.id!r}: {err}") from None


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of utterances plus derived label inventories.

    Dataset is the one place where rows are checked, and every Dataset
    checks every row it is given, in bulk: row lengths, one join over all
    tokens, one over all metadata, and the union of all tags. Only when a
    bulk test fails are the rows walked in order, so the error names the
    first bad row's id (see ``_check_row``). A metadata field may not hold
    a newline and a token may not hold a tab or newline, since either
    would break the file format round trip.

    Each row is stored as an ``Utterance`` whose tokens and slot_tags are
    tuples; a row given in another form (a list of tokens, a plain
    5-tuple) is converted. Inventories are computed at construction, so
    they always equal the union of labels observed in the utterances.
    Duplicate utterances are retained as distinct records. A Dataset has
    no name: the path it was read from names it, where one is needed.
    """

    utterances: tuple[Utterance, ...]
    label_inventory: frozenset[str] = field(init=False)
    intent_inventory: frozenset[str] = field(init=False)

    def __post_init__(self):
        utts = tuple(self.utterances)
        ids, texts, tokens, tags, intents = zip(*utts) if utts else ((),) * 5
        if not (  # rows in another form are rebuilt as Utterances of tuples
            {Utterance} >= set(map(type, utts))
            and {tuple} >= set(map(type, tokens)).union(map(type, tags))
        ):
            utts = tuple(Utterance(i, t, tuple(k), tuple(g), n) for i, t, k, g, n in utts)
            tokens = [utt.tokens for utt in utts]
            tags = [utt.slot_tags for utt in utts]
        object.__setattr__(self, "utterances", utts)
        # bulk tests over whole columns; any failure walks the rows in order
        tag_set = set().union(*tags)
        try:
            labels = {bio.parse_tag(tag)[1] for tag in tag_set}
        except StructuralError:
            labels = None
        lengths = list(map(len, tokens))
        joined = "".join(map("".join, tokens))
        if (
            labels is None
            or not all(lengths)
            or lengths != list(map(len, tags))
            or "\t" in joined
            or "\n" in joined
            or "\n" in "".join(ids + texts + intents)
        ):
            for utt in utts:
                _check_row(utt)
            raise AssertionError("rows failed the bulk checks but passed the row checks")
        object.__setattr__(self, "label_inventory", frozenset(labels - {None}))
        object.__setattr__(self, "intent_inventory", frozenset(intents))

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


def _scan(text: str, keep: Callable[[re.Match, list[str]], None]) -> re.Match | None:
    """The one bulk scan of the block format; returns the block it refuses, if any.

    Each block is matched whole by one pattern, the matches must tile the
    text up to blank lines, and a block's index cells must read 1..n.
    Each block accepted is handed on at once, in order, as
    ``keep(match, cells)``, where ``cells`` is the block's rows split into
    their cells, three per row. The result is a ``_BLOCK_RE`` match of the
    first block refused, or of nonblank text after the last block, and
    None when the whole text is accepted. Tags are not checked here.
    """
    end = 0
    for match in _UTTERANCE_RE.finditer(text):
        if match.start() != end:
            break
        cells = match[4].replace("\n", "\t").split("\t")
        if cells[0::3] != _indices(len(cells) // 3):
            break
        keep(match, cells)
        end = match.end()
    return _BLOCK_RE.search(text, end)


def parse_dataset(text: str) -> Dataset:
    """Parse the block format into a Dataset, in one pass over the text.

    Extra blank lines before, between and after blocks are tolerated; the
    canonical form written by write_dataset has exactly one separator line
    and none at the end. At the first block the scan (``_scan``) refuses,
    that block is walked line by line to word the error with its line
    number (the caller adds the file's path). Equal tokens, tags and
    intents share one ``str`` object, so compare them with ``==``, never
    ``is``.
    """
    utterances = []
    canonical = {}.setdefault  # one object per distinct value: the rows hold no copies

    def keep(match, cells):
        tokens, tags, intent = cells[1::3], cells[2::3], match[3]
        utterances.append(Utterance(
            match[1], match[2], tuple(map(canonical, tokens, tokens)),
            tuple(map(canonical, tags, tags)), canonical(intent, intent),
        ))

    refused = _scan(text, keep)
    if refused:
        Dataset(utterances)  # a bad row in an earlier block is reported first
        first = text.count("\n", 0, refused.start()) + 1
        _block_error(list(enumerate(refused.group().split("\n"), start=first)))
    return Dataset(tuple(utterances))


def parse_blocks(text: str) -> list[str]:
    """The blocks of ``text``, each exactly as ``write_dataset`` writes it: lines, no final newline.

    The scan and the checks are parse_dataset's (``_scan``, then one
    lexical check over the union of the tags), and no record is built:
    a block's text is a slice of ``text``. A block parse_dataset accepts
    is written back as its own text, so ``write_blocks(parse_blocks(t))
    == write_dataset(parse_dataset(t))``. Any text this refuses is handed
    to parse_dataset, which raises the error it raises today.
    """
    blocks, tags = [], set()

    def keep(match, cells):
        tags.update(cells[2::3])
        blocks.append(text[match.start(1) - len(_ID):match.end()])

    if not _scan(text, keep):
        try:
            bio.check_tags(tags)
        except StructuralError:
            pass
        else:
            return blocks
    parse_dataset(text)  # raises the error, with its line number or utterance id
    raise AssertionError("parse_blocks refused a text that parse_dataset accepts")


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
    _check_row(Utterance(utt_id, utt_text, (), (), intent))  # a block with no token lines
    raise AssertionError("a block failed the bulk checks but passed the line checks")


def write_blocks(blocks) -> str:
    """The file of the given block texts: one blank line between blocks and a final newline.

    No blocks give the empty text. This is the one place the file layout
    is written; ``write_dataset`` and ``merge`` write through it.
    """
    return "\n\n".join(blocks) + "\n" if blocks else ""


def write_dataset(ds: Dataset) -> str:
    """Serialise to the canonical block format; inverse of parse_dataset."""
    index = _indices(max((len(utt.tokens) for utt in ds.utterances), default=0))
    return write_blocks([
        f"{_ID}{utt.id}\n{_TEXT}{utt.text}\n{_INTENT}{utt.intent}\n"
        + "\n".join(map("\t".join, zip(index, utt.tokens, utt.slot_tags)))
        for utt in ds.utterances
    ])


def validate(ds: Dataset) -> list[Issue]:
    """List BIO transition violations; empty means every sequence is valid."""
    issues = []
    for utt in ds.utterances:
        for pos, kind in bio.tag_issues(utt.slot_tags):
            issues.append(Issue(utt.id, pos, kind))
    return issues


def csv_rows(text: str) -> tuple[list[str], Iterator[tuple[int, dict[str, str]]]]:
    """The header of CSV ``text`` and a lazy walk of its rows as (line, {column: cell}).

    A repeated column name raises ``line 1: column 'a' repeated``, since
    a row's dict could hold only one of its cells. Blank lines are
    skipped. A row with more or fewer cells than the header raises
    ``line N: expected K cells, got M``. A row's line is the one its
    record starts on (a quoted cell may span lines), counting every line
    of the file.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    for k, name in enumerate(header):
        if name in header[:k]:
            raise ParseError(f"column {name!r} repeated", line=1)

    def rows():
        start = reader.line_num + 1  # the first line of the next record
        for cells in reader:
            line, start = start, reader.line_num + 1
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(cells)}", line=line)
            yield line, dict(zip(header, cells))

    return header, rows()
