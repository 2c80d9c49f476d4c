"""Utterance/Dataset model and the tab-separated block file format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slukit import bio, corpus
from slukit.errors import ParseError, StructuralError, ToolkitError

from support import line_parse_dataset, make_dataset, random_messy_tags

SAMPLE = (
    "# id: u1\n"
    "# text: wake me at eight\n"
    "# intent: alarm/set\n"
    "1\twake\tO\n"
    "2\tme\tO\n"
    "3\tat\tB-datetime\n"
    "4\teight\tI-datetime\n"
    "\n"
    "# id: u2\n"
    "# text: hello\n"
    "# intent: none\n"
    "1\thello\tO\n"
)
THIRD = "# id: u3\n# text: good night\n# intent: none\n1\tgood\tO\n2\tnight\tO\n"
BLOCK_SHAPE_ERRORS = [
    pytest.param(SAMPLE.replace("\n\n", "\n"), ParseError,
                 "line 8: expected 3 tab-separated columns, got 1", id="no_blank_line"),
    pytest.param(SAMPLE + "\n" + THIRD.replace("2\tnight", "3\tnight") + "\n" + SAMPLE,
                 StructuralError, "line 18: token index 3, expected 2", id="middle_block_index"),
    pytest.param("x\n\n" + SAMPLE, StructuralError, "line 1: incomplete utterance block",
                 id="leading_junk"),
    pytest.param(SAMPLE + "junk\n", ParseError,
                 "line 13: expected 3 tab-separated columns, got 1", id="trailing_row"),
    pytest.param(SAMPLE + "\njunk\n", StructuralError, "line 14: incomplete utterance block",
                 id="trailing_block"),
]


def _one_row(*fields):
    """A Dataset of the one row given; Dataset is where rows are checked."""
    return corpus.Dataset([corpus.Utterance(*fields)])


def _row_error(*fields) -> str:
    with pytest.raises(StructuralError) as err:
        _one_row(*fields)
    return str(err.value)


class TestUtterance:
    """The row checks, made where every row is checked: at Dataset construction."""

    def test_fields_coerced_to_tuples(self):
        (utt,) = _one_row("a", "x y", ["x", "y"], ["O", "O"], "none").utterances
        assert type(utt.tokens) is tuple and utt.tokens == ("x", "y")
        assert type(utt.slot_tags) is tuple and utt.slot_tags == ("O", "O")

    def test_no_tokens(self):
        assert _row_error("a", "", (), (), "none") == "utterance 'a' has no tokens"

    def test_length_mismatch(self):
        assert _row_error("a", "x y", ("x", "y"), ("O",), "none") == (
            "utterance 'a': 2 tokens but 1 tags"
        )

    def test_newline_in_metadata(self):
        assert _row_error("a", "x\ny", ("x",), ("O",), "none") == (
            "utterance 'a': newline in text field"
        )

    def test_tab_in_token(self):
        assert _row_error("a", "x", ("x\ty",), ("O",), "none") == (
            "utterance 'a': token 'x\\ty' contains tab or newline"
        )

    def test_malformed_tag(self):
        assert _row_error("a", "x", ("x",), ("B-",), "none") == (
            "utterance 'a': malformed tag 'B-' at position 0"
        )

    def test_names_first_bad_token(self):
        tokens = ("x", "y\tz", "w\nv")
        assert _row_error("a", "x", tokens, ("O", "O", "O"), "none") == (
            "utterance 'a': token 'y\\tz' contains tab or newline"
        )

    def test_names_first_bad_tag_position(self):
        # "O" and "B-loc" are known tags, so only the new ones send the
        # check down its positional scan
        bio.parse_tag("B-loc")
        tags = ("O", "B-loc", "B-", "I-a b")
        assert _row_error("a", "w x y z", ("w", "x", "y", "z"), tags, "none") == (
            "utterance 'a': malformed tag 'B-' at position 2"
        )

    def test_invalid_transitions_allowed(self):
        # lexially fine but invalid BIO is a validate() concern, not a
        # construction error
        (utt,) = _one_row("a", "x y", ("x", "y"), ("O", "I-a"), "none").utterances
        assert utt.slot_tags == ("O", "I-a")

    def test_utterance_itself_is_a_plain_record(self):
        utt = corpus.Utterance("a", "", (), ("B-",), "x\ny")
        assert tuple(utt) == ("a", "", (), ("B-",), "x\ny")

    @pytest.mark.parametrize("fields, message", [
        (("a", "x", ("x",), ("O",), "i\nj"), "utterance 'a': newline in intent field"),
        (("a\nb", "x", ("x",), ("O",), "i"), "utterance 'a\\nb': newline in id field"),
        (("a", "x", ("x\n",), ("O",), "i"), "utterance 'a': token 'x\\n' contains tab or newline"),
        (("a", "x", ("x",), ("O", "O"), "i"), "utterance 'a': 1 tokens but 2 tags"),
    ])
    def test_each_check_is_made(self, fields, message):
        assert _row_error(*fields) == message

    def test_checks_run_in_row_order(self):
        # each row has one problem; a later check on an earlier row wins
        rows = [
            corpus.Utterance("ok", "x", ("x",), ("O",), "i"),
            corpus.Utterance("r1", "x", ("x",), ("B-",), "i"),
            corpus.Utterance("r2", "x", (), (), "i"),
            corpus.Utterance("r3", "x", ("x\t",), ("O",), "i"),
        ]
        with pytest.raises(StructuralError) as err:
            corpus.Dataset(rows)
        assert str(err.value) == "utterance 'r1': malformed tag 'B-' at position 0"

    def test_within_a_row_the_earlier_check_wins(self):
        assert _row_error("a", "x\ny", ("x\t",), ("B-",), "none") == (
            "utterance 'a': newline in text field"
        )

    def test_every_dataset_checks_its_rows(self):
        good = corpus.Utterance("a", "x", ("x",), ("O",), "i")
        bad = good._replace(slot_tags=("I-",))
        ds = corpus.Dataset([good])
        with pytest.raises(StructuralError, match="^utterance 'a': malformed tag 'I-'"):
            corpus.Dataset([*ds, bad])


class TestRowContract:
    """Rows inside a Dataset are Utterances whose tokens and tags are tuples."""

    def test_lists_and_plain_tuples_converted(self):
        rows = [
            ("a", "x y", ["x", "y"], ["O", "B-l"], "i"),
            corpus.Utterance("b", "z", ("z",), ("O",), "j"),
            ["c", "w", ["w"], ("O",), "i"],
        ]
        ds = corpus.Dataset(rows)
        assert all(type(utt) is corpus.Utterance for utt in ds)
        assert all(type(utt.tokens) is tuple and type(utt.slot_tags) is tuple for utt in ds)
        assert [tuple(utt) for utt in ds] == [
            ("a", "x y", ("x", "y"), ("O", "B-l"), "i"),
            ("b", "z", ("z",), ("O",), "j"),
            ("c", "w", ("w",), ("O",), "i"),
        ]
        assert ds.label_inventory == frozenset({"l"})
        assert len({hash(utt) for utt in ds}) == 3  # tuple fields: every row hashes

    def test_canonical_rows_kept_as_given(self):
        rows = (corpus.Utterance("a", "x", ("x",), ("O",), "i"),)
        assert corpus.Dataset(rows).utterances[0] is rows[0]

    def test_converted_rows_are_checked(self):
        with pytest.raises(StructuralError) as err:
            corpus.Dataset([("a", "x", ["x\t"], ["O"], "i")])
        assert str(err.value) == "utterance 'a': token 'x\\t' contains tab or newline"


class TestDataset:
    def test_inventories(self):
        ds = make_dataset(
            [["B-loc", "I-loc"], ["O", "B-datetime"]], intents=["a", "b"]
        )
        assert ds.label_inventory == frozenset({"loc", "datetime"})
        assert ds.intent_inventory == frozenset({"a", "b"})

    def test_len_and_iter(self):
        ds = make_dataset([["O"], ["O", "O"]])
        assert len(ds) == 2
        assert [u.id for u in ds] == ["u0", "u1"]

    def test_empty_dataset_allowed(self):
        ds = corpus.Dataset(())
        assert len(ds) == 0
        assert ds.label_inventory == frozenset()


class TestParse:
    def test_sample(self):
        ds = corpus.parse_dataset(SAMPLE)
        assert len(ds) == 2
        first = ds.utterances[0]
        assert first.id == "u1"
        assert first.text == "wake me at eight"
        assert first.intent == "alarm/set"
        assert first.tokens == ("wake", "me", "at", "eight")
        assert first.slot_tags == ("O", "O", "B-datetime", "I-datetime")

    def test_round_trip_canonical(self):
        ds = corpus.parse_dataset(SAMPLE)
        assert corpus.write_dataset(ds) == SAMPLE

    def test_long_utterance_round_trip(self):
        ds = make_dataset([["O"] * 1000])
        text = corpus.write_dataset(ds)
        assert text.endswith("\n1000\ttok999\tO\n")
        assert corpus.parse_dataset(text) == ds

    def test_extra_blank_lines_tolerated(self):
        padded = "\n\n" + SAMPLE.replace("\n\n", "\n\n\n") + "\n\n"
        ds = corpus.parse_dataset(padded)
        assert corpus.write_dataset(ds) == SAMPLE

    def test_round_trip_fuzz(self):
        rng = random.Random(11)
        seqs = [random_messy_tags(rng, rng.randint(1, 8)) for _ in range(50)]
        ds = make_dataset(seqs, intents=[f"i{k % 3}" for k in range(50)])
        text = corpus.write_dataset(ds)
        again = corpus.parse_dataset(text)
        assert again == ds
        assert corpus.write_dataset(again) == text

    def test_wrong_header_order(self):
        bad = SAMPLE.replace("# text: wake me at eight\n# intent: alarm/set",
                             "# intent: alarm/set\n# text: wake me at eight")
        with pytest.raises(StructuralError, match="line 2"):
            corpus.parse_dataset(bad)

    def test_incomplete_block(self):
        with pytest.raises(StructuralError, match="incomplete"):
            corpus.parse_dataset("# id: u1\n# text: x\n")

    def test_missing_token_lines(self):
        with pytest.raises(StructuralError, match="no tokens"):
            corpus.parse_dataset("# id: u1\n# text: x\n# intent: none\n")

    def test_wrong_column_count(self):
        bad = SAMPLE.replace("1\twake\tO", "1\twake")
        with pytest.raises(ParseError, match="line 4.*got 2"):
            corpus.parse_dataset(bad)

    def test_non_integer_index(self):
        bad = SAMPLE.replace("1\twake\tO", "x\twake\tO")
        with pytest.raises(ParseError, match="line 4.*not an integer"):
            corpus.parse_dataset(bad)

    def test_non_contiguous_index(self):
        bad = SAMPLE.replace("2\tme\tO", "3\tme\tO")
        with pytest.raises(StructuralError, match="token index 3, expected 2"):
            corpus.parse_dataset(bad)

    @pytest.mark.parametrize("index", ["01", "+1", " 1", "1 ", "\u0661"])
    def test_index_must_be_the_plain_decimal(self, index):
        # int() reads each of these as 1; the file format does not
        bad = SAMPLE.replace("1\twake\tO", f"{index}\twake\tO")
        with pytest.raises(StructuralError) as err:
            corpus.parse_dataset(bad)
        assert str(err.value) == f"line 4: token index {index}, expected 1"

    def test_index_error_quotes_the_raw_column(self):
        bad = SAMPLE.replace("2\tme\tO", "1_1\tme\tO")
        with pytest.raises(StructuralError) as err:
            corpus.parse_dataset(bad)
        assert str(err.value) == "line 5: token index 1_1, expected 2"

    @pytest.mark.parametrize("index", ["", "x", "1.0", "one"])
    def test_non_numeric_index_is_a_parse_error(self, index):
        bad = SAMPLE.replace("2\tme\tO", f"{index}\tme\tO")
        with pytest.raises(ParseError) as err:
            corpus.parse_dataset(bad)
        assert str(err.value) == f"line 5: token index {index!r} is not an integer"

    def test_error_line_counts_blank_lines(self):
        padded = "\n\n" + SAMPLE.replace("\n\n", "\n\n\n\n")
        bad = padded.replace("1\thello\tO", "1\thello")
        with pytest.raises(ParseError, match="^line 16: expected 3 tab-separated columns, got 2$"):
            corpus.parse_dataset(bad)

    def test_shifted_column_rejected(self):
        # an extra column on one row and a missing one on the next keep the
        # cell count and the index pattern of a good block
        bad = "# id: u\n# text: x y\n# intent: i\n1\tx\tO\t2\ny\tO\n"
        with pytest.raises(ParseError, match="^line 4: expected 3 tab-separated columns, got 4$"):
            corpus.parse_dataset(bad)

    def test_header_only_block(self):
        with pytest.raises(StructuralError, match="^utterance 'u2' has no tokens$"):
            corpus.parse_dataset(SAMPLE.replace("\n1\thello\tO", ""))

    def test_malformed_tag_rejected(self):
        bad = SAMPLE.replace("3\tat\tB-datetime", "3\tat\tB-")
        with pytest.raises(StructuralError):
            corpus.parse_dataset(bad)

    def test_malformed_tag_names_the_utterance(self):
        bad = SAMPLE.replace("3\tat\tB-datetime", "3\tat\tB-")
        with pytest.raises(StructuralError) as err:
            corpus.parse_dataset(bad)
        assert str(err.value) == "utterance 'u1': malformed tag 'B-' at position 2"

    def test_bad_row_wins_over_a_later_block_error(self):
        # a malformed tag in block 1 is reported ahead of a header error in block 3
        bad = SAMPLE.replace("3\tat\tB-datetime", "3\tat\tB-") + (
            "\n# id: u3\n# intent: none\n# text: x\n1\tx\tO\n"
        )
        with pytest.raises(StructuralError) as err:
            corpus.parse_dataset(bad)
        assert str(err.value) == "utterance 'u1': malformed tag 'B-' at position 2"
        good_first = SAMPLE + "\n# id: u3\n# intent: none\n# text: x\n1\tx\tO\n"
        with pytest.raises(StructuralError) as err:
            corpus.parse_dataset(good_first)
        assert str(err.value) == "line 15: expected '# text:' header"

    def test_bad_row_wins_over_a_later_empty_block(self):
        bad = SAMPLE.replace("4\teight\tI-datetime", "4\teight\tI-") + (
            "\n# id: u3\n# text: x\n# intent: none\n"
        )
        with pytest.raises(StructuralError) as err:
            corpus.parse_dataset(bad)
        assert str(err.value) == "utterance 'u1': malformed tag 'I-' at position 3"

    def test_empty_text_gives_empty_dataset(self):
        assert len(corpus.parse_dataset("")) == 0

    @pytest.mark.parametrize("padded", [
        "\n" + SAMPLE,
        "\n\n\n" + SAMPLE,
        SAMPLE + "\n",
        SAMPLE + "\n\n\n",
        SAMPLE.replace("\n\n", "\n\n\n\n"),
    ], ids=["leading", "leading_run", "trailing", "trailing_run", "repeated"])
    def test_blank_lines_parse_to_the_canonical_dataset(self, padded):
        assert corpus.parse_dataset(padded) == corpus.parse_dataset(SAMPLE)

    @pytest.mark.parametrize("text,error,message", BLOCK_SHAPE_ERRORS)
    def test_block_shape_errors(self, text, error, message):
        with pytest.raises(error) as err:
            corpus.parse_dataset(text)
        assert str(err.value) == message

    def test_equal_values_share_one_object(self):
        ds = corpus.parse_dataset(SAMPLE + "\n" + THIRD + "\n" + SAMPLE.replace("# id: u", "# id: v"))
        tokens = [token for utt in ds for token in utt.tokens]
        tags = [tag for utt in ds for tag in utt.slot_tags]
        intents = [utt.intent for utt in ds]
        for values in (tokens, tags, intents):
            assert len(set(values)) < len(values)  # every column repeats a value
            assert len({id(value) for value in values}) == len(set(values))


# Tokens and tags the oracle test draws; garbling splices in the pieces
# that the bulk checks must catch (separators, index look-alikes).
TOKENS = st.text(st.characters(blacklist_characters="\t\n\r"), min_size=1, max_size=4)
TAGS = st.sampled_from(["O", "B-a", "I-a", "B-loc", "I-loc", "B-x-y"])
GARBLE = st.sampled_from([b"\n", b"\n\n", b"\t", b"\r", b"#", b" ", b"0", b"1", b"2", b"+",
                          b"_", "\u0661".encode(), b"B-", b"I-", b"# id: ", b"# intent: ", b""])


KINDS = ("canonical", "blank", "crlf", "crlf_normalised", "garbled", "moved_tab")


@st.composite
def block_text(draw, kinds=KINDS) -> str:
    """Canonical block text, then padded, CRLF-edited, garbled or with a tab moved."""
    utts = []
    for k in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 4))
        tokens = draw(st.lists(TOKENS, min_size=n, max_size=n))
        tags = draw(st.lists(TAGS, min_size=n, max_size=n))
        utts.append(corpus.Utterance(f"u{k}", " ".join(tokens), tokens, tags, "i"))
    text = corpus.write_dataset(corpus.Dataset(utts))
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        text = "\n" * draw(st.integers(0, 2)) + text.replace("\n\n", "\n" * draw(
            st.integers(2, 4))) + "\n" * draw(st.integers(0, 2))
    elif kind.startswith("crlf"):
        text = text.replace("\n", "\r\n")
        if kind == "crlf_normalised":  # as the CLI reads files
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    elif kind == "moved_tab" and "\t" in text:  # one row loses a column, another gains one
        tabs = [k for k, c in enumerate(text) if c == "\t"]
        cut = draw(st.sampled_from(tabs))
        text = text[:cut] + text[cut + 1:]
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + "\t" + text[pos:]
    elif kind == "garbled":  # byte edits, decoded as a lenient reader would
        data = bytearray(text.encode("utf-8", "surrogatepass"))  # TOKENS can draw lone surrogates
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(data)))
            cut = draw(st.integers(0, 3))
            data[pos:pos + cut] = draw(GARBLE | st.binary(max_size=2))
        text = data.decode("utf-8", errors="replace")
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ToolkitError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(block_text())
def test_bulk_parser_agrees_with_line_oracle(text):
    """parse_dataset returns what the line-by-line walk returns, or raises its error."""
    assert _outcome(corpus.parse_dataset, text) == _outcome(line_parse_dataset, text)


# The malformed texts of the parse tests above, each of which parse_dataset refuses.
MALFORMED = {p.id: p.values[0] for p in BLOCK_SHAPE_ERRORS} | {
    "header_order": SAMPLE.replace("# text: wake me at eight\n# intent: alarm/set",
                                   "# intent: alarm/set\n# text: wake me at eight"),
    "incomplete": "# id: u1\n# text: x\n",
    "no_token_lines": "# id: u1\n# text: x\n# intent: none\n",
    "two_columns": SAMPLE.replace("1\twake\tO", "1\twake"),
    "index_gap": SAMPLE.replace("2\tme\tO", "3\tme\tO"),
    "index_raw_column": SAMPLE.replace("2\tme\tO", "1_1\tme\tO"),
    **{f"index_{k}": SAMPLE.replace("1\twake\tO", f"{index}\twake\tO")
       for k, index in enumerate(["01", "+1", " 1", "1 ", "\u0661", "", "x", "1.0", "one"])},
    "blank_lines_counted": ("\n\n" + SAMPLE.replace("\n\n", "\n\n\n\n")).replace(
        "1\thello\tO", "1\thello"),
    "shifted_column": "# id: u\n# text: x y\n# intent: i\n1\tx\tO\t2\ny\tO\n",
    "header_only": SAMPLE.replace("\n1\thello\tO", ""),
    "malformed_tag": SAMPLE.replace("3\tat\tB-datetime", "3\tat\tB-"),
    "bad_row_then_bad_header": SAMPLE.replace("3\tat\tB-datetime", "3\tat\tB-")
    + "\n# id: u3\n# intent: none\n# text: x\n1\tx\tO\n",
    "bad_header": SAMPLE + "\n# id: u3\n# intent: none\n# text: x\n1\tx\tO\n",
    "bad_row_then_empty_block": SAMPLE.replace("4\teight\tI-datetime", "4\teight\tI-")
    + "\n# id: u3\n# text: x\n# intent: none\n",
}


def _blocks_written(text):
    return corpus.write_blocks(corpus.parse_blocks(text))


def _dataset_written(text):
    return corpus.write_dataset(corpus.parse_dataset(text))


class TestParseBlocks:
    """parse_blocks keeps parse_dataset's blocks as text, and refuses what it refuses."""

    @settings(max_examples=200, deadline=None)
    @given(block_text(kinds=("canonical", "blank", "crlf_normalised")))
    def test_valid_text_written_back_as_write_dataset_writes_it(self, text):
        assert _blocks_written(text) == _dataset_written(text)

    @pytest.mark.parametrize("text", ["", "\n", "\n\n\n"])
    def test_blank_text_has_no_blocks(self, text):
        assert corpus.parse_blocks(text) == []
        assert _blocks_written(text) == "" == _dataset_written(text)

    def test_blocks_are_the_canonical_block_texts(self):
        blocks = corpus.parse_blocks("\n" + SAMPLE.replace("\n\n", "\n\n\n") + "\n\n")
        assert blocks == SAMPLE.rstrip("\n").split("\n\n")

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_text_raises_as_parse_dataset(self, text):
        error = _outcome(corpus.parse_dataset, text)
        assert isinstance(error, tuple)  # a malformed text, which parse_dataset refuses
        assert _outcome(corpus.parse_blocks, text) == error

    @settings(max_examples=300, deadline=None)
    @given(block_text())
    def test_any_text_has_parse_dataset_outcome(self, text):
        assert _outcome(_blocks_written, text) == _outcome(_dataset_written, text)


class TestValidate:
    def test_clean(self):
        ds = corpus.parse_dataset(SAMPLE)
        assert corpus.validate(ds) == []

    def test_reports_id_position_kind(self):
        ds = make_dataset([["O", "I-a"], ["B-a", "I-b"], ["B-a", "I-a"]])
        issues = corpus.validate(ds)
        assert [(i.utterance_id, i.position, i.kind) for i in issues] == [
            ("u0", 1, bio.IssueKind.ORPHAN_I),
            ("u1", 1, bio.IssueKind.LABEL_SWITCH),
        ]


class TestCsvRows:
    def test_rows_as_dicts_with_their_file_lines(self):
        header, rows = corpus.csv_rows('a,b\n1,2\n\n"x\ny",3\n')
        assert header == ["a", "b"]
        assert list(rows) == [(2, {"a": "1", "b": "2"}), (4, {"a": "x\ny", "b": "3"})]

    def test_repeated_column_refused(self):
        """A row's dict would keep one cell of a repeated column and drop the others."""
        for header, first in (("a,a", "a"), ("a,b,b,a", "b"), ("a,,", "")):
            with pytest.raises(ParseError, match=f"^line 1: column '{first}' repeated$"):
                corpus.csv_rows(f"{header}\n1,2\n")

    def test_empty_text_has_no_header(self):
        header, rows = corpus.csv_rows("")
        assert header == [] and list(rows) == []

    @pytest.mark.parametrize("row,got", [("1,2,3", 3), ("1", 1), (",,", 3)])
    def test_other_cell_count_names_line(self, row, got):
        header, rows = corpus.csv_rows(f"a,b\n1,2\n{row}\n4,5\n")
        with pytest.raises(ParseError, match=f"^line 3: expected 2 cells, got {got}$"):
            list(rows)

    def test_bad_record_names_the_line_it_starts_on(self):
        header, rows = corpus.csv_rows('a,b\n"x\ny\nz",2,3\n')
        with pytest.raises(ParseError, match="^line 2: expected 2 cells, got 3$"):
            list(rows)
