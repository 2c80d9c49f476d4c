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


class TestUtterance:
    def test_fields_coerced_to_tuples(self):
        utt = corpus.Utterance("a", "x y", ["x", "y"], ["O", "O"], "none")
        assert utt.tokens == ("x", "y")
        assert utt.slot_tags == ("O", "O")

    def test_no_tokens(self):
        with pytest.raises(StructuralError, match="no tokens"):
            corpus.Utterance("a", "", (), (), "none")

    def test_length_mismatch(self):
        with pytest.raises(StructuralError, match="2 tokens"):
            corpus.Utterance("a", "x y", ("x", "y"), ("O",), "none")

    def test_newline_in_metadata(self):
        with pytest.raises(StructuralError, match="newline"):
            corpus.Utterance("a", "x\ny", ("x",), ("O",), "none")

    def test_tab_in_token(self):
        with pytest.raises(StructuralError, match="tab"):
            corpus.Utterance("a", "x", ("x\ty",), ("O",), "none")

    def test_malformed_tag(self):
        with pytest.raises(StructuralError):
            corpus.Utterance("a", "x", ("x",), ("B-",), "none")

    def test_names_first_bad_token(self):
        tokens = ("x", "y\tz", "w\nv")
        with pytest.raises(StructuralError) as err:
            corpus.Utterance("a", "x", tokens, ("O", "O", "O"), "none")
        assert str(err.value) == "utterance 'a': token 'y\\tz' contains tab or newline"

    def test_names_first_bad_tag_position(self):
        # "O" and "B-loc" are known tags, so only the new ones send the
        # check down its positional scan
        bio.parse_tag("B-loc")
        tags = ("O", "B-loc", "B-", "I-a b")
        with pytest.raises(StructuralError) as err:
            corpus.Utterance("a", "w x y z", ("w", "x", "y", "z"), tags, "none")
        assert str(err.value) == "malformed tag 'B-' at position 2"

    def test_invalid_transitions_allowed(self):
        # lexially fine but invalid BIO is a validate() concern, not a
        # construction error
        utt = corpus.Utterance("a", "x y", ("x", "y"), ("O", "I-a"), "none")
        assert utt.slot_tags == ("O", "I-a")


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
        ds = corpus.Dataset("empty", ())
        assert len(ds) == 0
        assert ds.label_inventory == frozenset()


class TestParse:
    def test_sample(self):
        ds = corpus.parse_dataset(SAMPLE, name="sample")
        assert ds.name == "sample"
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
        assert corpus.parse_dataset(text, name=ds.name) == ds

    def test_extra_blank_lines_tolerated(self):
        padded = "\n\n" + SAMPLE.replace("\n\n", "\n\n\n") + "\n\n"
        ds = corpus.parse_dataset(padded)
        assert corpus.write_dataset(ds) == SAMPLE

    def test_round_trip_fuzz(self):
        rng = random.Random(11)
        seqs = [random_messy_tags(rng, rng.randint(1, 8)) for _ in range(50)]
        ds = make_dataset(seqs, intents=[f"i{k % 3}" for k in range(50)])
        text = corpus.write_dataset(ds)
        again = corpus.parse_dataset(text, name=ds.name)
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

    def test_empty_text_gives_empty_dataset(self):
        assert len(corpus.parse_dataset("")) == 0


# Tokens and tags the oracle test draws; garbling splices in the pieces
# that the bulk checks must catch (separators, index look-alikes).
TOKENS = st.text(st.characters(blacklist_characters="\t\n\r"), min_size=1, max_size=4)
TAGS = st.sampled_from(["O", "B-a", "I-a", "B-loc", "I-loc", "B-x-y"])
GARBLE = st.sampled_from([b"\n", b"\n\n", b"\t", b"\r", b"#", b" ", b"0", b"1", b"2", b"+",
                          b"_", "\u0661".encode(), b"B-", b"I-", b"# id: ", b"# intent: ", b""])


@st.composite
def block_text(draw) -> str:
    """Canonical block text, then padded, CRLF-edited, garbled or with a tab moved."""
    utts = []
    for k in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 4))
        tokens = draw(st.lists(TOKENS, min_size=n, max_size=n))
        tags = draw(st.lists(TAGS, min_size=n, max_size=n))
        utts.append(corpus.Utterance(f"u{k}", " ".join(tokens), tokens, tags, "i"))
    text = corpus.write_dataset(corpus.Dataset("d", utts))
    kind = draw(st.sampled_from(
        ["canonical", "blank", "crlf", "crlf_normalised", "garbled", "moved_tab"]))
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
        return parse(text, name="d")
    except ToolkitError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(block_text())
def test_bulk_parser_agrees_with_line_oracle(text):
    """parse_dataset returns what the line-by-line walk returns, or raises its error."""
    assert _outcome(corpus.parse_dataset, text) == _outcome(line_parse_dataset, text)


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
