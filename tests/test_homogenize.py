"""Label renaming, span trimming, and the pinned merge shuffle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slukit import bio, corpus, homogenize
from slukit.corpus import Dataset, Utterance
from slukit.errors import ParseError, StructuralError

from support import make_dataset, span_trim_spans

MAP_TEXT = (
    "# rename onto the shared schema\n"
    "[slots]\n"
    "timeRange\tdatetime\n"
    "city\tlocation\n"
    "\n"
    "[intents]\n"
    "AddToPlaylist\tmusic/add\n"
)


class TestLabelMap:
    def test_identity_fallback(self):
        lmap = homogenize.LabelMap({"a": "b"}, {})
        assert lmap.slot("a") == "b"
        assert lmap.slot("unmapped") == "unmapped"
        assert lmap.intent("anything") == "anything"

    def test_empty_target_rejected(self):
        with pytest.raises(StructuralError, match="empty"):
            homogenize.LabelMap({"a": ""}, {})

    def test_mappings_are_read_only(self):
        lmap = homogenize.LabelMap({"a": "b"}, {})
        with pytest.raises(TypeError):
            lmap.slot_map["a"] = "c"


class TestParseLabelMap:
    def test_sections_and_comments(self):
        lmap = homogenize.parse_label_map(MAP_TEXT)
        assert lmap.slot("timeRange") == "datetime"
        assert lmap.slot("city") == "location"
        assert lmap.intent("AddToPlaylist") == "music/add"

    def test_empty_file(self):
        lmap = homogenize.parse_label_map("")
        assert lmap.slot("x") == "x"

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="line 1.*unknown section"):
            homogenize.parse_label_map("[nope]\n")

    def test_mapping_before_section(self):
        with pytest.raises(ParseError, match="before any section"):
            homogenize.parse_label_map("a\tb\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="got 3"):
            homogenize.parse_label_map("[slots]\na\tb\tc\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key 'a'"):
            homogenize.parse_label_map("[slots]\na\tb\na\tc\n")

    def test_only_a_line_feed_ends_a_line(self):
        # a dataset accepts these characters inside an intent, so a map must too
        lmap = homogenize.parse_label_map("[intents]\nx\u2028y\tz\nu\x85v\tw\n")
        assert (lmap.intent("x\u2028y"), lmap.intent("u\x85v")) == ("z", "w")


class TestApplyLabelMap:
    def test_prefixes_preserved(self):
        ds = make_dataset(
            [["B-timeRange", "I-timeRange", "O"]], intents=["AddToPlaylist"]
        )
        lmap = homogenize.parse_label_map(MAP_TEXT)
        out = homogenize.apply_label_map(ds, lmap)
        assert out.utterances[0].slot_tags == ("B-datetime", "I-datetime", "O")
        assert out.utterances[0].intent == "music/add"
        assert out.label_inventory == frozenset({"datetime"})

    def test_collapsed_adjacent_spans_stay_separate(self):
        ds = make_dataset([["B-city", "B-timeRange"]])
        lmap = homogenize.LabelMap({"city": "x", "timeRange": "x"}, {})
        out = homogenize.apply_label_map(ds, lmap)
        assert out.utterances[0].slot_tags == ("B-x", "B-x")

    def test_collapsed_adjacent_spans_stay_two_spans(self):
        ds = make_dataset([["B-city", "I-city", "B-timeRange", "I-timeRange", "O"],
                           ["B-timeRange", "B-city"]])
        lmap = homogenize.LabelMap({"city": "x", "timeRange": "x"}, {})
        out = homogenize.apply_label_map(ds, lmap)
        assert out.utterances[0].slot_tags == ("B-x", "I-x", "B-x", "I-x", "O")
        assert bio.spans_from_tags(out.utterances[0].slot_tags) == [
            bio.SlotSpan(0, 2, "x"), bio.SlotSpan(2, 4, "x")]
        assert out.utterances[1].slot_tags == ("B-x", "B-x")
        assert out.label_inventory == frozenset({"x"})

    def test_unmapped_labels_untouched(self):
        ds = make_dataset([["B-other", "O"]])
        out = homogenize.apply_label_map(ds, homogenize.parse_label_map(MAP_TEXT))
        assert out.utterances[0].slot_tags == ("B-other", "O")

    def test_renamed_tags_are_checked(self):
        # a map target with a space cannot form a tag: the map is rejected
        # when it is built, before any dataset is renamed
        with pytest.raises(StructuralError) as err:
            homogenize.LabelMap({"x": "a b"}, {})
        assert str(err.value) == "slot label 'x' maps to 'a b', which cannot form a tag"


class TestTrimSpans:
    def _utt(self, tokens, tags):
        return Dataset((Utterance("u0", " ".join(tokens), tuple(tokens), tuple(tags), "x"),))

    def test_unchanged_rows_passed_through(self):
        ds = make_dataset([["B-loc", "I-loc"], ["O", "I-loc"], ["B-loc", "O"]])
        ds = Dataset([ds.utterances[0], ds.utterances[1],
                      ds.utterances[2]._replace(tokens=("the", "x"))])
        out = homogenize.trim_spans(ds, ["the"])
        assert out.utterances[0] is ds.utterances[0]
        assert out.utterances[1].slot_tags == ("O", "B-loc")  # repaired
        assert out.utterances[2].slot_tags == ("O", "O")  # trimmed
        assert out == homogenize.trim_spans(out, ["the"])

    def test_invalid_sequence_repaired_without_drop_word(self):
        # "at" occurs, but never at a span start, so no span is trimmed
        ds = self._utt(("at", "eight", "pm", "at"), ("O", "I-t", "I-u", "I-t"))
        out = homogenize.trim_spans(ds, ["at"])
        assert out.utterances[0].slot_tags == ("O", "B-t", "I-t", "I-t")

    def test_leading_function_word_stripped(self):
        ds = self._utt(("wake", "at", "eight"), ("O", "B-datetime", "I-datetime"))
        out = homogenize.trim_spans(ds, ["at", "for"])
        assert out.utterances[0].slot_tags == ("O", "O", "B-datetime")

    def test_case_insensitive(self):
        ds = self._utt(("At", "eight"), ("B-datetime", "I-datetime"))
        out = homogenize.trim_spans(ds, ["at"])
        assert out.utterances[0].slot_tags == ("O", "B-datetime")

    def test_multiple_leading_words(self):
        ds = self._utt(("for", "at", "eight"), ("B-t", "I-t", "I-t"))
        out = homogenize.trim_spans(ds, ["at", "for"])
        assert out.utterances[0].slot_tags == ("O", "O", "B-t")

    def test_fully_stripped_span_dropped(self):
        ds = self._utt(("at", "for"), ("B-t", "I-t"))
        out = homogenize.trim_spans(ds, ["at", "for"])
        assert out.utterances[0].slot_tags == ("O", "O")

    def test_inner_occurrences_kept(self):
        # only the leading run is stripped; a matching word inside stays
        ds = self._utt(("at", "eight", "at", "night"), ("B-t", "I-t", "I-t", "I-t"))
        out = homogenize.trim_spans(ds, ["at"])
        assert out.utterances[0].slot_tags == ("O", "B-t", "I-t", "I-t")

    def test_repairs_unclean_input_first(self):
        ds = self._utt(("at", "eight"), ("O", "I-t"))
        out = homogenize.trim_spans(ds, ["at"])
        assert out.utterances[0].slot_tags == ("O", "B-t")

    def test_adjacent_same_label_chunks_trimmed_apart(self):
        # the second chunk opens with its own B; trimming the first stops there
        ds = self._utt(("at", "at", "for", "x"), ("B-t", "B-t", "I-t", "I-t"))
        out = homogenize.trim_spans(ds, ["at", "for"])
        assert out.utterances[0].slot_tags == ("O", "O", "O", "B-t")


# Drop words in several cases, and tags that break BIO in every way repair mends.
TRIM_TOKENS = st.sampled_from(["at", "At", "AT", "for", "FOR", "x", "y", "Ät", "ät"])
TRIM_TAGS = st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b"])


@st.composite
def trim_case(draw):
    rows = []
    for k in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 8))
        tokens = tuple(draw(st.lists(TRIM_TOKENS, min_size=n, max_size=n)))
        tags = tuple(draw(st.lists(TRIM_TAGS, min_size=n, max_size=n)))
        rows.append(Utterance(f"u{k}", " ".join(tokens), tokens, tags, "i"))
    words = draw(st.lists(st.sampled_from(["at", "AT", "For", "x", "ÄT", "zz"]), max_size=3))
    return Dataset(tuple(rows)), words


@settings(max_examples=300, deadline=None)
@given(trim_case())
def test_one_pass_trim_matches_the_span_trim(case):
    """The one-pass rewrite gives the span-list trim's rows, passing unchanged ones through."""
    ds, words = case
    got, want = homogenize.trim_spans(ds, words), span_trim_spans(ds, words)
    assert got == want
    assert [g is u for g, u in zip(got, ds)] == [w is u for w, u in zip(want, ds)]


class TestSeededPermutation:
    def test_known_answer_outputs(self):
        # reference output sequence of the published 64-bit mix generator
        # seeded with 0
        state = 0
        outputs = []
        for _ in range(3):
            state, value = homogenize._splitmix64(state)
            outputs.append(value)
        assert outputs == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
        ]

    def test_is_permutation_and_deterministic(self):
        for n in (0, 1, 2, 17, 100):
            first = homogenize.seeded_permutation(n, seed=42)
            assert sorted(first) == list(range(n))
            assert homogenize.seeded_permutation(n, seed=42) == first

    def test_seed_changes_order(self):
        a = homogenize.seeded_permutation(50, seed=1)
        b = homogenize.seeded_permutation(50, seed=2)
        assert a != b

    def test_all_orders_reachable(self):
        seen = {
            tuple(homogenize.seeded_permutation(4, seed=s)) for s in range(2000)
        }
        assert seen == set(itertools.permutations(range(4)))

    def test_rng_algorithm_pinned(self):
        assert homogenize.RNG_ALGORITHM == "splitmix64/fisher-yates"


class TestMergeShuffle:
    def _two(self):
        a = make_dataset([["O"], ["B-x"]], prefix="a")
        b = make_dataset([["O", "O"], ["B-y"], ["O"]], prefix="b")
        return a, b

    def test_union(self):
        a, b = self._two()
        merged = homogenize.merge_shuffle([a, b], seed=3)
        assert len(merged) == 5
        assert sorted(u.id for u in merged) == ["a0", "a1", "b0", "b1", "b2"]

    def test_bit_reproducible(self):
        a, b = self._two()
        one = corpus.write_dataset(Dataset(homogenize.merge_shuffle([a, b], seed=9)))
        two = corpus.write_dataset(Dataset(homogenize.merge_shuffle([a, b], seed=9)))
        assert one == two

    def test_seed_changes_order(self):
        ds = make_dataset([["O"] for _ in range(30)])
        orders = {
            tuple(u.id for u in homogenize.merge_shuffle([ds], seed=s))
            for s in range(5)
        }
        assert len(orders) == 5

    def test_duplicates_survive(self):
        ds = make_dataset([["O"]])
        merged = homogenize.merge_shuffle([ds, ds], seed=0)
        assert len(merged) == 2
        assert [u.id for u in merged] == ["u0", "u0"]

    def test_needs_input(self):
        with pytest.raises(StructuralError, match="at least one"):
            homogenize.merge_shuffle([], seed=0)
