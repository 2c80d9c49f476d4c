"""Tag algebra: parsing, validity scanning, repair, span conversions."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slukit import bio
from slukit.errors import StructuralError

from support import (
    REPAIR_CASES, brute_spans, random_messy_tags, random_valid_tags, scan_tag_issues,
)


class TestParseTag:
    def test_outside(self):
        assert bio.parse_tag("O") == ("O", None)

    def test_begin_and_inside(self):
        assert bio.parse_tag("B-loc") == ("B", "loc")
        assert bio.parse_tag("I-datetime") == ("I", "datetime")

    def test_label_may_contain_dashes(self):
        assert bio.parse_tag("B-x-y") == ("B", "x-y")

    @pytest.mark.parametrize(
        "bad", ["", "B", "I", "B-", "I-", "o", "X-loc", "B loc", "B-a b", "OO"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(StructuralError):
            bio.parse_tag(bad)

    def test_error_names_position(self):
        with pytest.raises(StructuralError, match="position 3"):
            bio.parse_tag("B-", position=3)


class TestCheckTags:
    def test_well_formed_passes(self):
        assert bio.check_tags(["O", "B-a", "I-a", "I-b"]) is None
        assert bio.check_tags(()) is None

    def test_first_malformed_tag_named_with_position(self):
        bio.check_tags(["O", "B-a"])  # known tags: the set test alone passes them
        with pytest.raises(StructuralError, match="^malformed tag 'X-a' at position 2$"):
            bio.check_tags(["O", "B-a", "X-a", "B-"])

    def test_non_string_tag_rejected(self):
        with pytest.raises(StructuralError, match="position 1"):
            bio.check_tags(["O", 5])


class TestSlotSpan:
    def test_ordering_and_equality(self):
        assert bio.SlotSpan(0, 2, "a") == bio.SlotSpan(0, 2, "a")
        assert bio.SlotSpan(0, 1, "a") < bio.SlotSpan(1, 2, "a")

    def test_is_a_plain_record(self):
        span = bio.SlotSpan(0, 2, "a")
        assert isinstance(span, tuple) and tuple(span) == (0, 2, "a")
        assert hash(span) == hash((0, 2, "a"))
        assert repr(span) == "SlotSpan(start=0, end=2, label='a')"

    @pytest.mark.parametrize("start,end", [(-1, 2), (2, 2), (3, 1)])
    def test_bad_bounds(self, start, end):
        message = re.escape(f"bad span bounds [{start}, {end})")
        with pytest.raises(StructuralError, match=f"^{message}$"):
            bio.tags_from_spans([bio.SlotSpan(start, end, "a")], 5)

    def test_empty_label(self):
        with pytest.raises(StructuralError, match="^span label must be nonempty$"):
            bio.tags_from_spans([bio.SlotSpan(0, 1, "")], 5)

    def test_overlaps(self):
        a = bio.SlotSpan(0, 3, "x")
        assert a.overlaps(bio.SlotSpan(2, 5, "y"))
        assert not a.overlaps(bio.SlotSpan(3, 5, "y"))  # half-open, touching
        assert bio.SlotSpan(1, 2, "x").overlaps(bio.SlotSpan(0, 5, "y"))


class TestIssues:
    def test_valid_sequences_have_none(self):
        assert bio.tag_issues(["O", "B-a", "I-a", "B-b"]) == []
        assert not bio.tag_issues(["B-a", "I-a"])

    def test_orphan_at_start(self):
        assert bio.tag_issues(["I-a"]) == [(0, bio.IssueKind.ORPHAN_I)]

    def test_orphan_after_outside(self):
        assert bio.tag_issues(["O", "I-a"]) == [(1, bio.IssueKind.ORPHAN_I)]

    def test_label_switch(self):
        assert bio.tag_issues(["B-a", "I-b"]) == [(1, bio.IssueKind.LABEL_SWITCH)]

    def test_orphan_label_governs_rest_of_chunk(self):
        # after the orphan opens a chunk with label a, a following I-a is fine
        assert bio.tag_issues(["I-a", "I-a"]) == [(0, bio.IssueKind.ORPHAN_I)]
        assert bio.tag_issues(["I-a", "I-b"]) == [
            (0, bio.IssueKind.ORPHAN_I),
            (1, bio.IssueKind.LABEL_SWITCH),
        ]

    def test_switch_does_not_change_chunk_label(self):
        # chunk stays governed by "a", so the second I-b is also a switch
        assert bio.tag_issues(["B-a", "I-b", "I-b"]) == [
            (1, bio.IssueKind.LABEL_SWITCH),
            (2, bio.IssueKind.LABEL_SWITCH),
        ]

    def test_malformed_tag_propagates(self):
        with pytest.raises(StructuralError, match="position 1"):
            bio.tag_issues(["O", "bogus"])

    @given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b", "I-c", "I-"]), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_scan_of_chunk_labels(self, tags):
        """tag_issues reads violations off repair; the scan classifies them itself."""
        try:
            expected = scan_tag_issues(tags)
        except StructuralError as err:
            with pytest.raises(StructuralError, match=f"^{re.escape(str(err))}$"):
                bio.tag_issues(tags)
        else:
            assert bio.tag_issues(tags) == expected


class TestRepair:
    @pytest.mark.parametrize("tags,expected", REPAIR_CASES)
    def test_behaviour_table(self, tags, expected):
        assert bio.repair(tags) == expected

    @pytest.mark.parametrize("tags,expected", REPAIR_CASES)
    def test_table_outputs_are_valid_fixed_points(self, tags, expected):
        assert not bio.tag_issues(expected)
        assert bio.repair(expected) == expected

    def test_fuzz_valid_idempotent_lengths(self):
        rng = random.Random(7)
        for _ in range(2000):
            tags = random_messy_tags(rng, rng.randint(0, 12))
            fixed = bio.repair(tags)
            assert len(fixed) == len(tags)
            assert not bio.tag_issues(fixed)
            assert bio.repair(fixed) == fixed

    def test_fuzz_valid_input_unchanged(self):
        rng = random.Random(8)
        for _ in range(2000):
            tags = random_valid_tags(rng, rng.randint(0, 12))
            assert bio.repair(tags) == tags

    @given(
        st.lists(
            st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b", "B-c", "I-c"]),
            max_size=20,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_property_repair_is_valid_idempotent_o_preserving(self, tags):
        fixed = bio.repair(tags)
        assert not bio.tag_issues(fixed)
        assert bio.repair(fixed) == fixed
        # repair never creates or destroys labelled positions
        assert [t == "O" for t in fixed] == [t == "O" for t in tags]


class TestSpanConversion:
    def test_round_trip_on_valid(self):
        rng = random.Random(9)
        for _ in range(1000):
            tags = random_valid_tags(rng, rng.randint(0, 12))
            spans = bio.spans_from_tags(tags)
            assert bio.tags_from_spans(spans, len(tags)) == tags

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(10)
        for _ in range(1000):
            tags = random_valid_tags(rng, rng.randint(0, 12))
            spans = {(s.start, s.end, s.label) for s in bio.spans_from_tags(tags)}
            assert spans == brute_spans(tags)

    def test_sorted_by_start(self):
        spans = bio.spans_from_tags(["B-a", "O", "B-b", "I-b", "B-a"])
        assert [s.start for s in spans] == [0, 2, 4]

    def test_invalid_rejected_with_position(self):
        with pytest.raises(StructuralError, match="OrphanI at position 1"):
            bio.spans_from_tags(["O", "I-a"])
        with pytest.raises(StructuralError, match="LabelSwitch at position 1"):
            bio.spans_from_tags(["B-a", "I-b"])

    def test_malformed_tag_wins_over_earlier_transition_error(self):
        with pytest.raises(StructuralError, match="^malformed tag 'bad tag' at position 1$"):
            bio.spans_from_tags(["I-a", "bad tag"])

    def test_first_violation_reported(self):
        with pytest.raises(StructuralError, match="LabelSwitch at position 2$"):
            bio.spans_from_tags(["B-a", "I-a", "I-b", "O", "I-c"])

    @given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b"]), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_agrees_with_tag_issues(self, tags):
        issues = bio.tag_issues(tags)
        if not issues:
            spans = {(s.start, s.end, s.label) for s in bio.spans_from_tags(tags)}
            assert spans == brute_spans(tags)
            return
        pos, kind = issues[0]
        with pytest.raises(StructuralError) as err:
            bio.spans_from_tags(tags)
        assert str(err.value) == f"invalid BIO sequence: {kind.value} at position {pos}"

    @given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b", "I-c", "I-"]), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_when_tag_issues_is_nonempty(self, tags):
        """spans_from_tags stops on its own walk; tag_issues comes from repair's."""
        try:
            issues = bio.tag_issues(tags)
        except StructuralError as err:  # a malformed tag, reported alike by both
            message = str(err)
        else:
            if not issues:
                bio.spans_from_tags(tags)
                return
            pos, kind = issues[0]
            message = f"invalid BIO sequence: {kind.value} at position {pos}"
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            bio.spans_from_tags(tags)

    def test_tags_from_spans_rejects_overlap(self):
        with pytest.raises(StructuralError, match="overlap"):
            bio.tags_from_spans([bio.SlotSpan(0, 3, "a"), bio.SlotSpan(2, 4, "b")], 5)

    def test_tags_from_spans_rejects_out_of_range(self):
        with pytest.raises(StructuralError, match="exceeds"):
            bio.tags_from_spans([bio.SlotSpan(1, 4, "a")], 3)

    def test_adjacent_spans_keep_boundary(self):
        tags = bio.tags_from_spans(
            [bio.SlotSpan(0, 2, "a"), bio.SlotSpan(2, 3, "a")], 3
        )
        assert tags == ["B-a", "I-a", "B-a"]
