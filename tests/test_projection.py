"""Label transfer through alignment score matrices."""

import json
import math
import random

import numpy as np
import pytest

from slukit import bio, corpus, projection
from slukit.errors import ParseError, StructuralError

from support import make_dataset, random_valid_tags


def _record(scores, rec_id="r0"):
    scores = tuple(tuple(row) for row in scores)
    n_src = len(scores)
    n_tgt = len(scores[0]) if scores else 0
    return projection.AlignmentRecord(
        id=rec_id,
        src_tokens=tuple(f"s{i}" for i in range(n_src)),
        tgt_tokens=tuple(f"t{j}" for j in range(n_tgt)),
        scores=scores,
    )


def _identity(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _random_scores(rng, n_src, n_tgt):
    return [[rng.uniform(-5, 5) for _ in range(n_tgt)] for _ in range(n_src)]


class TestAlignmentRecord:
    def test_row_count_mismatch(self):
        with pytest.raises(StructuralError, match="record 'bad'.*2 score rows"):
            projection.AlignmentRecord("bad", ("a",), ("x",), ((1.0,), (2.0,)))

    def test_row_width_mismatch(self):
        with pytest.raises(StructuralError, match="row 1"):
            projection.AlignmentRecord(
                "bad", ("a", "b"), ("x", "y"), ((1.0, 2.0), (3.0,))
            )

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(StructuralError, match="non-finite"):
                _record([[0.0, bad]])

    def test_scores_coerced_to_float(self):
        rec = _record([[1, 2]])
        assert rec.scores.dtype == np.float64
        assert rec.scores.tolist() == [[1.0, 2.0]]

    def test_scores_read_only(self):
        rec = _record([[1.0, 2.0]])
        with pytest.raises(ValueError):
            rec.scores[0, 0] = 5.0

    def test_empty_sides_keep_matrix_shape(self):
        assert projection.AlignmentRecord("r", (), ("x", "y"), ()).scores.shape == (0, 2)
        assert projection.AlignmentRecord("r", ("a",), (), ((),)).scores.shape == (1, 0)

    def test_tokens_must_be_strings(self):
        for src in ("ab", ("a", None), ("a", 3), None):
            with pytest.raises(StructuralError, match="record 'bad': src_tokens must be"):
                projection.AlignmentRecord("bad", src, ("x",), ((1.0,), (2.0,)))

    def test_lone_surrogate_rejected(self):
        # a JSON escape such as "\ud800" decodes to a string no output can encode
        for rec_id, src, tgt in (("r\ud800", ("a",), ("x",)), ("r", ("\udfff",), ("x",)),
                                 ("r", ("a",), ("x\ud800",))):
            with pytest.raises(StructuralError, match="lone surrogate in id or tokens"):
                projection.AlignmentRecord(rec_id, src, tgt, ((1.0,),))
        pair = "\ud83d\ude00"  # a surrogate pair in JSON is one valid character
        rec = projection.parse_alignments(json.dumps(
            {"id": "r", "src_tokens": ["a"], "tgt_tokens": [pair], "scores": [[1.0]]}))[0]
        assert rec.tgt_tokens == ("\U0001f600",)


class TestProjectLabels:
    def test_identity_preserves_tags(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 8)
            tags = random_valid_tags(rng, n)
            assert projection.project_labels(tags, _record(_identity(n))) == tags

    def test_single_token_argmax(self):
        rec = _record([[0.1, 0.2, 0.7]])
        assert projection.project_labels(["B-loc"], rec) == ["O", "O", "B-loc"]

    def test_crossing_alignment_repaired(self):
        # B lands right of I, so the raw target reads [I-t, B-t] and the
        # orphan I is promoted
        rec = _record([[0.1, 0.9], [0.8, 0.2]])
        assert projection.project_labels(["B-t", "I-t"], rec) == ["B-t", "B-t"]

    def test_tie_breaks_to_lowest_index(self):
        rec = _record([[0.5, 0.5, 0.5]])
        assert projection.project_labels(["B-a"], rec) == ["B-a", "O", "O"]

    def test_contested_target_keeps_leftmost_source(self):
        rec = _record([[0.9, 0.1], [0.8, 0.2]])
        assert projection.project_labels(["B-a", "B-b"], rec) == ["B-a", "O"]

    def test_outside_tokens_vote_nothing(self):
        # the O source token's huge score must neither place a tag nor
        # block the labelled token from claiming the same target
        rec = _record([[99.0, 0.0], [1.0, 0.0]])
        assert projection.project_labels(["O", "B-a"], rec) == ["B-a", "O"]

    def test_unclaimed_targets_stay_outside(self):
        rec = _record([[0.0, 1.0, 0.0]])
        assert projection.project_labels(["B-a"], rec) == ["O", "B-a", "O"]

    def test_empty_target_side(self):
        rec = projection.AlignmentRecord("r0", ("s0",), (), ((),))
        assert projection.project_labels(["B-a"], rec) == []

    def test_scale_invariance(self):
        rng = random.Random(32)
        for _ in range(50):
            n_src, n_tgt = rng.randint(1, 6), rng.randint(1, 6)
            tags = random_valid_tags(rng, n_src)
            scores = _random_scores(rng, n_src, n_tgt)
            base = projection.project_labels(tags, _record(scores))
            for c in (3.7, 0.001):
                scaled = _record([[v * c for v in row] for row in scores])
                assert projection.project_labels(tags, scaled) == base

    def test_output_valid_on_fuzzed_records(self):
        rng = random.Random(33)
        for _ in range(500):
            n_src, n_tgt = rng.randint(1, 7), rng.randint(1, 7)
            tags = random_valid_tags(rng, n_src)
            rec = _record(_random_scores(rng, n_src, n_tgt))
            out = projection.project_labels(tags, rec)
            assert len(out) == n_tgt
            assert not bio.tag_issues(out)

    def test_matches_loop_reference(self):
        # scores drawn from a few values, so most rows hold tied maxima
        rng = random.Random(36)
        for _ in range(500):
            n_src, n_tgt = rng.randint(1, 7), rng.randint(1, 7)
            tags = random_valid_tags(rng, n_src)
            scores = [[rng.choice((0.0, 0.5, 1.0)) for _ in range(n_tgt)] for _ in range(n_src)]
            raw = ["O"] * n_tgt
            for tag, row in zip(tags, scores):
                best = 0
                for j in range(1, n_tgt):
                    if row[j] > row[best]:
                        best = j
                if tag != "O" and raw[best] == "O":
                    raw[best] = tag
            assert projection.project_labels(tags, _record(scores)) == bio.repair(raw)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError, match="2 tags"):
            projection.project_labels(["O", "O"], _record([[1.0]]))

    def test_invalid_source_rejected(self):
        with pytest.raises(StructuralError, match="OrphanI at position 0"):
            projection.project_labels(["I-a"], _record([[1.0]]))


class TestParseAlignments:
    def test_well_formed_line(self):
        line = json.dumps(
            {"id": "r1", "src_tokens": ["a"], "tgt_tokens": ["x", "y"],
             "scores": [[0.5, 0.5]]}
        )
        records = projection.parse_alignments(line + "\n")
        assert len(records) == 1
        assert records[0].id == "r1"
        assert records[0].scores.tolist() == [[0.5, 0.5]]

    def test_empty_stream(self):
        assert projection.parse_alignments("") == []
        assert projection.parse_alignments("\n  \n") == []

    def test_bad_json_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            projection.parse_alignments('{"id": "a", "src_tokens": [], "tgt_tokens": [], "scores": []}\n{nope\n')

    @pytest.mark.parametrize("char", ["\u2028", "\u0085"])
    def test_only_a_line_feed_ends_a_record(self, char):
        record = {"id": f"r{char}1", "src_tokens": [f"a{char}b"], "tgt_tokens": ["x"],
                  "scores": [[0.5]]}
        line = json.dumps(record, ensure_ascii=False)
        assert char in line  # raw, not escaped
        (rec,) = projection.parse_alignments(line + "\n")
        assert (rec.id, rec.src_tokens) == (f"r{char}1", (f"a{char}b",))

    def test_bad_record_after_blank_lines_names_its_line(self):
        good = json.dumps({"id": "a\u2028", "src_tokens": [], "tgt_tokens": [], "scores": []},
                          ensure_ascii=False)
        with pytest.raises(ParseError) as err:
            projection.parse_alignments(good + "\n\n  \n" + good + "\n{nope")
        assert str(err.value).startswith("line 5: bad JSON: ")

    def test_missing_field_names_line(self):
        with pytest.raises(ParseError, match="line 1.*missing field"):
            projection.parse_alignments('{"id": "a"}\n')

    def test_dimension_error_names_record(self):
        line = json.dumps(
            {"id": "r9", "src_tokens": ["a"], "tgt_tokens": ["x", "y"],
             "scores": [[0.5]]}
        )
        with pytest.raises(StructuralError, match="r9"):
            projection.parse_alignments(line)

    @pytest.mark.parametrize("field,value", [
        ("src_tokens", ["a", None]),
        ("tgt_tokens", [None]),
        ("src_tokens", "a"),
        ("tgt_tokens", "x"),
        ("tgt_tokens", {"x": 1}),
    ])
    def test_tokens_must_be_lists_of_strings(self, field, value):
        record = {"id": "r7", "src_tokens": ["a"], "tgt_tokens": ["x"], "scores": [[0.5]]}
        record[field] = value
        with pytest.raises(StructuralError, match=f"record 'r7': {field} must be a list"):
            projection.parse_alignments(json.dumps(record))

    @pytest.mark.parametrize("scores", [[["x"]], [[[0.5]]], [[1e999]], [[10 ** 400]], [5]])
    def test_bad_score_values(self, scores):
        line = json.dumps({"id": "r8", "src_tokens": ["a"], "tgt_tokens": ["x"], "scores": scores})
        with pytest.raises((ParseError, StructuralError), match="line 1|r8"):
            projection.parse_alignments(line)


class TestProjectDataset:
    def _setup(self, rng, count=20):
        src_seqs, records = [], []
        for k in range(count):
            n_src, n_tgt = rng.randint(1, 6), rng.randint(1, 6)
            src_seqs.append(random_valid_tags(rng, n_src))
            records.append(
                projection.AlignmentRecord(
                    id=f"u{k}",
                    src_tokens=tuple(f"s{i}" for i in range(n_src)),
                    tgt_tokens=tuple(f"t{j}" for j in range(n_tgt)),
                    scores=tuple(
                        tuple(rng.uniform(-1, 1) for _ in range(n_tgt))
                        for _ in range(n_src)
                    ),
                )
            )
        src = make_dataset(src_seqs, intents=[f"i{k % 3}" for k in range(count)])
        return src, records

    def test_projected_shape_and_intent_copy(self):
        rng = random.Random(34)
        src, records = self._setup(rng)
        out = projection.project_dataset(src, records)
        assert len(out) == len(src)
        for utt, rec, src_utt in zip(out, records, src):
            assert utt.tokens == rec.tgt_tokens
            assert utt.text == " ".join(rec.tgt_tokens)
            assert utt.intent == src_utt.intent
            assert not bio.tag_issues(utt.slot_tags)
        assert corpus.validate(out) == []

    def test_missing_record(self):
        src = make_dataset([["O"]])
        with pytest.raises(StructuralError, match="no alignment record.*'u0'"):
            projection.project_dataset(src, [])

    def test_projected_tokens_are_checked(self):
        # alignment records may hold any string token; the projected
        # Dataset rejects one that would break the file format
        src = make_dataset([["O"], ["B-loc", "O"]])
        recs = [projection.AlignmentRecord("u0", ("s0",), ("t0",), ((0.5,),)),
                projection.AlignmentRecord("u1", ("s0", "s1"), ("t0", "t\t1"),
                                           ((1.0, 0.0), (0.0, 1.0)))]
        with pytest.raises(StructuralError) as err:
            projection.project_dataset(src, recs)
        assert str(err.value) == "utterance 'u1': token 't\\t1' contains tab or newline"

    def test_duplicate_record_id(self):
        src = make_dataset([["O"]])
        rec = projection.AlignmentRecord("u0", ("s0",), ("t0",), ((0.5,),))
        with pytest.raises(StructuralError, match="duplicate"):
            projection.project_dataset(src, [rec, rec])
