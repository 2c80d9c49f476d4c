"""Span F1 regimes, intent accuracy, agreement and correlation statistics."""

import math
import random

import pytest
import scipy.stats

from slukit import metrics
from slukit.errors import AlignmentError, StructuralError

from support import make_dataset, oracle_strict_micro, random_valid_tags


def _pair(gold_seqs, pred_seqs, gold_intents=None, pred_intents=None):
    gold = make_dataset(gold_seqs, intents=gold_intents, name="gold")
    pred = make_dataset(pred_seqs, intents=pred_intents, name="pred")
    return gold, pred


class TestStrict:
    def test_half_right_example(self):
        # gold spans (0,1,loc) and (3,5,datetime); pred gets the first and
        # truncates the second, so tp=1 fp=1 fn=1 and P=R=F1=0.5
        gold, pred = _pair(
            [["B-loc", "O", "O", "B-datetime", "I-datetime"]],
            [["B-loc", "O", "O", "B-datetime", "O"]],
        )
        report = metrics.strict_f1(gold, pred)
        micro = report.micro["strict"]
        assert (micro.precision, micro.recall, micro.f1) == (0.5, 0.5, 0.5)
        assert report.per_label["loc"] == metrics.LabelScores(1, 0, 0, 1.0, 1.0, 1.0)
        assert report.per_label["datetime"].tp == 0
        assert report.per_label["datetime"].fp == 1
        assert report.per_label["datetime"].fn == 1

    def test_perfect(self):
        seqs = [["B-a", "I-a", "O"], ["O", "B-b", "O"]]
        gold, pred = _pair(seqs, seqs)
        micro = metrics.strict_f1(gold, pred).micro["strict"]
        assert micro == metrics.MicroScores(1.0, 1.0, 1.0)

    def test_no_spans_anywhere(self):
        gold, pred = _pair([["O", "O"]], [["O", "O"]])
        micro = metrics.strict_f1(gold, pred).micro["strict"]
        assert micro == metrics.MicroScores(0.0, 0.0, 0.0)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(21)
        for _ in range(200):
            k = rng.randint(1, 5)
            gold_seqs, pred_seqs = [], []
            for _ in range(k):
                n = rng.randint(1, 10)
                gold_seqs.append(random_valid_tags(rng, n))
                pred_seqs.append(random_valid_tags(rng, n))
            gold, pred = _pair(gold_seqs, pred_seqs)
            micro = metrics.strict_f1(gold, pred).micro["strict"]
            assert (micro.precision, micro.recall, micro.f1) == oracle_strict_micro(
                gold_seqs, pred_seqs
            )

    def test_pred_repaired_before_scoring(self):
        # invalid pred [O, I-a] repairs to [O, B-a], matching the gold span
        gold, pred = _pair([["O", "B-a"]], [["O", "I-a"]])
        micro = metrics.strict_f1(gold, pred).micro["strict"]
        assert micro.f1 == 1.0

    def test_invalid_gold_rejected_with_id(self):
        gold, pred = _pair([["O", "I-a"]], [["O", "B-a"]])
        with pytest.raises(StructuralError, match="gold utterance 'u0'"):
            metrics.strict_f1(gold, pred)

    def test_size_mismatch(self):
        gold, pred = _pair([["O"], ["O"]], [["O"]])
        with pytest.raises(AlignmentError, match="2 utterances"):
            metrics.strict_f1(gold, pred)

    def test_token_count_mismatch(self):
        gold, pred = _pair([["O", "O"]], [["O"]])
        with pytest.raises(AlignmentError, match="id 'u0'"):
            metrics.strict_f1(gold, pred)


class TestUnlabeledAndLoose:
    def test_boundary_match_ignores_label(self):
        gold, pred = _pair([["B-a", "I-a", "O"]], [["B-b", "I-b", "O"]])
        assert metrics.strict_f1(gold, pred).micro["strict"].f1 == 0.0
        assert metrics.unlabeled_f1(gold, pred).f1 == 1.0
        # label differs, so loose overlap does not fire
        assert metrics.loose_f1(gold, pred).f1 == 0.0

    def test_loose_rewards_truncated_span(self):
        gold, pred = _pair(
            [["B-loc", "O", "O", "B-datetime", "I-datetime"]],
            [["B-loc", "O", "O", "B-datetime", "O"]],
        )
        assert metrics.unlabeled_f1(gold, pred).f1 == 0.5
        assert metrics.loose_f1(gold, pred) == metrics.MicroScores(1.0, 1.0, 1.0)

    def test_loose_counts_each_side_once(self):
        # one gold span covered by two predicted fragments: every pred
        # matches and the gold matches, so P = R = 1 under loose matching
        gold, pred = _pair(
            [["B-a", "I-a", "I-a", "I-a"]], [["B-a", "O", "B-a", "O"]]
        )
        loose = metrics.loose_f1(gold, pred)
        assert loose == metrics.MicroScores(1.0, 1.0, 1.0)
        strict = metrics.strict_f1(gold, pred).micro["strict"]
        assert strict.precision == 0.0 and strict.recall == 0.0

    def test_regime_ordering_fuzz(self):
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(1, 10)
            gold, pred = _pair(
                [random_valid_tags(rng, n)], [random_valid_tags(rng, n)]
            )
            report = metrics.strict_f1(gold, pred)
            strict = report.micro["strict"]
            unlabeled = report.micro["unlabeled"]
            loose = report.micro["loose"]
            assert strict.precision <= unlabeled.precision
            assert strict.recall <= unlabeled.recall
            assert strict.f1 <= unlabeled.f1 + 1e-12
            assert strict.precision <= loose.precision
            assert strict.recall <= loose.recall
            assert strict.f1 <= loose.f1 + 1e-12


class TestIntentAccuracy:
    def test_fraction(self):
        gold, pred = _pair(
            [["O"], ["O"], ["O"], ["O"]],
            [["O"], ["O"], ["O"], ["O"]],
            gold_intents=["a", "b", "a", "c"],
            pred_intents=["a", "b", "c", "a"],
        )
        assert metrics.intent_accuracy(gold, pred) == 0.5

    def test_empty_rejected(self):
        from slukit.corpus import Dataset

        with pytest.raises(StructuralError, match="empty"):
            metrics.intent_accuracy(Dataset("g", ()), Dataset("p", ()))


class TestAgreementTable:
    def test_row_sum_enforced(self):
        with pytest.raises(StructuralError, match="row sums to 2"):
            metrics.AgreementTable(((2, 0), (1, 1)), n_annotators=3)

    def test_ragged_rejected(self):
        with pytest.raises(StructuralError, match="ragged"):
            metrics.AgreementTable(((2, 1), (3,)), n_annotators=3)

    def test_negative_rejected(self):
        with pytest.raises(StructuralError, match="negative"):
            metrics.AgreementTable(((4, -1),), n_annotators=3)

    def test_needs_two_annotators(self):
        with pytest.raises(StructuralError, match="at least 2"):
            metrics.AgreementTable(((1,),), n_annotators=1)

    def test_shape_properties(self):
        table = metrics.AgreementTable(((2, 1), (0, 3)), n_annotators=3)
        assert table.n_items == 2
        assert table.n_categories == 2


class TestFleissKappa:
    def test_perfect_agreement_is_one(self):
        table = metrics.AgreementTable(((3, 0), (0, 3), (3, 0)), n_annotators=3)
        assert metrics.fleiss_kappa(table) == 1.0

    def test_single_category_degenerate_is_one(self):
        # all votes in one category: expected agreement hits 1, handled
        # as perfect agreement instead of 0/0
        table = metrics.AgreementTable(((3,), (3,)), n_annotators=3)
        assert metrics.fleiss_kappa(table) == 1.0

    def test_four_item_hand_value(self):
        table = metrics.AgreementTable(
            ((3, 0), (2, 1), (1, 2), (0, 3)), n_annotators=3
        )
        assert abs(metrics.fleiss_kappa(table) - 1 / 3) < 1e-12

    def test_worse_than_chance_is_negative(self):
        table = metrics.AgreementTable(((2, 2), (2, 2)), n_annotators=4)
        assert metrics.fleiss_kappa(table) < 0

    def test_random_votes_near_zero(self):
        rng = random.Random(23)
        rows = []
        for _ in range(3000):
            votes = [rng.randrange(4) for _ in range(3)]
            rows.append(tuple(votes.count(c) for c in range(4)))
        table = metrics.AgreementTable(tuple(rows), n_annotators=3)
        assert abs(metrics.fleiss_kappa(table)) < 0.03


class TestPearson:
    def test_hand_value(self):
        assert abs(metrics.pearson((1, 2, 3), (1, 2, 4)) - 0.9820) < 1e-4

    def test_matches_scipy(self):
        rng = random.Random(24)
        for _ in range(50):
            n = rng.randint(2, 30)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) + 0.5 * v for v in x]
            expected = scipy.stats.pearsonr(x, y).statistic
            assert math.isclose(metrics.pearson(x, y), expected, abs_tol=1e-12)

    def test_exact_limits(self):
        assert metrics.pearson((1, 2, 3), (2, 4, 6)) == 1.0
        assert metrics.pearson((1, 2, 3), (3, 2, 1)) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(StructuralError, match="mismatch"):
            metrics.pearson((1, 2), (1, 2, 3))

    def test_too_short(self):
        with pytest.raises(StructuralError, match="at least 2"):
            metrics.pearson((1,), (2,))

    def test_zero_variance(self):
        with pytest.raises(StructuralError, match="zero-variance"):
            metrics.pearson((1, 1, 1), (1, 2, 3))

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(StructuralError, match="finite"):
                metrics.pearson((1.0, 2.0, bad), (1.0, 2.0, 3.0))
            with pytest.raises(StructuralError, match="finite"):
                metrics.pearson((1.0, 2.0, 3.0), (bad, 2.0, 3.0))


class TestReportRendering:
    def _report(self):
        gold, pred = _pair(
            [["B-loc", "O", "O", "B-datetime", "I-datetime"]],
            [["B-loc", "O", "O", "B-datetime", "O"]],
        )
        return metrics.strict_f1(gold, pred)

    def test_format_lines(self):
        text = metrics.format_report(self._report())
        lines = text.splitlines()
        assert lines[0] == "n_utterances\t1"
        assert lines[1] == "intent_accuracy\t1.0000"
        assert "strict_f1\t0.5000" in lines
        assert "loose_f1\t1.0000" in lines
        assert text.endswith("\n")

    def test_json_mirror(self):
        report = self._report()
        payload = metrics.report_to_json(report)
        assert payload["micro"]["strict"]["f1"] == report.micro["strict"].f1
        assert payload["per_label"]["loc"]["tp"] == 1
        assert payload["n_utterances"] == 1
