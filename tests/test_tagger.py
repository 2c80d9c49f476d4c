"""Joint tagger: vocab, encoder, losses, gradients, training, checkpoints."""

import base64
import json
import math
import random

import numpy as np
import pytest

from slukit import metrics, tagger
from slukit.corpus import Dataset, Utterance
from slukit.errors import DivergenceError, StructuralError

from support import finite_difference_worst, make_dataset, overfit_corpus, plain_sentences


def small_vocab():
    return tagger.Vocab(
        tokens=tagger.RESERVED_TOKENS + ("alpha", "beta", "gamma", "delta"),
        slot_tags=("O", "B-a", "I-a", "B-b", "I-b"),
        intents=("x", "y"),
    )


def small_config(**kw):
    defaults = dict(embed_dim=4, hidden_dim=4, epochs=1, seed=0)
    defaults.update(kw)
    return tagger.TrainConfig(**defaults)


def mixed_batch():
    return [
        tagger.Example(token_ids=(4, 5, 6), intent_id=0, slot_ids=(0, 1, 2)),
        tagger.Example(token_ids=(5, 6, 7, 4), intent_id=1, slot_ids=(3, 4, 0, 1)),
        tagger.Example(token_ids=(6, 4), mlm_targets=((0, 5), (1, 7))),
    ]


class TestVocab:
    def test_reserved_prefix_required(self):
        with pytest.raises(StructuralError, match="reserved"):
            tagger.Vocab(("a", "b", "c", "d"), ("O",), ("x",))

    def test_duplicates_rejected(self):
        with pytest.raises(StructuralError, match="duplicate"):
            tagger.Vocab(
                tagger.RESERVED_TOKENS + ("a", "a"), ("O",), ("x",)
            )

    def test_non_string_entries_rejected(self):
        # a checkpoint's vocab may hold any JSON value
        for tokens, tags, intents, name in (
            (tagger.RESERVED_TOKENS + (7,), ("O",), ("x",), "tokens"),
            (tagger.RESERVED_TOKENS, ("O", None), ("x",), "slot_tags"),
            (tagger.RESERVED_TOKENS, ("O",), (None,), "intents"),
        ):
            with pytest.raises(StructuralError, match=f"entries in {name} must be strings"):
                tagger.Vocab(tokens, tags, intents)

    def test_unknown_token_falls_back(self):
        vocab = small_vocab()
        assert vocab.token_id("alpha") == 4
        assert vocab.token_id("never-seen") == tagger.UNK_ID

    def test_tag_and_intent_lookups_strict(self):
        vocab = small_vocab()
        assert vocab.tag_id("B-a") == 1
        assert vocab.intent_id("y") == 1
        with pytest.raises(StructuralError, match="tag"):
            vocab.tag_id("B-zzz")
        with pytest.raises(StructuralError, match="intent"):
            vocab.intent_id("zzz")

    def test_reserved_ids_fixed(self):
        assert tagger.RESERVED_TOKENS == ("<pad>", "<unk>", "<mask>", "<cls>")
        assert (tagger.PAD_ID, tagger.UNK_ID, tagger.MASK_ID, tagger.CLS_ID) == (0, 1, 2, 3)


class TestBuildVocab:
    def test_sorted_inventories(self):
        ds = make_dataset(
            [["B-b", "O"], ["B-a", "I-a"]], intents=["zeta", "alpha"]
        )
        vocab = tagger.build_vocab([ds])
        assert vocab.tokens[:4] == tagger.RESERVED_TOKENS
        assert list(vocab.tokens[4:]) == sorted(vocab.tokens[4:])
        assert vocab.slot_tags == ("O", "B-a", "B-b", "I-a", "I-b")
        assert vocab.intents == ("alpha", "zeta")

    def test_both_prefixes_for_every_label(self):
        ds = make_dataset([["B-solo"]])
        vocab = tagger.build_vocab([ds])
        assert "I-solo" in vocab.slot_tags

    def test_min_count_filters(self):
        ds = make_dataset([["O", "O"], ["O"]])
        # tok0 appears twice (both sentences), tok1 once
        vocab = tagger.build_vocab([ds], min_count=2)
        assert "tok0" in vocab.tokens
        assert "tok1" not in vocab.tokens

    def test_extra_sentences_count(self):
        ds = make_dataset([["O"]])
        vocab = tagger.build_vocab(
            [ds], min_count=2, extra_sentences=[("tok0", "loose")]
        )
        assert "tok0" in vocab.tokens  # once in data + once extra
        assert "loose" not in vocab.tokens


class TestConfigAndParams:
    def test_config_validation(self):
        for kw in (
            {"embed_dim": 0},
            {"learning_rate": -1.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"w_mlm": -0.1},
            {"mask_rate": 1.5},
            {"alpha": -1.0},
            {"min_count": 0},
            {"batches_per_epoch": 0},
            {"max_mlm_sentences": -1},
        ):
            with pytest.raises(StructuralError):
                small_config(**kw)

    @pytest.mark.parametrize(
        "field", ["learning_rate", "w_intent", "w_slot", "w_mlm", "mask_rate", "alpha"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(StructuralError, match=f"{field} must be finite"):
            small_config(**{field: value})

    def test_init_shapes_and_ranges(self):
        config, vocab = small_config(), small_vocab()
        params = tagger.init_params(config, vocab)
        tagger.validate_params(params, config, vocab)
        assert params["emb"].shape == (8, 4)
        assert params["w_intent"].shape == (8, 2)
        assert params["w_slot"].shape == (8, 5)
        assert params["w_mlm"].shape == (8, 8)
        for name, arr in params.items():
            assert arr.dtype == np.float64
            if name.startswith("b_"):
                assert np.all(arr == 0.0)
            else:
                assert np.all(np.abs(arr) <= 0.1)

    def test_validate_catches_drift(self):
        config, vocab = small_config(), small_vocab()
        params = tagger.init_params(config, vocab)
        broken = dict(params)
        del broken["b_slot"]
        with pytest.raises(StructuralError, match="missing"):
            tagger.validate_params(broken, config, vocab)
        params["w_slot"] = params["w_slot"][:, :-1]
        with pytest.raises(StructuralError, match="w_slot"):
            tagger.validate_params(params, config, vocab)


class TestEncoder:
    def test_state_shapes(self):
        params = tagger.init_params(small_config(), small_vocab())
        states, sent = tagger.encode(params, [4, 5, 6])
        assert states.shape == (3, 8)
        assert sent.shape == (8,)
        assert np.array_equal(sent[:4], states[2, :4])
        assert np.array_equal(sent[4:], states[0, 4:])

    def test_empty_sequence(self):
        params = tagger.init_params(small_config(), small_vocab())
        with pytest.raises(StructuralError, match="empty"):
            tagger.encode(params, [])

    def test_out_of_range_id(self):
        params = tagger.init_params(small_config(), small_vocab())
        with pytest.raises(StructuralError, match="out of range"):
            tagger.encode(params, [99])

    def test_reversal_swaps_direction_roles(self):
        # with forward and backward parameters exchanged, encoding the
        # reversed sentence must swap the two halves of the sentence vector
        params = tagger.init_params(small_config(seed=3), small_vocab())
        mirrored = dict(params)
        for a, b in (("w_fwd_in", "w_bwd_in"), ("w_fwd_state", "w_bwd_state"), ("b_fwd", "b_bwd")):
            mirrored[a], mirrored[b] = params[b], params[a]
        ids = [4, 5, 6, 7, 4]
        _, sent = tagger.encode(params, ids)
        _, sent_rev = tagger.encode(mirrored, ids[::-1])
        h = 4
        assert np.array_equal(sent_rev[:h], sent[h:])
        assert np.array_equal(sent_rev[h:], sent[:h])

    def test_zero_weights_give_constant_states(self):
        config, vocab = small_config(), small_vocab()
        params = tagger.init_params(config, vocab)
        for name in ("emb", "w_fwd_in", "w_fwd_state", "w_bwd_in", "w_bwd_state"):
            params[name][:] = 0.0
        params["b_fwd"][:] = 0.3
        params["b_bwd"][:] = -0.2
        states, _ = tagger.encode(params, [4, 5, 6])
        assert np.allclose(states[:, :4], math.tanh(0.3))
        assert np.allclose(states[:, 4:], math.tanh(-0.2))


class TestExample:
    def test_mlm_target_bounds(self):
        with pytest.raises(StructuralError, match="out of range"):
            tagger.Example(token_ids=(4,), mlm_targets=((1, 5),))

    def test_duplicate_positions(self):
        with pytest.raises(StructuralError, match="duplicate"):
            tagger.Example(token_ids=(4, 5), mlm_targets=((0, 5), (0, 6)))

    def test_slot_length(self):
        with pytest.raises(StructuralError, match="slot_ids"):
            tagger.Example(token_ids=(4, 5), slot_ids=(0,))


class TestJointLoss:
    def test_empty_batch(self):
        params = tagger.init_params(small_config(), small_vocab())
        with pytest.raises(StructuralError, match="empty batch"):
            tagger.joint_loss(params, [], tagger.TrainConfig(w_mlm=1.0))

    def test_unlabelled_batch(self):
        params = tagger.init_params(small_config(), small_vocab())
        batch = [tagger.Example(token_ids=(4, 5))]
        with pytest.raises(StructuralError, match="no task labels"):
            tagger.joint_loss(params, batch, tagger.TrainConfig(w_mlm=1.0))

    def test_uniform_softmax_loss_is_log_k(self):
        config, vocab = small_config(), small_vocab()
        params = tagger.init_params(config, vocab)
        for arr in params.values():
            arr[:] = 0.0
        weights = tagger.TrainConfig(w_mlm=1.0)
        intent_only = [tagger.Example(token_ids=(4, 5), intent_id=1)]
        loss, _ = tagger.joint_loss(params, intent_only, weights)
        assert abs(loss - math.log(2)) < 1e-12
        slot_only = [tagger.Example(token_ids=(4, 5), slot_ids=(0, 3))]
        loss, _ = tagger.joint_loss(params, slot_only, weights)
        assert abs(loss - math.log(5)) < 1e-12
        mlm_only = [tagger.Example(token_ids=(4, 5), mlm_targets=((0, 6),))]
        loss, _ = tagger.joint_loss(params, mlm_only, weights)
        assert abs(loss - math.log(8)) < 1e-12

    def test_task_weights_scale_linearly(self):
        params = tagger.init_params(small_config(seed=5), small_vocab())
        batch = [tagger.Example(token_ids=(4, 5, 6), intent_id=0)]
        base, base_grads = tagger.joint_loss(
            params, batch, tagger.TrainConfig(w_intent=1.0, w_mlm=1.0)
        )
        double, double_grads = tagger.joint_loss(
            params, batch, tagger.TrainConfig(w_intent=2.0, w_mlm=1.0)
        )
        assert math.isclose(double, 2 * base, rel_tol=1e-12)
        assert np.allclose(double_grads["w_intent"], 2 * base_grads["w_intent"])

    def test_mean_over_units_not_sequences(self):
        # slot loss averages over tokens pooled across the batch: two
        # copies of one sequence give the same mean as one copy
        params = tagger.init_params(small_config(seed=6), small_vocab())
        weights = tagger.TrainConfig(w_mlm=1.0)
        one = [tagger.Example(token_ids=(4, 5, 6), slot_ids=(0, 1, 2))]
        loss_one, _ = tagger.joint_loss(params, one, weights)
        loss_two, _ = tagger.joint_loss(params, one * 2, weights)
        assert math.isclose(loss_two, loss_one, rel_tol=1e-12)

    def test_gradients_match_finite_differences(self):
        config, vocab = small_config(seed=7), small_vocab()
        params = tagger.init_params(config, vocab)
        weights = tagger.TrainConfig(w_intent=1.0, w_slot=0.7, w_mlm=0.3)
        assert finite_difference_worst(params, mixed_batch(), weights) < 1e-4


def ragged_batch():
    """Lengths 1 to 6 mixing the three tasks, with masked targets on last tokens."""
    return [
        tagger.Example(token_ids=(5,), intent_id=1, slot_ids=(3,)),
        tagger.Example(token_ids=(4, 7, 6, 5, 4, 6), slot_ids=(1, 2, 0, 3, 4, 0)),
        tagger.Example(token_ids=(6, 2, 4), mlm_targets=((1, 7), (2, 4))),
        tagger.Example(token_ids=(7, 4, 5, 6), intent_id=0),
        tagger.Example(token_ids=(2, 5), intent_id=1, slot_ids=(0, 1), mlm_targets=((0, 6),)),
        tagger.Example(token_ids=(4, 5, 6, 7, 2), intent_id=0, mlm_targets=((4, 5),)),
    ]


class TestBatchedEngine:
    """One padded [B, T] forward and backward serve every batch and prediction."""

    def test_ragged_gradients_match_finite_differences(self):
        params = tagger.init_params(small_config(seed=8), small_vocab())
        weights = tagger.TrainConfig(w_intent=0.9, w_slot=1.1, w_mlm=0.4)
        assert finite_difference_worst(params, ragged_batch(), weights) < 1e-4

    def test_batch_order_does_not_matter(self):
        # padding must not leak between rows: permuting the examples of a
        # batch changes nothing beyond summation-order rounding
        params = tagger.init_params(small_config(seed=9), small_vocab())
        weights = tagger.TrainConfig(w_intent=1.0, w_slot=0.7, w_mlm=0.3)
        batch = ragged_batch()
        loss, grads = tagger.joint_loss(params, batch, weights)
        for seed in range(5):
            shuffled = list(batch)
            random.Random(seed).shuffle(shuffled)
            other_loss, other_grads = tagger.joint_loss(params, shuffled, weights)
            assert abs(other_loss - loss) < 1e-12
            for name in grads:
                assert np.max(np.abs(other_grads[name] - grads[name])) < 1e-12

    def test_encode_matches_row_padded_by_longer_neighbours(self):
        # BLAS may round a one-row product differently from a batched one,
        # so equality is up to float64 rounding rather than bitwise
        params = tagger.init_params(small_config(seed=10), small_vocab())
        ids = [6, 4, 7]
        states, sent = tagger.encode(params, ids)
        batch_states, batch_sent, _ = tagger._forward(
            params, [[4, 5, 6, 7, 4, 5], ids, [7, 7, 6, 5, 4]]
        )
        assert np.allclose(batch_states[1, : len(ids)], states, rtol=0, atol=1e-12)
        assert np.allclose(batch_sent[1], sent, rtol=0, atol=1e-12)

    def test_predict_dataset_matches_per_utterance_predict(self, overfit_model, monkeypatch):
        monkeypatch.setattr(tagger, "PREDICT_CHUNK", 4)
        rng = random.Random(12)
        words = list(overfit_model.vocab.tokens[4:]) + ["unseen"]
        utts = []
        for k in range(11):  # three chunks, lengths 1 to 7 in no order
            tokens = tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
            utts.append(Utterance(f"m{k}", " ".join(tokens), tokens, ("O",) * len(tokens), "x"))
        predicted = tagger.predict_dataset(overfit_model, Dataset("mixed", tuple(utts)))
        assert [u.id for u in predicted] == [u.id for u in utts]
        for utt, pred in zip(utts, predicted):
            intent, tags = tagger.predict(overfit_model, utt.tokens)
            assert (pred.intent, list(pred.slot_tags)) == (intent, tags)


class TestMaskTokens:
    def test_rate_zero_and_one(self):
        ids = list(range(4, 20))
        corrupted, targets = tagger.mask_tokens(ids, 0.0, seed=1, vocab_size=30)
        assert corrupted == ids and targets == ()
        corrupted, targets = tagger.mask_tokens(ids, 1.0, seed=1, vocab_size=30)
        assert len(targets) == len(ids)
        assert [pos for pos, _ in targets] == list(range(len(ids)))
        assert all(orig == ids[pos] for pos, orig in targets)

    def test_deterministic_per_seed(self):
        ids = list(range(4, 30))
        one = tagger.mask_tokens(ids, 0.3, seed=9, vocab_size=40)
        two = tagger.mask_tokens(ids, 0.3, seed=9, vocab_size=40)
        other = tagger.mask_tokens(ids, 0.3, seed=10, vocab_size=40)
        assert one == two
        assert one != other

    def test_replacements_never_reserved(self):
        rng = random.Random(43)
        for trial in range(50):
            ids = [rng.randrange(4, 50) for _ in range(30)]
            corrupted, targets = tagger.mask_tokens(ids, 0.5, seed=trial, vocab_size=50)
            assert len(corrupted) == len(ids)
            for pos, tok in enumerate(corrupted):
                if pos not in {p for p, _ in targets}:
                    assert tok == ids[pos]
                else:
                    assert tok == tagger.MASK_ID or tok >= 4

    def test_branch_mix_frequencies(self):
        # over many positions at rate 0.15: selection about 0.15, and the
        # selected positions split about 0.8 mask / 0.1 random / 0.1 keep
        ids = [10] * 100_000
        corrupted, targets = tagger.mask_tokens(ids, 0.15, seed=44, vocab_size=1000)
        picked = len(targets)
        assert abs(picked / len(ids) - 0.15) < 0.01
        masked = sum(1 for p, _ in targets if corrupted[p] == tagger.MASK_ID)
        kept = sum(1 for p, _ in targets if corrupted[p] == 10)
        swapped = picked - masked - kept
        assert abs(masked / picked - 0.8) < 0.02
        assert abs(swapped / picked - 0.1) < 0.02
        assert abs(kept / picked - 0.1) < 0.02

    def test_tiny_vocab_keeps_instead_of_swapping(self):
        # with no non-reserved tokens to draw, the random branch keeps
        corrupted, targets = tagger.mask_tokens([2, 2, 2], 1.0, seed=3, vocab_size=4)
        assert all(tok in (tagger.MASK_ID, 2) for tok in corrupted)
        assert len(targets) == 3

    def test_rate_bounds(self):
        with pytest.raises(StructuralError, match="mask rate"):
            tagger.mask_tokens([4], 1.5, seed=0, vocab_size=8)

    def test_vocab_floor(self):
        with pytest.raises(StructuralError, match="vocab_size"):
            tagger.mask_tokens([0], 0.5, seed=0, vocab_size=3)


class TestTraining:
    def test_empty_data(self):
        from slukit.corpus import Dataset

        with pytest.raises(StructuralError, match="empty"):
            tagger.train(Dataset("e", ()), small_config())

    def test_bit_reproducible(self):
        data = overfit_corpus()
        config = small_config(epochs=3, batch_size=4, learning_rate=0.2)
        model_a, log_a = tagger.train(data, config)
        model_b, log_b = tagger.train(data, config)
        assert log_a == log_b
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_b.params[name])

    def test_seed_changes_model(self):
        data = overfit_corpus()
        model_a, _ = tagger.train(data, small_config(epochs=1))
        model_b, _ = tagger.train(data, small_config(epochs=1, seed=1))
        assert any(
            not np.array_equal(model_a.params[n], model_b.params[n])
            for n in model_a.params
        )

    def test_epoch_log_shape(self):
        data = overfit_corpus()
        _, log = tagger.train(data, small_config(epochs=4, batch_size=8))
        assert [e.epoch for e in log] == [0, 1, 2, 3]
        for entry in log:
            assert math.isfinite(entry.total)
            assert entry.intent is not None and entry.slot is not None
            assert entry.mlm is None  # no auxiliary sentences supplied

    def test_loss_decreases_on_slu_task(self):
        data = overfit_corpus()
        _, log = tagger.train(
            data, small_config(embed_dim=16, hidden_dim=16, epochs=12, batch_size=4,
                               learning_rate=0.5)
        )
        assert log[-1].total < log[0].total

    def test_auxiliary_task_logged(self):
        data = overfit_corpus()
        config = small_config(epochs=2, batch_size=8, mask_rate=0.3)
        _, log = tagger.train(data, config, mlm_sentences=plain_sentences(40))
        assert any(entry.mlm is not None for entry in log)

    def test_max_mlm_sentences_cap(self):
        data = overfit_corpus()
        config = small_config(epochs=1, max_mlm_sentences=0)
        _, log = tagger.train(data, config, mlm_sentences=plain_sentences(10))
        assert all(entry.mlm is None for entry in log)

    def test_divergence_detected(self):
        data = overfit_corpus()
        config = small_config(learning_rate=1e308, epochs=3, batch_size=4)
        with pytest.raises(DivergenceError, match="non-finite loss"), np.errstate(all="ignore"):
            tagger.train(data, config)

    def test_divergence_carries_location(self):
        err = DivergenceError(epoch=2, batch=7)
        assert err.epoch == 2 and err.batch == 7
        assert "epoch 2, batch 7" in str(err)


@pytest.fixture(scope="module")
def overfit_model():
    config = tagger.TrainConfig(
        embed_dim=32, hidden_dim=32, learning_rate=0.5,
        epochs=50, batch_size=4, seed=1,
    )
    trained, _ = tagger.train(overfit_corpus(), config)
    return trained


class TestPredict:
    def test_overfits_training_data(self, overfit_model):
        data = overfit_corpus()
        predicted = tagger.predict_dataset(overfit_model, data)
        assert predicted.name == "overfit-predicted"
        assert metrics.intent_accuracy(data, predicted) == 1.0
        assert metrics.strict_f1(data, predicted).micro["strict"].f1 >= 0.95

    def test_prediction_is_valid_bio(self, overfit_model):
        from slukit import bio

        intent, tags = tagger.predict(
            overfit_model, ["play", "song", "unseen-token", "now"]
        )
        assert intent in overfit_model.vocab.intents
        assert len(tags) == 4
        assert bio.is_valid(tags)

    def test_empty_tokens(self, overfit_model):
        with pytest.raises(StructuralError, match="empty"):
            tagger.predict(overfit_model, [])


def resized(data: str, delta: int) -> str:
    """A base64 tensor payload with `delta` bytes cut off (< 0) or zero bytes appended."""
    raw = base64.b64decode(data)
    return base64.b64encode(raw[:delta] if delta < 0 else raw + bytes(delta)).decode()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config = small_config(epochs=2, batch_size=8)
        model, _ = tagger.train(overfit_corpus(), config)
        path = tmp_path / "model.json"
        # Values a decimal round trip could mishandle must survive bit for bit.
        model.params["b_fwd"][:3] = [-0.0, 5e-324, np.nextafter(0.0, -1.0) * 7]
        tagger.save_model(model, path)
        loaded = tagger.load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        for name in model.params:
            arr = loaded.params[name]
            assert arr.dtype == np.float64 and arr.shape == model.params[name].shape
            assert arr.tobytes() == model.params[name].tobytes()
            assert arr.flags.writeable and arr.flags.owndata

    def test_save_is_deterministic(self, tmp_path):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        tagger.save_model(model, a)
        tagger.save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_checked(self, tmp_path):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        path = tmp_path / "model.json"
        tagger.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match="version"):
            tagger.load_model(path)

    def test_shape_tampering_detected(self, tmp_path):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        path = tmp_path / "model.json"
        tagger.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["params"]["b_fwd"]["data"] = resized(payload["params"]["b_fwd"]["data"], 8)
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match="b_fwd"):
            tagger.load_model(path)

    def test_truncated_checkpoint(self, tmp_path):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        path = tmp_path / "model.json"
        tagger.save_model(model, path)
        path.write_bytes(path.read_bytes()[:500])
        with pytest.raises(StructuralError, match="model.json: not a JSON checkpoint"):
            tagger.load_model(path)

    @pytest.mark.parametrize("field", ["shape", "data"])
    def test_tensor_field_missing(self, tmp_path, field):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        path = tmp_path / "model.json"
        tagger.save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["params"]["w_slot"][field]
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match=f"parameter w_slot: missing field '{field}'"):
            tagger.load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": tagger.CHECKPOINT_VERSION, "config": {}}))
        with pytest.raises(StructuralError, match="missing field"):
            tagger.load_model(path)

    def test_errors_name_the_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(StructuralError) as caught:
            tagger.load_model(path)
        assert str(caught.value) == (
            f"{path}: unsupported checkpoint version 1 "
            f"(this slukit reads {tagger.CHECKPOINT_VERSION}; retrain)"
        )
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        tagger.save_model(model, path)
        payload = json.loads(path.read_text())
        payload["params"]["b_fwd"]["shape"] = [1]
        payload["params"]["b_fwd"]["data"] = base64.b64encode(bytes(8)).decode()
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match=r"model\.json: parameter b_fwd: shape \(1,\)"):
            tagger.load_model(path)

    def test_non_finite_tensor_rejected(self, tmp_path):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        model.params["b_slot"][0] = np.nan
        path = tmp_path / "model.json"
        tagger.save_model(model, path)
        with pytest.raises(StructuralError, match="model.json: parameter b_slot contains non-fin"):
            tagger.load_model(path)

    @pytest.mark.parametrize("corrupt,message", [
        pytest.param(lambda e: e.update(data=e["data"][:8] + "*" + e["data"][8:]),
                     "data is not base64", id="non_alphabet"),
        pytest.param(lambda e: e.update(data=e["data"][:-1]),
                     "data is not base64", id="bad_padding"),
        pytest.param(lambda e: e.update(data=resized(e["data"], -1)),
                     "575 data bytes, expected 576", id="byte_short"),
        pytest.param(lambda e: e.update(data=resized(e["data"], 8)),
                     "584 data bytes, expected 576", id="8_bytes_long"),
        pytest.param(lambda e: e.update(dtype=">f8"), "dtype must be '<f8'", id="big_endian"),
        pytest.param(lambda e: e.pop("dtype"), "missing field 'dtype'", id="dtype_missing"),
        pytest.param(lambda e: e.update(data=[0.0] * 72),
                     "data must be a base64 string", id="data_list"),
        pytest.param(lambda e: e.update(data=0.5), "data must be a base64 string", id="data_number"),
        pytest.param(lambda e: e.update(shape=[-8, -9]), "non-negative", id="negative_dim"),
        # numpy's own wording for this one varies by version
        pytest.param(lambda e: e.update(shape=[0, 2**70], data=""), "", id="dims_numpy_cannot_hold"),
    ])
    def test_bad_tensor_field(self, tmp_path, corrupt, message):
        model, _ = tagger.train(overfit_corpus(), small_config(epochs=1))
        path = tmp_path / "model.json"
        tagger.save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["params"]["w_slot"]["shape"] == [8, 9]  # 576 bytes, no padding
        corrupt(payload["params"]["w_slot"])
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match=rf"model\.json: parameter w_slot: .*{message}"):
            tagger.load_model(path)
