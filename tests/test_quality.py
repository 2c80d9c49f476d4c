"""Held-out quality: checks that fail when the tagger stops generalising.

The gradient tests prove the gradients exact and the overfit test proves
that 20 sentences can be memorised; these check that training on one
seeded corpus tags another. Equal seeds give equal bytes, so each score
below is exact on one platform; the margins absorb float differences
between BLAS builds.
"""

import math

import pytest

from slukit import corpus, metrics, tagger

from support import load_perfbench, overfit_corpus


@pytest.fixture
def gen(monkeypatch):
    return load_perfbench("gen", monkeypatch)


def test_heldout_slot_f1_and_intent_accuracy(gen, tmp_path):
    """1,000 train utterances, 200 raw sentences, 8 epochs, 400 held out.

    With the default TrainConfig otherwise, this scores strict slot F1
    0.5725 and intent accuracy 1.0. The floor of 0.50 sits 0.07 below:
    at 7 epochs the score is 0.489 and at 6 it is 0.449, so losing about
    one epoch's worth of learning fails the test.
    """
    gen.train(5, tmp_path, epochs=1)
    train = corpus.parse_dataset((tmp_path / "train.conll").read_text(encoding="utf-8"))
    held = corpus.parse_dataset((tmp_path / "heldout.conll").read_text(encoding="utf-8"))
    raw = (tmp_path / "mlm.txt").read_text(encoding="utf-8").split("\n")
    sentences = [line.split(" ") for line in raw if line][:200]
    held = corpus.Dataset(held.utterances[:400])

    model, _ = tagger.train(
        corpus.Dataset(train.utterances[:1000]), tagger.TrainConfig(epochs=8, seed=5), sentences
    )
    predicted = tagger.predict_dataset(model, held)
    assert metrics.strict_f1(held, predicted).micro["strict"].f1 >= 0.50
    assert metrics.intent_accuracy(held, predicted) == 1.0


def test_masked_token_loss_falls_well_below_chance():
    """Eight fixed 6-word sentences with 48 distinct words, each seen 50 times.

    Uniform guessing scores ln V (4.17 here, V = 65); a head that learns
    only word frequencies cannot go below ln 48 (3.87). Measured after 5
    epochs: 2.30 on seed 0, and 1.98 to 2.34 on seeds 0-4. w_mlm is 1 so
    that the masked-token gradient is not scaled down.
    """
    words = [f"w{k}" for k in range(48)]
    sentences = [tuple(words[6 * s : 6 * s + 6]) for s in range(8)] * 50
    config = tagger.TrainConfig(
        embed_dim=16, hidden_dim=16, epochs=5, batch_size=4, w_mlm=1.0, mask_rate=0.5
    )
    model, log = tagger.train(overfit_corpus(), config, sentences)
    chance = math.log(len(model.vocab.tokens))
    assert log[0].mlm > 0.95 * chance
    assert log[-1].mlm < 0.6 * chance
