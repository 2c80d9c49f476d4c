"""Acceptance suite: one test per headline guarantee of the package.

Each test pins the guarantee at its stated tolerance; the conftest hook
prints one PASS/FAIL line per test so the verdicts are readable straight
off the terminal. Large-scale numbers match the desk-scale design of the
package: fuzzing and oracles instead of GPU-sized benchmarks.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from slukit import bio, corpus, metrics, projection, sampler, significance, tagger

from support import (
    REPAIR_CASES,
    finite_difference_worst,
    grid_epsilon,
    make_dataset,
    oracle_strict_micro,
    overfit_corpus,
    package_env,
    plain_sentences,
    random_valid_tags,
)


def test_bio_repair_rules_and_idempotence():
    """Both repair rules on a 50-case table; idempotence on 1e5 sequences in < 1 s."""
    assert len(REPAIR_CASES) == 50
    for tags, expected in REPAIR_CASES:
        assert bio.repair(tags) == expected, tags

    rng = random.Random(42)
    alphabet = ["O", "B-a", "I-a", "B-b", "I-b", "B-c", "I-c"]
    sequences = [
        [rng.choice(alphabet) for _ in range(rng.randint(1, 10))]
        for _ in range(100_000)
    ]
    start = time.perf_counter()
    for seq in sequences:
        fixed = bio.repair(seq)
        assert bio.repair(fixed) == fixed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"repair+idempotence took {elapsed:.2f}s"


def test_strict_f1_matches_bruteforce_oracle():
    """Strict micro scores equal an independent quadratic oracle on 1,000
    random instances (up to 10 tokens, 4 labels); strict never beats the
    unlabeled or loose regime on any of them."""
    rng = random.Random(1000)
    gold_seqs = []
    pred_seqs = []
    for _ in range(1000):
        n = rng.randint(1, 10)
        gold_seqs.append(random_valid_tags(rng, n))
        pred_seqs.append(random_valid_tags(rng, n))

    gold = make_dataset(gold_seqs, name="gold")
    pred = make_dataset(pred_seqs, name="pred")
    report = metrics.strict_f1(gold, pred)
    micro = report.micro["strict"]
    assert (micro.precision, micro.recall, micro.f1) == oracle_strict_micro(
        gold_seqs, pred_seqs
    )

    # per-instance regime ordering
    for g, p in zip(gold_seqs, pred_seqs):
        single = metrics.strict_f1(
            make_dataset([g], name="g"), make_dataset([p], name="p")
        ).micro
        assert single["strict"].precision <= single["unlabeled"].precision
        assert single["strict"].recall <= single["unlabeled"].recall
        assert single["strict"].f1 <= single["unlabeled"].f1 + 1e-12
        assert single["strict"].precision <= single["loose"].precision
        assert single["strict"].recall <= single["loose"].recall
        assert single["strict"].f1 <= single["loose"].f1 + 1e-12


def test_projection_worked_examples_and_fuzz():
    """The three hand-derived transfer examples, identity preservation,
    argmax scale-invariance, and valid output on 1e4 fuzzed records."""
    # single labelled token lands on its argmax column
    rec = projection.AlignmentRecord(
        "one", ("s0",), ("t0", "t1", "t2"), ((0.1, 0.2, 0.7),)
    )
    assert projection.project_labels(["B-loc"], rec) == ["O", "O", "B-loc"]

    # crossing alignment: raw [I-t, B-t], orphan promoted to B
    rec = projection.AlignmentRecord(
        "two", ("s0", "s1"), ("t0", "t1"), ((0.1, 0.9), (0.8, 0.2))
    )
    assert projection.project_labels(["B-t", "I-t"], rec) == ["B-t", "B-t"]

    # identity alignment preserves any valid sequence
    rng = random.Random(2000)
    for _ in range(200):
        n = rng.randint(1, 8)
        tags = random_valid_tags(rng, n)
        eye = tuple(
            tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n)
        )
        rec = projection.AlignmentRecord(
            "eye", tuple(f"s{i}" for i in range(n)),
            tuple(f"t{j}" for j in range(n)), eye,
        )
        assert projection.project_labels(tags, rec) == tags

    for k in range(10_000):
        n_src = rng.randint(1, 7)
        n_tgt = rng.randint(1, 7)
        tags = random_valid_tags(rng, n_src)
        scores = tuple(
            tuple(rng.uniform(-5.0, 5.0) for _ in range(n_tgt))
            for _ in range(n_src)
        )
        rec = projection.AlignmentRecord(
            f"r{k}", tuple(f"s{i}" for i in range(n_src)),
            tuple(f"t{j}" for j in range(n_tgt)), scores,
        )
        out = projection.project_labels(tags, rec)
        assert len(out) == n_tgt
        assert bio.is_valid(out)
        # argmax is scale-invariant, so projection must be too
        if k % 100 == 0:
            for c in (7.3, 0.002):
                scaled = projection.AlignmentRecord(
                    rec.id, rec.src_tokens, rec.tgt_tokens,
                    tuple(tuple(v * c for v in row) for row in rec.scores),
                )
                assert projection.project_labels(tags, scaled) == out


def test_fleiss_kappa_exact_and_simulated():
    """Perfect agreement gives exactly 1.0; the 4-item hand table gives 1/3
    within 1e-12; uniformly random votes over 1e4 items give |kappa| < 0.02."""
    perfect = metrics.AgreementTable(((3, 0), (0, 3), (3, 0)), n_annotators=3)
    assert metrics.fleiss_kappa(perfect) == 1.0

    hand = metrics.AgreementTable(((3, 0), (2, 1), (1, 2), (0, 3)), n_annotators=3)
    assert abs(metrics.fleiss_kappa(hand) - 1 / 3) < 1e-12

    rng = random.Random(3000)
    rows = []
    for _ in range(10_000):
        votes = [rng.randrange(4) for _ in range(3)]
        rows.append(tuple(votes.count(c) for c in range(4)))
    simulated = metrics.AgreementTable(tuple(rows), n_annotators=3)
    assert abs(metrics.fleiss_kappa(simulated)) < 0.02


def test_sampler_weights_exact_and_empirical():
    """Sizes [900, 100] at alpha 0.5 give exactly [0.75, 0.25]; counts over
    1e5 scheduled draws sit within 3 sigma of the binomial expectation."""
    assert sampler.sampling_weights([900, 100], 0.5) == [0.75, 0.25]

    tasks = [sampler.TaskSpec("big", 900), sampler.TaskSpec("small", 100)]
    draws = 100_000
    schedule = sampler.schedule_epoch(tasks, draws, 0.5, seed=4000)
    sigma = math.sqrt(0.75 * 0.25 / draws)
    assert abs(schedule.counts["big"] / draws - 0.75) < 3 * sigma
    assert schedule.counts["big"] + schedule.counts["small"] == draws


def test_tagger_gradients_losses_overfit_and_auxiliary():
    """Gradient check below 1e-4 at d=h=4; uniform-softmax loss equals ln K
    within 1e-10; the 20-sentence corpus is memorised within 50 epochs in
    under 60 s; the auxiliary masked-token loss falls monotonically after
    5-epoch smoothing."""
    vocab = tagger.Vocab(
        tokens=tagger.RESERVED_TOKENS + ("alpha", "beta", "gamma", "delta"),
        slot_tags=("O", "B-a", "I-a", "B-b", "I-b"),
        intents=("x", "y"),
    )
    config = tagger.TrainConfig(embed_dim=4, hidden_dim=4, seed=7)
    params = tagger.init_params(config, vocab)
    batch = [
        tagger.Example(token_ids=(4, 5, 6), intent_id=0, slot_ids=(0, 1, 2)),
        tagger.Example(token_ids=(5, 6, 7, 4), intent_id=1, slot_ids=(3, 4, 0, 1)),
        tagger.Example(token_ids=(6, 4), mlm_targets=((0, 5), (1, 7))),
    ]
    weights = tagger.TrainConfig(w_intent=1.0, w_slot=0.7, w_mlm=0.3)
    worst = finite_difference_worst(params, batch, weights)
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"

    zeroed = tagger.init_params(config, vocab)
    for arr in zeroed.values():
        arr[:] = 0.0
    unit = tagger.TrainConfig(w_mlm=1.0)
    loss, _ = tagger.joint_loss(
        zeroed, [tagger.Example(token_ids=(4,), intent_id=0)], unit
    )
    assert abs(loss - math.log(len(vocab.intents))) < 1e-10
    loss, _ = tagger.joint_loss(
        zeroed, [tagger.Example(token_ids=(4, 5), slot_ids=(0, 1))], unit
    )
    assert abs(loss - math.log(len(vocab.slot_tags))) < 1e-10
    loss, _ = tagger.joint_loss(
        zeroed, [tagger.Example(token_ids=(4, 5), mlm_targets=((1, 6),))], unit
    )
    assert abs(loss - math.log(len(vocab.tokens))) < 1e-10

    data = overfit_corpus()
    overfit_config = tagger.TrainConfig(
        embed_dim=32, hidden_dim=32, learning_rate=0.5,
        epochs=50, batch_size=4, seed=1,
    )
    start = time.perf_counter()
    model, _ = tagger.train(data, overfit_config)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"overfit run took {elapsed:.1f}s"
    predicted = tagger.predict_dataset(model, data)
    assert metrics.intent_accuracy(data, predicted) == 1.0
    assert metrics.strict_f1(data, predicted).micro["strict"].f1 >= 0.95

    aux_config = tagger.TrainConfig(
        embed_dim=32, hidden_dim=32, learning_rate=1.0,
        epochs=30, batch_size=32, seed=0,
        w_mlm=0.01, mask_rate=0.3, alpha=0.5, batches_per_epoch=24,
    )
    _, log = tagger.train(data, aux_config, mlm_sentences=plain_sentences(300))
    mlm_curve = [entry.mlm for entry in log]
    assert all(value is not None for value in mlm_curve)
    window = 5
    smoothed = [
        sum(mlm_curve[k: k + window]) / window
        for k in range(len(mlm_curve) - window + 1)
    ]
    for earlier, later in zip(smoothed, smoothed[1:]):
        assert later < earlier, "smoothed auxiliary loss failed to decrease"


def test_aso_examples_identities_oracle_and_speed():
    """The three violation-ratio examples; complement identity within 1e-12
    on 100 random pairs; exact integration within 1e-6 of a 1e6-point grid;
    separation dominates while identity does not; 1,000 bootstrap
    iterations at n=m=5 finish in under 1 s; the multiple-comparison level
    for 12 languages is 0.05/12 within 1e-12."""
    def sample(values):
        return significance.ScoreSample("s", "f1", tuple(values))

    assert significance.epsilon_w2(sample([2, 3]), sample([0, 1])) == 0.0
    assert significance.epsilon_w2(sample([0, 1]), sample([2, 3])) == 1.0
    assert significance.epsilon_w2(sample([0, 3]), sample([1, 2])) == 0.5

    rng = random.Random(5000)
    for _ in range(100):
        n, m = rng.randint(2, 12), rng.randint(2, 12)
        a = [rng.gauss(0.0, 1.0) for _ in range(n)]
        b = [rng.gauss(0.2, 1.0) for _ in range(m)]
        eps_ab = significance.epsilon_w2(sample(a), sample(b))
        eps_ba = significance.epsilon_w2(sample(b), sample(a))
        assert abs(eps_ab + eps_ba - 1.0) < 1e-12

    # grid sizes divide 1e6, so the midpoint sum is exact up to float error
    grid_rng = np.random.default_rng(5001)
    for n, m in ((10, 8), (20, 25), (5, 4)):
        a = grid_rng.normal(0.0, 1.0, n).tolist()
        b = grid_rng.normal(0.3, 1.2, m).tolist()
        exact = significance.epsilon_w2(sample(a), sample(b))
        assert abs(exact - grid_epsilon(a, b, points=1_000_000)) < 1e-6

    base = [rng.gauss(0.0, 1.0) for _ in range(20)]
    separated = significance.aso(
        sample([v + 10 for v in base]), sample(base), seed=1
    )
    assert separated.epsilon_hat == 0.0
    assert separated.epsilon_min <= 0.0
    assert separated.dominant
    identical = significance.aso(sample(base[:5]), sample(base[:5]), seed=2)
    assert identical.epsilon_hat == 0.5
    assert not identical.dominant

    five = [0.52, 0.55, 0.49, 0.61, 0.58]
    other = [0.50, 0.56, 0.47, 0.52, 0.54]
    start = time.perf_counter()
    significance.aso(sample(five), sample(other), n_boot=1000, seed=3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"bootstrap took {elapsed:.2f}s"

    rng12 = random.Random(5002)
    scores = {}
    for k in range(12):
        lang = f"lang{k:02d}"
        vals = [rng12.gauss(0.5, 0.05) for _ in range(3)]
        scores[("base", lang)] = significance.ScoreSample("base", "f1", tuple(vals))
        scores[("sys", lang)] = significance.ScoreSample(
            "sys", "f1", tuple(v + 0.1 for v in vals)
        )
    table = significance.compare_table(scores, "base", alpha=0.05, n_boot=50, seed=4)
    assert len(table.languages) == 12
    assert abs(table.alpha_adjusted - 0.05 / 12) < 1e-12


def test_end_to_end_pipeline_byte_reproducible(tmp_path):
    """homogenize -> merge -> train -> predict -> evaluate, driven twice
    through the command line in sibling directories, produces byte-identical
    artifacts (datasets, model, report, manifests) and identical logs."""
    scheme_a = (
        "# id: a0\n# text: wake me at eight\n# intent: alarm/set\n"
        "1\twake\tO\n2\tme\tO\n3\tat\tB-timeRange\n4\teight\tI-timeRange\n"
        "\n"
        "# id: a1\n# text: lights on in kitchen\n# intent: lights/on\n"
        "1\tlights\tO\n2\ton\tO\n3\tin\tO\n4\tkitchen\tB-room\n"
        "\n"
        "# id: a2\n# text: wake me at nine\n# intent: alarm/set\n"
        "1\twake\tO\n2\tme\tO\n3\tat\tB-timeRange\n4\tnine\tI-timeRange\n"
    )
    scheme_b = (
        "# id: b0\n# text: alarm for ten\n# intent: alarm/set\n"
        "1\talarm\tO\n2\tfor\tB-datetime\n3\tten\tI-datetime\n"
        "\n"
        "# id: b1\n# text: lights on in hall\n# intent: lights/on\n"
        "1\tlights\tO\n2\ton\tO\n3\tin\tO\n4\thall\tB-room\n"
        "\n"
        "# id: b2\n# text: alarm for six\n# intent: alarm/set\n"
        "1\talarm\tO\n2\tfor\tB-datetime\n3\tsix\tI-datetime\n"
    )
    label_map = "[slots]\ntimeRange\tdatetime\n"

    commands = [
        ["homogenize", "--in", "scheme_a.txt", "--map", "map.txt",
         "--out", "a_shared.txt", "--trim", "at,for"],
        ["homogenize", "--in", "scheme_b.txt", "--map", "map.txt",
         "--out", "b_shared.txt", "--trim", "at,for"],
        ["merge", "a_shared.txt", "b_shared.txt", "--out", "merged.txt",
         "--seed", "11"],
        ["train", "--train", "merged.txt", "--out", "model.json", "--seed", "11",
         "--embed-dim", "8", "--hidden-dim", "8", "--epochs", "4",
         "--batch-size", "2", "--learning-rate", "0.5"],
        ["predict", "--model", "model.json", "--in", "merged.txt",
         "--out", "pred.txt"],
        ["evaluate", "--gold", "merged.txt", "--pred", "pred.txt",
         "--out", "report.txt", "--json", "report.json"],
    ]
    artifacts = [
        "a_shared.txt", "b_shared.txt", "merged.txt", "model.json",
        "pred.txt", "report.txt", "report.json",
        "a_shared.txt.manifest.json", "b_shared.txt.manifest.json",
        "merged.txt.manifest.json", "model.json.manifest.json",
        "pred.txt.manifest.json", "report.txt.manifest.json",
    ]

    logs = []
    for run_name in ("run1", "run2"):
        run_dir = tmp_path / run_name
        run_dir.mkdir()
        (run_dir / "scheme_a.txt").write_text(scheme_a, encoding="utf-8")
        (run_dir / "scheme_b.txt").write_text(scheme_b, encoding="utf-8")
        (run_dir / "map.txt").write_text(label_map, encoding="utf-8")
        log = []
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "slukit", *command],
                cwd=run_dir, capture_output=True, text=True, env=package_env(),
            )
            assert proc.returncode == 0, (command, proc.stderr)
            log.append(proc.stdout)
        logs.append("".join(log))

    assert logs[0] == logs[1]
    for name in artifacts:
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, f"{name} differs between runs"

    # the pipeline also has to produce a sound report, not just a stable one
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    assert report["n_utterances"] == 6
    merged = corpus.parse_dataset((tmp_path / "run1" / "merged.txt").read_text())
    assert merged.label_inventory <= {"datetime", "room"}
    assert corpus.validate(merged) == []
