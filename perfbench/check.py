"""Correctness checks on a workload's outputs, against the planted truth.

The checks read the output files with their own small parser and compare
them with what the generator planted, so they do not depend on the code
they check; only the BIO validity check goes through ``corpus.validate``
as the program defines it. Each failure names the step whose output is
wrong. ``corrupt`` damages one output on purpose so a run can show that
the checks catch it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from slukit import corpus


def read_corpus(path: Path) -> list[tuple[str, list[str], list[str], str]]:
    """(id, tokens, tags, intent) per block of the utterance file format."""
    out = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        lines = block.strip("\n").split("\n")
        uid, intent = lines[0][len("# id: "):], lines[2][len("# intent: "):]
        cols = [line.split("\t") for line in lines[3:]]
        out.append((uid, [c[1] for c in cols], [c[2] for c in cols], intent))
    return out


def repair(tags) -> list[str]:
    """BIO repair as documented: orphan I becomes B, a switched label follows its chunk."""
    out, chunk = [], None
    for tag in tags:
        if tag == "O":
            chunk = None
            out.append(tag)
        elif tag[0] == "B":
            chunk = tag[2:]
            out.append(tag)
        elif chunk is None:
            chunk = tag[2:]
            out.append("B-" + chunk)
        else:
            out.append("I-" + chunk)
    return out


def spans(tags) -> set[tuple[int, int, str]]:
    """Spans of a valid BIO sequence."""
    out, start, label = set(), None, None
    for k, tag in enumerate(list(tags) + ["O"]):
        if tag[0] != "I" and start is not None:
            out.add((start, k, label))
            start = None
        if tag[0] == "B":
            start, label = k, tag[2:]
    return out


def strict_scores(gold_tags, pred_tags) -> tuple[float, int]:
    """Micro strict span F1 over paired sequences, and the gold spans found."""
    tp = fp = fn = 0
    for g, p in zip(gold_tags, pred_tags):
        gs, ps = spans(g), spans(p)
        tp += len(gs & ps)
        fp += len(ps - gs)
        fn += len(gs - ps)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return f1, tp


def _bio_issues(path: Path) -> int:
    return len(corpus.validate(corpus.parse_dataset(path.read_text(encoding="utf-8"))))


def _same_records(step: str, got, want, what: str) -> list[tuple[str, str]]:
    if len(got) != len(want):
        return [(step, f"{what}: {len(got)} utterances, expected {len(want)}")]
    for g, w in zip(got, want):
        if g != w:
            return [(step, f"{what}: utterance {w[0]} differs from the expected output")]
    return []


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_transfer(out: Path, truth: dict) -> tuple[list, dict]:
    fails = []
    for name, key in (("a.conll", "a"), ("b.conll", "b"), ("test.conll", "test")):
        fails += _same_records("homogenize", read_corpus(out / name), truth[key], name)
    merged = read_corpus(out / "merged.conll")
    pooled = sorted(truth["a"] + truth["b"])
    if sorted(merged) != pooled:
        fails.append(("merge", "merged.conll is not a permutation of the two inputs"))
    expected, gold = [], []
    for (uid, _, clean, intent), tgt in zip(truth["test"], truth["target"]):
        raw = ["O"] * len(tgt["tgt_tokens"])
        for tag, col in zip(clean, tgt["picks"]):
            if tag != "O" and raw[col] == "O":
                raw[col] = tag
        expected.append((uid, tgt["tgt_tokens"], repair(raw), intent))
        gold.append(tgt["gold"])
    projected = read_corpus(out / "projected.conll")
    fails += _same_records("project", projected, expected, "projected.conll")
    if _bio_issues(out / "projected.conll"):
        fails.append(("project", "projected.conll has BIO issues under corpus.validate"))
    report = _report(out / "report.json")
    f1, found = strict_scores(gold, [p[2] for p in projected])
    if report["n_utterances"] != len(truth["test"]):
        fails.append(("evaluate", f"report n_utterances {report['n_utterances']}"))
    if abs(report["micro"]["strict"]["f1"] - f1) > 1e-12:
        fails.append(("evaluate", f"strict F1 {report['micro']['strict']['f1']} != {f1}"))
    if report["intent_accuracy"] != 1.0:
        fails.append(("evaluate", "intents were not carried over by projection"))
    source_spans = sum(t["n_src_spans"] for t in truth["target"])
    figures = {
        "slot_f1": report["micro"]["strict"]["f1"],
        "intent_acc": report["intent_accuracy"],
        "spans_lost_ratio": (source_spans - found) / source_spans,
    }
    return fails, figures


def check_train(out: Path, truth: dict) -> tuple[list, dict]:
    from slukit import tagger  # the checkpoint must load the way predict loads it

    fails = []
    try:
        tagger.load_model(out / "model.json")
    except Exception as err:  # any failure to load is a wrong checkpoint
        fails.append(("train", f"model.json does not load: {err}"))
    held = truth["heldout"]
    pred = read_corpus(out / "pred.conll")
    if [(p[0], p[1]) for p in pred] != [(h[0], h[1]) for h in held]:
        fails.append(("predict", "pred.conll ids or tokens differ from the held-out input"))
    if _bio_issues(out / "pred.conll"):
        fails.append(("predict", "pred.conll has BIO issues under corpus.validate"))
    report = _report(out / "report.json")
    f1, _ = strict_scores([h[2] for h in held], [p[2] for p in pred])
    accuracy = sum(p[3] == h[3] for p, h in zip(pred, held)) / len(held)
    if report["n_utterances"] != len(held):
        fails.append(("evaluate", f"report n_utterances {report['n_utterances']}"))
    if abs(report["micro"]["strict"]["f1"] - f1) > 1e-12:
        fails.append(("evaluate", f"strict F1 {report['micro']['strict']['f1']} != {f1}"))
    if abs(report["intent_accuracy"] - accuracy) > 1e-12:
        fails.append(("evaluate", f"intent accuracy {report['intent_accuracy']} != {accuracy}"))
    return fails, {"slot_f1": report["micro"]["strict"]["f1"],
                   "intent_acc": report["intent_accuracy"]}


def check_significance(out: Path, truth: dict) -> tuple[list, dict]:
    fails = []
    table = _report(out / "table.json")
    languages = truth["languages"]
    if table["languages"] != languages:
        fails.append(("significance", "languages differ from the score file"))
    if abs(table["alpha_adjusted"] - 0.05 / len(languages)) > 1e-12:
        fails.append(("significance", f"alpha_adjusted {table['alpha_adjusted']}"))
    cells = {(r["system"], r["language"]) for r in table["results"]}
    if cells != {(s, lang) for s in truth["systems"] for lang in languages}:
        fails.append(("significance", "the table does not cover every system and language"))
    z = lambda alpha: statistics.NormalDist().inv_cdf(1 - alpha)
    for r in table["results"]:
        bound = r["epsilon_hat"] - r["sigma_boot"] * z(r["alpha_used"])
        if abs(bound - r["epsilon_min"]) > 1e-6 or r["dominant"] != (r["epsilon_min"] < 0.5):
            fails.append(("significance", f"{r['system']}/{r['language']}: verdict does not "
                                          "follow from epsilon_hat and sigma"))
    for system in truth["systems"]:
        n = sum(r["dominant"] for r in table["results"] if r["system"] == system)
        if table["dominant_counts"].get(system) != n:
            fails.append(("significance", f"dominant_counts[{system}] != {n}"))
    strong = sum(r["dominant"] for r in table["results"] if r["system"] == truth["strong"])
    if strong != len(languages):
        fails.append(("significance", f"strong system dominant in {strong}/{len(languages)}"))
    text = (out / "table.txt").read_text(encoding="utf-8")
    if f"dominant_languages\t{truth['strong']}\t{strong}/{len(languages)}" not in text:
        fails.append(("significance", "text table disagrees with the JSON table"))
    return fails, {}


CHECKS = {"transfer": check_transfer, "train": check_train, "significance": check_significance}


def verify(workload: str, out: Path, truth: dict, step_names) -> tuple[list, dict]:
    """Run a workload's checks; outputs that cannot be read fail every step."""
    try:
        return CHECKS[workload](out, truth)
    except Exception as err:  # missing or garbled outputs are failures, not crashes
        return [(name, f"outputs could not be checked: {err!r}") for name in step_names], {}


def corrupt(workload: str, out: Path) -> None:
    """Damage one output the way a wrong optimisation might: flip one tag
    of the projected or predicted file, or one dominance verdict."""
    if workload == "significance":
        path = out / "table.json"
        table = _report(path)
        for r in table["results"]:
            if r["system"] == "strong":
                r["dominant"] = False
                break
        path.write_text(json.dumps(table), encoding="utf-8")
        return
    path = out / ("projected.conll" if workload == "transfer" else "pred.conll")
    lines = path.read_text(encoding="utf-8").split("\n")
    for k, line in enumerate(lines[:-1]):
        cols = line.split("\t")
        nxt = lines[k + 1].split("\t")
        if len(cols) == 3 and cols[2] == "O" and not (len(nxt) == 3 and nxt[2][0] == "I"):
            lines[k] = f"{cols[0]}\t{cols[1]}\tB-flipped"
            break
    path.write_text("\n".join(lines), encoding="utf-8")
