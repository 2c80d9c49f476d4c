"""Seeded synthetic inputs for the benchmark workloads.

Every function here is a pure function of the workload seed: the same
seed writes byte-identical files. Besides the files, each generator
returns the planted truth the checker needs (clean shared-schema
annotations, the column each projected source token must pick, the
expected dominance layout) and the input properties that go into the
results. The program under test only ever sees the files.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from pathlib import Path

FUNCTION_WORDS = ("for", "at", "in", "on", "to", "from")

# Shared schema: slot labels and intents every corpus is mapped onto.
SHARED_SLOTS = ("city", "date", "time", "airline", "person", "artist", "genre", "cuisine")
SHARED_INTENTS = (
    "book_flight", "play_music", "get_weather", "find_restaurant", "set_alarm",
    "call_person", "check_status", "cancel", "greet", "ask_time",
)

# Scheme A is finer-grained (several labels per shared label) and keeps a
# few shared names, which map to themselves without a map entry.
SCHEME_A_SLOTS = {
    "city": ("from_city", "to_city", "city"),
    "date": ("depart_date", "return_date"),
    "time": ("time",),
    "airline": ("airline_name",),
    "person": ("contact", "person"),
    "artist": ("artist_name",),
    "genre": ("music_genre",),
    "cuisine": ("food_type", "cuisine"),
}
SCHEME_A_INTENTS = {i: ("atis_" + i,) for i in SHARED_INTENTS}
# Scheme B renames one to one, in its own naming style.
SCHEME_B_SLOTS = {s: (s.upper() + "_B",) for s in SHARED_SLOTS}
SCHEME_B_INTENTS = {i: ("".join(p.title() for p in i.split("_")),) for i in SHARED_INTENTS}

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "da", "ve", "zu", "ba", "qi",
    "ho", "fe", "gu", "ja", "wy", "xe", "co", "le", "mu", "ni", "ro", "sa", "ti",
)


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


class Lexicon:
    """Word inventories drawn from the seed: filler words, slot values, cues."""

    def __init__(self, rng: random.Random, n_filler: int, n_values: int):
        taken = set(FUNCTION_WORDS)

        def fresh(count: int, lo: int, hi: int) -> list[str]:
            out = []
            while len(out) < count:
                w = _word(rng, rng.randint(lo, hi))
                if w not in taken:
                    taken.add(w)
                    out.append(w)
            return out

        self.filler = fresh(n_filler, 2, 4)
        self.values = {s: fresh(n_values, 2, 4) for s in SHARED_SLOTS}
        self.cues = {s: fresh(3, 3, 3) for s in SHARED_SLOTS}
        self.triggers = {i: fresh(4, 3, 3) for i in SHARED_INTENTS}
        # Zipf-like weights so frequent words repeat and the tail is long.
        self.filler_cw = list(accumulate(1.0 / (k + 1) for k in range(n_filler)))
        self.value_cw = list(accumulate(1.0 / (k + 1) ** 0.8 for k in range(n_values)))


def _clean_utterance(rng: random.Random, lex: Lexicon):
    """One utterance in the shared schema.

    Returns (tokens, spans, intent, leadin) where spans are
    (start, end, label) and leadin[k] is the position of a function word
    standing right before span k, or None. Spans never touch: at least
    one O token separates them, so BIO repair cannot merge two of them.
    """
    intent = rng.choice(SHARED_INTENTS)
    tokens: list[str] = [rng.choice(lex.triggers[intent])]
    spans, leadin = [], []
    for _ in range(rng.randint(1, 3)):
        for _ in range(rng.randint(1, 3)):
            tokens.append(rng.choices(lex.filler, cum_weights=lex.filler_cw)[0])
        label = rng.choice(SHARED_SLOTS)
        tokens.append(rng.choice(lex.cues[label]))
        lead = None
        if rng.random() < 0.3:
            lead = len(tokens)
            tokens.append(rng.choice(FUNCTION_WORDS))
        start = len(tokens)
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            tokens.append(rng.choices(lex.values[label], cum_weights=lex.value_cw)[0])
        spans.append((start, len(tokens), label))
        leadin.append(lead)
    for _ in range(rng.randint(0, 2)):
        tokens.append(rng.choices(lex.filler, cum_weights=lex.filler_cw)[0])
    return tokens, spans, intent, leadin


def _tags(spans, length: int) -> list[str]:
    tags = ["O"] * length
    for start, end, label in spans:
        tags[start] = "B-" + label
        for k in range(start + 1, end):
            tags[k] = "I-" + label
    return tags


def _source_annotation(rng, tokens, spans, intent, leadin, slot_scheme, intent_scheme, stats):
    """Render a clean utterance in a source scheme, with noise to undo.

    A function word before a span is pulled inside it 40% of the time
    (homogenize --trim strips it again). About 4% of utterances get one
    malformed BIO transition that repair fixes exactly: an orphan I at a
    span start, or an I with another label inside a span.
    """
    tags = ["O"] * len(tokens)
    for (start, end, label), lead in zip(spans, leadin):
        src_label = rng.choice(slot_scheme[label])
        if lead is not None and rng.random() < 0.4:
            start = lead
            stats["leadins_in_span"] += 1
        tags[start] = "B-" + src_label
        for k in range(start + 1, end):
            tags[k] = "I-" + src_label
    if rng.random() < 0.04:
        stats["malformed"] += 1
        starts = [k for k, t in enumerate(tags) if t.startswith("B-")]
        inner = [k for k, t in enumerate(tags) if t.startswith("I-")]
        if inner and rng.random() < 0.5:
            k = rng.choice(inner)
            others = [lab for labs in slot_scheme.values() for lab in labs]
            tags[k] = "I-" + rng.choice([lab for lab in others if lab != tags[k][2:]])
        else:
            k = rng.choice(starts)
            tags[k] = "I-" + tags[k][2:]
    return tags, rng.choice(intent_scheme[intent])


def _block(uid: str, tokens, tags, intent: str) -> str:
    lines = [f"# id: {uid}", f"# text: {' '.join(tokens)}", f"# intent: {intent}"]
    lines.extend(f"{i}\t{tok}\t{tag}" for i, (tok, tag) in enumerate(zip(tokens, tags), start=1))
    return "\n".join(lines) + "\n"


def _write_corpus(path: Path, blocks: list[str]) -> None:
    path.write_text("\n".join(blocks), encoding="utf-8")


def _label_map(slot_scheme, intent_scheme) -> str:
    lines = ["# source scheme -> shared schema", "[slots]"]
    for shared, names in slot_scheme.items():
        lines.extend(f"{name}\t{shared}" for name in names if name != shared)
    lines.append("[intents]")
    for shared, names in intent_scheme.items():
        lines.extend(f"{name}\t{shared}" for name in names if name != shared)
    return "\n".join(lines) + "\n"


def _source_corpus(rng, lex, prefix, n, slot_scheme, intent_scheme, stats):
    """n utterances in a source scheme; returns (blocks, clean truth)."""
    blocks, truth = [], []
    for k in range(n):
        tokens, spans, intent, leadin = _clean_utterance(rng, lex)
        tags, src_intent = _source_annotation(
            rng, tokens, spans, intent, leadin, slot_scheme, intent_scheme, stats
        )
        uid = f"{prefix}{k:06d}"
        blocks.append(_block(uid, tokens, tags, src_intent))
        truth.append((uid, tokens, _tags(spans, len(tokens)), intent))
        stats["tokens"] += len(tokens)
    return blocks, truth


def _translate(word: str) -> str:
    return word[::-1] + "x"


def _alignment(rng, uid, tokens, spans, stats):
    """A soft-alignment record for one utterance plus its planted outcome.

    The target side is a word-by-word translation with adjacent units
    (a span or an O token) sometimes swapped, a few O tokens dropped and
    some two-token spans fused into one target token, so two source
    tokens collide on one column. Scores are two-decimal noise in
    [0, 0.3) with the true column in [0.6, 1). About 5% of labelled
    rows get a planted tie with another column: ties to the left make the
    lowest-index rule pick the wrong column. Returns (record, target
    tokens, gold target tags, picked column per source token).
    """
    span_at = {s: (s, e, lab) for s, e, lab in spans}
    units, k = [], 0
    while k < len(tokens):
        if k in span_at:
            units.append(span_at[k])
            k = span_at[k][1]
        else:
            units.append((k, k + 1, None))
            k += 1
    for u in range(len(units) - 1):
        if rng.random() < 0.15:
            units[u], units[u + 1] = units[u + 1], units[u]
    tgt, col_of, gold_spans = [], {}, []
    for start, end, label in units:
        if label is None:
            if rng.random() < 0.05:
                stats["dropped"] += 1
                continue
            col_of[start] = len(tgt)
            tgt.append(_translate(tokens[start]))
            continue
        first = len(tgt)
        fuse = end - start >= 2 and rng.random() < 0.3
        for i in range(start, end):
            if fuse and i == end - 1:
                col_of[i] = len(tgt) - 1
                tgt[-1] += "_" + _translate(tokens[i])
                stats["collisions"] += 1
            else:
                col_of[i] = len(tgt)
                tgt.append(_translate(tokens[i]))
        gold_spans.append((first, len(tgt), label))
    labelled = {i for s, e, _ in spans for i in range(s, e)}
    scores, picks = [], []
    for i in range(len(tokens)):
        row = [rng.randrange(30) / 100 for _ in tgt]
        pick = col_of.get(i)  # None only for a dropped token, which is always O
        if pick is not None:
            row[pick] = rng.randrange(60, 100) / 100
            if i in labelled and len(tgt) > 1 and rng.random() < 0.05:
                other = rng.choice([c for c in range(len(tgt)) if c != pick])
                row[other] = row[pick]
                stats["ties"] += 1
                if other < pick:
                    stats["ties_misleading"] += 1
                    pick = other
        scores.append(row)
        picks.append(pick)
    record = {"id": uid, "src_tokens": tokens, "tgt_tokens": tgt, "scores": scores}
    return record, tgt, _tags(gold_spans, len(tgt)), picks


def transfer(seed: int, inputs: Path) -> dict:
    """Two 10k source corpora, a 5k source test set, alignments and target gold."""
    rng = random.Random(seed)
    lex = Lexicon(rng, n_filler=3000, n_values=300)
    n_corpus, n_test = 10_000, 5_000
    stats = dict.fromkeys(
        ("tokens", "tgt_tokens", "malformed", "leadins_in_span", "ties", "ties_misleading",
         "collisions", "dropped"), 0)
    a_blocks, a_truth = _source_corpus(
        rng, lex, "a", n_corpus, SCHEME_A_SLOTS, SCHEME_A_INTENTS, stats)
    b_blocks, b_truth = _source_corpus(
        rng, lex, "b", n_corpus, SCHEME_B_SLOTS, SCHEME_B_INTENTS, stats)
    test_blocks, test_truth, records, gold_blocks, target = [], [], [], [], []
    for k in range(n_test):
        tokens, spans, intent, leadin = _clean_utterance(rng, lex)
        tags, src_intent = _source_annotation(
            rng, tokens, spans, intent, leadin, SCHEME_A_SLOTS, SCHEME_A_INTENTS, stats)
        uid = f"t{k:06d}"
        test_blocks.append(_block(uid, tokens, tags, src_intent))
        clean = _tags(spans, len(tokens))
        test_truth.append((uid, tokens, clean, intent))
        record, tgt, gold, picks = _alignment(rng, uid, tokens, spans, stats)
        records.append(json.dumps(record))
        gold_blocks.append(_block(uid, tgt, gold, intent))
        target.append({"tgt_tokens": tgt, "gold": gold, "picks": picks,
                       "n_src_spans": len(spans)})
        stats["tokens"] += len(tokens)
        stats["tgt_tokens"] += len(tgt)
    _write_corpus(inputs / "corpus_a.conll", a_blocks)
    _write_corpus(inputs / "corpus_b.conll", b_blocks)
    _write_corpus(inputs / "test_src.conll", test_blocks)
    _write_corpus(inputs / "test_tgt_gold.conll", gold_blocks)
    (inputs / "map_a.tsv").write_text(_label_map(SCHEME_A_SLOTS, SCHEME_A_INTENTS), encoding="utf-8")
    (inputs / "map_b.tsv").write_text(_label_map(SCHEME_B_SLOTS, SCHEME_B_INTENTS), encoding="utf-8")
    (inputs / "align.jsonl").write_text("\n".join(records) + "\n", encoding="utf-8")
    n_utts = 2 * n_corpus + n_test
    types = {t for _, toks, _, _ in a_truth + b_truth + test_truth for t in toks}
    props = {
        "utterances": {"corpus_a": n_corpus, "corpus_b": n_corpus, "test_src": n_test,
                       "test_tgt_gold": n_test},
        "tokens": {"sources": stats["tokens"], "target_gold": stats["tgt_tokens"]},
        "vocab_types": len(types),
        "malformed_bio_share": stats["malformed"] / n_utts,
        "leadins_inside_spans": stats["leadins_in_span"],
        "alignment_records": n_test,
        "alignment_ties": stats["ties"],
        "alignment_ties_to_the_left": stats["ties_misleading"],
        "alignment_collisions": stats["collisions"],
        "alignment_dropped_tokens": stats["dropped"],
    }
    truth = {"a": a_truth, "b": b_truth, "test": test_truth, "target": target}
    return {"props": props, "truth": truth,
            "tokens": stats["tokens"] + stats["tgt_tokens"]}


def train(seed: int, inputs: Path, epochs: int) -> dict:
    """~2k training utterances, ~1k raw MLM sentences, a ~4k held-out set."""
    rng = random.Random(seed)
    lex = Lexicon(rng, n_filler=5000, n_values=400)
    n_train, n_mlm, n_held = 2_000, 1_000, 4_000
    sets = {}
    for name, n in (("train", n_train), ("heldout", n_held)):
        blocks, truth = [], []
        for k in range(n):
            tokens, spans, intent, _ = _clean_utterance(rng, lex)
            tags = _tags(spans, len(tokens))
            uid = f"{name[0]}{k:06d}"
            blocks.append(_block(uid, tokens, tags, intent))
            truth.append((uid, tokens, tags, intent))
        _write_corpus(inputs / f"{name}.conll", blocks)
        sets[name] = truth
    mlm = [_clean_utterance(rng, lex)[0] for _ in range(n_mlm)]
    (inputs / "mlm.txt").write_text("\n".join(" ".join(s) for s in mlm) + "\n", encoding="utf-8")
    count = lambda truth: sum(len(t[1]) for t in truth)
    train_types = {t for _, toks, _, _ in sets["train"] for t in toks} | {t for s in mlm for t in s}
    held_types = {t for _, toks, _, _ in sets["heldout"] for t in toks}
    props = {
        "utterances": {"train": n_train, "heldout": n_held},
        "mlm_sentences": n_mlm,
        "tokens": {"train": count(sets["train"]), "mlm": sum(map(len, mlm)),
                   "heldout": count(sets["heldout"])},
        "vocab_types": len(train_types),
        "heldout_oov_types": len(held_types - train_types),
        "malformed_bio_share": 0.0,
        "epochs": epochs,
    }
    train_tokens = props["tokens"]["train"] + props["tokens"]["mlm"]
    return {"props": props, "truth": {"heldout": sets["heldout"]},
            "tokens": epochs * train_tokens + props["tokens"]["heldout"],
            "train_tokens": epochs * train_tokens}


LANGUAGES = ("ar", "de", "en", "es", "fr", "hi", "it", "ja", "nl", "pt", "th", "zh")
SYSTEMS = ("baseline", "strong", "close")
# Seed counts per (system, language); every other cell has 5 seeds. The
# layout is fixed so every workload seed asks for the same amount of work.
UNEQUAL_SEEDS = {
    ("baseline", "ar"): 20, ("strong", "ar"): 10, ("close", "ar"): 10,
    ("baseline", "de"): 10, ("strong", "de"): 20, ("close", "de"): 5,
}


def significance(seed: int, inputs: Path) -> dict:
    """Score CSV: a baseline and two systems over 12 languages.

    "strong" sits entirely above the baseline in every language, so its
    bootstrap epsilons are all 0 and it must be declared dominant 12/12;
    "close" is the baseline shifted by a fraction of its spread.
    """
    rng = random.Random(seed)
    rows = ["system,language,metric,seed,value"]
    counts = {}
    for lang in LANGUAGES:
        centre = rng.uniform(60, 85)
        for system in SYSTEMS:
            n = UNEQUAL_SEEDS.get((system, lang), 5)
            counts[f"{system}/{lang}"] = n
            for s in range(n):
                if system == "strong":
                    value = centre + rng.uniform(4.0, 8.0)
                elif system == "close":
                    value = centre + 0.3 + rng.uniform(-2.0, 2.0)
                else:
                    value = centre + rng.uniform(-2.0, 2.0)
                rows.append(f"{system},{lang},f1,{s},{value:.4f}")
    (inputs / "scores.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    props = {
        "systems": len(SYSTEMS), "languages": len(LANGUAGES),
        "seeds_per_cell": counts, "score_rows": len(rows) - 1,
    }
    return {"props": props, "truth": {"strong": "strong", "languages": list(LANGUAGES),
                                      "systems": [s for s in SYSTEMS if s != "baseline"]},
            "tokens": 0}
