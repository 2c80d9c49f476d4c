"""Joint intent and slot tagger over a small bidirectional recurrent encoder.

A shared encoder (token embeddings into a single-layer tanh recurrence run
in both directions) feeds three heads: a linear intent classifier over
the sentence vector (final forward and final backward state concatenated),
a linear per-token slot classifier, and a masked-token classifier used as
an auxiliary objective on raw text. The masked-token head is tied to the
embedding, as in BERT: it projects a token state into embedding space and
scores it against every embedding row. Task losses are mean
cross-entropies combined as a weighted sum; decoding is greedy argmax
with the tag sequence repaired into valid BIO.

Training and prediction share one engine: `encode` pads a batch to
[B, T] with <pad>, projects the inputs with one matmul per direction and
runs the recurrence in [B, h] steps, and both the training loss and
`predict` call it. Backpropagation runs in the same steps, with weight
gradients formed as matmuls after the time loop. An SGD step touches
only the tensors its batch used: the heads of the tasks present and the
embedding rows of the ids present, or, in a batch with masked-token
targets, the whole embedding, since the tied head reads every row.

Everything runs in float64 numpy with hand-written backpropagation and
plain fixed-rate SGD, so training is bit-reproducible for a given seed
and every gradient can be audited against finite differences. For
large-scale work you would swap in a pretrained encoder and a stateful
optimizer with a warmup schedule; both trade away the exact-replay
property this implementation exists for.
"""

from __future__ import annotations

import base64
import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass, fields
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import bio
from .config import TrainConfig
from .corpus import Dataset, Utterance
from .errors import DivergenceError, StructuralError
from .sampler import InstanceCycler, TaskSpec, schedule_epoch

PAD, UNK, MASK, CLS = "<pad>", "<unk>", "<mask>", "<cls>"
# Reserved token ids, fixed in this order: 0 <pad>, 1 <unk>, 2 <mask>, 3 <cls>.
# <pad> fills batch rows past their length; those positions never reach a
# loss or a gradient. The sentence vector comes from the recurrence
# endpoints, so <cls> is reserved for format stability only.
RESERVED_TOKENS = (PAD, UNK, MASK, CLS)
PAD_ID, UNK_ID, MASK_ID, CLS_ID = range(4)

# The prediction heads, in parameter and log order. Head t owns the tensors
# w_t and b_t, and TrainConfig.w_t weights its loss.
HEADS = ("intent", "slot", "mlm")
# Sampler tasks: labelled utterances feed the intent and slot heads, raw
# sentences the mlm head.
SLU_TASK = "slu"
MLM_TASK = "mlm"

CHECKPOINT_VERSION = 3
# Checkpoint tensors are stored as little-endian float64 bytes.
TENSOR_DTYPE = "<f8"

# Rows per padded forward in predict_dataset. 64 runs as fast as 128 or a
# whole dataset at once and keeps each forward's arrays near 1 MB; at 128
# the freed arrays fragmented the heap enough to add about 8 MiB to the
# peak resident memory of a train-then-predict process.
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class Vocab:
    """Token, slot-tag and intent inventories with dense ids.

    Token ids start with the reserved entries, followed by the kept data
    tokens in sorted order; tag and intent ids are positions in their
    tuples. All three id assignments are bijections onto 0..K-1.
    """

    tokens: tuple[str, ...]
    slot_tags: tuple[str, ...]
    intents: tuple[str, ...]

    def __post_init__(self):
        if tuple(self.tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise StructuralError("vocab must start with the reserved tokens")
        for field in fields(self):
            name, seq = field.name, getattr(self, field.name)
            if not all(isinstance(entry, str) for entry in seq):
                raise StructuralError(f"entries in {name} must be strings")
            if len(set(seq)) != len(seq):
                raise StructuralError(f"duplicate entries in {name}")
            try:
                "".join(seq).encode("utf-8")
            except UnicodeEncodeError:
                raise StructuralError(f"entries in {name} hold a lone surrogate") from None
        # predictions are written as dataset rows, so every label must be one a row can hold
        try:
            bio.check_tags(self.slot_tags)
        except StructuralError as err:
            raise StructuralError(f"bad entry in slot_tags: {err}") from None
        for intent in self.intents:
            if "\n" in intent:
                raise StructuralError(f"bad entry in intents: {intent!r} holds a newline")
        object.__setattr__(self, "_token_ids", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "_tag_ids", {t: i for i, t in enumerate(self.slot_tags)})
        object.__setattr__(self, "_intent_ids", {t: i for i, t in enumerate(self.intents)})

    def tag_id(self, tag: str) -> int:
        try:
            return self._tag_ids[tag]
        except KeyError:
            raise StructuralError(f"tag {tag!r} not in inventory") from None

    def intent_id(self, intent: str) -> int:
        try:
            return self._intent_ids[intent]
        except KeyError:
            raise StructuralError(f"intent {intent!r} not in inventory") from None

    def encode_tokens(self, tokens) -> list[int]:
        return list(map(self._token_ids.get, tokens, repeat(UNK_ID)))


def build_vocab(data: Dataset, min_count: int = 1, extra_sentences=()) -> Vocab:
    """Count the tokens of one dataset and keep those seen >= min_count times.

    extra_sentences (token lists from a raw-text corpus) contribute to the
    token counts only. Tag and intent inventories cover every label in the
    dataset, with both B- and I- forms per slot label so the slot head
    can emit full spans.
    """
    if min_count < 1:
        raise StructuralError("min_count must be >= 1")
    counts = Counter(chain.from_iterable(utt.tokens for utt in data))
    counts.update(chain.from_iterable(extra_sentences))
    kept = sorted(
        t for t, c in counts.items() if c >= min_count and t not in RESERVED_TOKENS
    )
    tags = ("O",) + tuple(sorted(f"{p}-{lab}" for lab in data.label_inventory for p in "BI"))
    return Vocab(RESERVED_TOKENS + tuple(kept), tags, tuple(sorted(data.intent_inventory)))


# Parameter tensors, by name (d = embed_dim, h = hidden_dim, V = vocab size,
# K_int = intents, K_slot = slot tags):
#   emb          [V, d]      w_intent  [2h, K_int]   b_intent  [K_int]
#   w_fwd_in     [d, h]      w_slot    [2h, K_slot]  b_slot    [K_slot]
#   w_fwd_state  [h, h]      w_mlm     [2h, d]       b_mlm     [V]
#   b_fwd        [h]
#   w_bwd_in     [d, h]
#   w_bwd_state  [h, h]
#   b_bwd        [h]
# w_mlm projects into embedding space; the mlm logits are (feats @ w_mlm) @ emb.T + b_mlm.
ModelParams = dict[str, np.ndarray]


def _param_shapes(config: TrainConfig, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, in the order init_params draws them."""
    d, h = config.embed_dim, config.hidden_dim
    v = len(vocab.tokens)
    shapes = {
        "emb": (v, d),
        "w_fwd_in": (d, h),
        "w_fwd_state": (h, h),
        "b_fwd": (h,),
        "w_bwd_in": (d, h),
        "w_bwd_state": (h, h),
        "b_bwd": (h,),
    }
    for task, classes in zip(HEADS, (len(vocab.intents), len(vocab.slot_tags), v)):
        shapes[f"w_{task}"] = (2 * h, d if task == "mlm" else classes)
        shapes[f"b_{task}"] = (classes,)
    return shapes


def init_params(config: TrainConfig, vocab: Vocab, rng=None) -> ModelParams:
    """Fresh float64 parameters; weights uniform in [-0.1, 0.1], zero biases."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params: ModelParams = {}
    for name, shape in _param_shapes(config, vocab).items():
        if name.startswith("b_"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.uniform(-0.1, 0.1, size=shape)
    return params


class _Cache(NamedTuple):
    """What the backward pass needs from one padded forward."""

    ids: np.ndarray  # [2, T, B] input ids; direction 1 holds each row reversed
    x: np.ndarray  # [2, T*B, d] embedded inputs, time-major
    w_in: np.ndarray  # [2, d, h] input projections, forward then backward
    w_state: np.ndarray  # [2, h, h] recurrent weights
    states: np.ndarray  # [T, 2, B, h] hidden states in each direction's own order
    valid: np.ndarray  # [B, T] True at real (unpadded) positions
    rev: np.ndarray  # [B, T] position t <-> L-1-t within each row; padding fixed
    lengths: np.ndarray  # [B]


def encode(params: ModelParams, id_lists) -> tuple[np.ndarray, np.ndarray, _Cache]:
    """Encode a batch of id sequences in one padded [B, T] pass.

    Rows are padded with PAD_ID to the longest length T. Both directions
    run as one stacked [2, B, h] recurrence over left-aligned rows:
    direction 0 reads each row forwards, direction 1 reads it reversed,
    so the backward direction starts at the row's own last token and
    both directions go through the same operations in the same order.
    States past a row's end are computed but never read, and receive
    exactly zero gradient.

    Returns per-token states [B, T, 2h] (forward half, then backward half
    in original token order), sentence vectors [B, 2h] (last forward
    state, first backward state) and the cache for _backward.
    """
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.intp)
    if lengths.size == 0 or lengths.min() == 0:
        raise StructuralError("empty token sequence")
    n_rows, n_steps = lengths.size, int(lengths.max())
    ids = np.full((2, n_steps, n_rows), PAD_ID, dtype=np.intp)
    for row, (seq, n) in enumerate(zip(id_lists, lengths)):
        ids[0, :n, row] = seq
        ids[1, :n, row] = seq[::-1]
    v = params["emb"].shape[0]
    bad = (ids[0] < 0) | (ids[0] >= v)
    if bad.any():
        raise StructuralError(f"token id {int(ids[0][bad][0])} out of range for vocab size {v}")

    w_in = np.stack([params["w_fwd_in"], params["w_bwd_in"]])
    w_state = np.stack([params["w_fwd_state"], params["w_bwd_state"]])
    bias = np.stack([params["b_fwd"], params["b_bwd"]])
    h = bias.shape[1]
    x = params["emb"][ids.reshape(2, -1)]
    pre = (x @ w_in + bias[:, None, :]).reshape(2, n_steps, n_rows, h).transpose(1, 0, 2, 3)
    states = np.empty(pre.shape)
    np.tanh(pre[0], out=states[0])
    for t in range(1, n_steps):
        np.tanh(pre[t] + states[t - 1] @ w_state, out=states[t])

    steps = np.arange(n_steps)
    valid = steps < lengths[:, None]
    rev = np.where(valid, lengths[:, None] - 1 - steps, steps)
    rows = np.arange(n_rows)
    token_states = np.concatenate(
        [states[:, 0].transpose(1, 0, 2), states[rev, 1, rows[:, None]]], axis=2
    )
    last = lengths - 1
    sent = np.concatenate([states[last, 0, rows], states[last, 1, rows]], axis=1)
    return token_states, sent, _Cache(ids, x, w_in, w_state, states, valid, rev, lengths)


def _backward(cache: _Cache, d_token_states, d_sent) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backpropagate through both recurrences in [2, B, h] steps.

    Weight, bias and input gradients are formed as matmuls after the time
    loop. Returns the encoder gradients, with "emb" holding only the rows
    listed in the second return value (the distinct ids of the batch).
    """
    ids, x, w_in, w_state, states, valid, rev, lengths = cache
    n_steps, _, n_rows, h = states.shape
    rows = np.arange(n_rows)
    d_states = np.empty_like(states)
    d_states[:, 0] = d_token_states[..., :h].transpose(1, 0, 2)
    d_states[:, 1] = d_token_states[rows[:, None], rev, h:].transpose(1, 0, 2)
    last = lengths - 1
    d_states[last, 0, rows] += d_sent[:, :h]
    d_states[last, 1, rows] += d_sent[:, h:]

    d_tanh = 1.0 - states * states
    w_state_t = np.ascontiguousarray(w_state.transpose(0, 2, 1))
    d_pre = np.empty_like(states)
    np.multiply(d_states[-1], d_tanh[-1], out=d_pre[-1])
    for t in range(n_steps - 2, -1, -1):
        np.multiply(d_states[t] + d_pre[t + 1] @ w_state_t, d_tanh[t], out=d_pre[t])

    d_pre = d_pre.transpose(1, 0, 2, 3).reshape(2, -1, h)
    flat_states = states.transpose(1, 0, 2, 3).reshape(2, -1, h)
    g_in = x.transpose(0, 2, 1) @ d_pre
    g_state = flat_states[:, : (n_steps - 1) * n_rows].transpose(0, 2, 1) @ d_pre[:, n_rows:]
    g_bias = d_pre.sum(axis=1)
    real = valid.T.ravel()
    d_x = d_pre[:, real] @ w_in.transpose(0, 2, 1)
    emb_rows, where = np.unique(ids.reshape(2, -1)[:, real], return_inverse=True)
    g_emb = np.zeros((emb_rows.size, x.shape[2]))
    np.add.at(g_emb, where.ravel(), d_x.reshape(-1, x.shape[2]))
    grads = {
        "emb": g_emb,
        "w_fwd_in": g_in[0], "w_fwd_state": g_state[0], "b_fwd": g_bias[0],
        "w_bwd_in": g_in[1], "w_bwd_state": g_state[1], "b_bwd": g_bias[1],
    }
    return grads, emb_rows


class Example(NamedTuple):
    """One training sequence; any subset of the supervision fields may be set.

    mlm_targets pairs (position, original token id); token_ids is the
    encoder input, already corrupted for the masked-token task. Nothing is
    checked here: train builds int tuples, nonempty token_ids, one slot id
    per token and distinct in-range mlm positions.
    """

    token_ids: tuple[int, ...]
    intent_id: int | None = None
    slot_ids: tuple[int, ...] | None = None
    mlm_targets: tuple[tuple[int, int], ...] = ()


def _ce_rows(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax cross-entropy and its unscaled logit gradients.

    Consumes ``logits``: the gradients are written into its buffer, which
    is exponentiated once.
    """
    rows = np.arange(logits.shape[0])
    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[rows, targets]
    grads = np.exp(logits, out=logits)
    sums = grads.sum(axis=1)
    losses = np.log(sums) - picked
    grads /= sums[:, None]
    grads[rows, targets] -= 1.0
    return losses, grads


def _loss_and_grads(params, batch, config):
    """Returns (loss, gradients, embedding rows, per-task mean CE dict).

    Each head with targets in the batch contributes its config weight
    w_<head> times its mean cross-entropy, the mean taken over that head's
    prediction units across the whole batch: sequences for intents,
    tokens for slots, masked positions for mlm.
    Gradients cover only the tensors the batch touches: the encoder
    always, a head only when its task is present. Their "emb" entry holds
    just the rows the embedding-rows index selects: the distinct ids of
    the batch, or every row (``slice(None)``) when the batch has mlm
    targets, because the tied mlm head scores against the whole embedding.
    """
    batch = list(batch)
    if not batch:
        raise StructuralError("empty batch")
    intents = [(b, ex.intent_id) for b, ex in enumerate(batch) if ex.intent_id is not None]
    has_slots = np.array([ex.slot_ids is not None for ex in batch])
    mlm_units = [(b, p, tok) for b, ex in enumerate(batch) for p, tok in ex.mlm_targets]
    if not intents and not has_slots.any() and not mlm_units:
        raise StructuralError("batch carries no task labels")

    token_states, sent, cache = encode(params, [ex.token_ids for ex in batch])
    d_token_states = np.zeros_like(token_states)
    d_sent = np.zeros_like(sent)
    intent_rows, intent_ids = np.array(intents, dtype=np.intp).reshape(-1, 2).T
    slot_ids = np.array([t for ex in batch if ex.slot_ids is not None for t in ex.slot_ids],
                        dtype=np.intp)
    mlm_rows, positions, originals = np.array(mlm_units, dtype=np.intp).reshape(-1, 3).T
    # One row per head, in HEADS order: the features it reads, their
    # gradient, the index of its prediction units, and their targets.
    table = (
        (sent, d_sent, intent_rows, intent_ids),
        (token_states, d_token_states, np.nonzero(cache.valid & has_slots[:, None]), slot_ids),
        (token_states, d_token_states, (mlm_rows, positions), originals),
    )
    grads: dict[str, np.ndarray] = {}
    parts: dict[str, float | None] = dict.fromkeys(HEADS)
    loss = 0.0
    tied_emb = None
    for task, (all_feats, d_feats, units, targets) in zip(HEADS, table):
        if targets.size == 0:
            continue
        feats = all_feats[units]
        w = params[f"w_{task}"]
        proj = feats @ w
        logits = proj @ params["emb"].T if task == "mlm" else proj  # mlm is tied to emb
        logits += params[f"b_{task}"]
        losses, scaled = _ce_rows(logits, targets)
        weight = getattr(config, f"w_{task}")
        parts[task] = float(losses.sum()) / targets.size
        loss += weight * parts[task]
        scaled *= weight / targets.size
        grads[f"b_{task}"] = scaled.sum(axis=0)
        if task == "mlm":
            d_proj = scaled @ params["emb"]
            tied_emb = scaled.T @ proj
        else:
            d_proj = scaled
        grads[f"w_{task}"] = feats.T @ d_proj
        d_feats[units] += d_proj @ w.T

    encoder_grads, emb_rows = _backward(cache, d_token_states, d_sent)
    if tied_emb is not None:
        np.add.at(tied_emb, emb_rows, encoder_grads["emb"])
        encoder_grads["emb"], emb_rows = tied_emb, slice(None)
    grads.update(encoder_grads)
    return float(loss), grads, emb_rows, parts


def mask_tokens(token_ids, rate: float, seed: int, vocab_size: int):
    """BERT-style corruption for the masked-token task.

    Each position is selected independently with probability ``rate``;
    a selected position becomes a target and its input token is replaced
    by <mask> with probability 0.8, by a random non-reserved token with
    probability 0.1, and kept unchanged otherwise. Returns (corrupted
    ids, targets) with targets as (position, original id) pairs.
    """
    if not 0 <= rate <= 1:
        raise StructuralError("mask rate must be in [0, 1]")
    if vocab_size < len(RESERVED_TOKENS):
        raise StructuralError("vocab_size smaller than the reserved inventory")
    rng = random.Random(seed)
    corrupted = list(token_ids)
    targets = []
    for pos, tok in enumerate(corrupted):
        if rng.random() < rate:
            targets.append((pos, tok))
            branch = rng.random()
            if branch < 0.8:
                corrupted[pos] = MASK_ID
            elif branch < 0.9 and vocab_size > len(RESERVED_TOKENS):
                corrupted[pos] = rng.randrange(len(RESERVED_TOKENS), vocab_size)
    return corrupted, tuple(targets)


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch loss log entry; a head's field is None when it drew no batch."""

    epoch: int
    total: float
    intent: float | None
    slot: float | None
    mlm: float | None


@dataclass
class TaggerModel:
    config: TrainConfig
    vocab: Vocab
    params: ModelParams


def train(
    data: Dataset, config: TrainConfig, mlm_sentences=None
) -> tuple[TaggerModel, list[EpochStats]]:
    """Train the joint model with proportionally sampled task batches.

    ``data`` supplies the intent/slot task; ``mlm_sentences`` (token
    lists) optionally add the masked-token task, capped at
    config.max_mlm_sentences. All randomness (init, schedule, instance
    order, masking) derives from config.seed, so equal inputs give
    bit-identical models and loss logs. Raises DivergenceError as soon
    as a non-finite loss appears, and StructuralError when the last step
    leaves a tensor non-finite, since that model could not be loaded.
    """
    if len(data) == 0:
        raise StructuralError("training data is empty")
    sentences = [tuple(s) for s in (mlm_sentences or []) if len(s) > 0]
    sentences = sentences[: config.max_mlm_sentences]

    vocab = build_vocab(data, min_count=config.min_count, extra_sentences=sentences)
    master = random.Random(config.seed)
    params = init_params(config, vocab, rng=np.random.default_rng(master.randrange(2 ** 32)))

    slu_examples = [
        Example(
            token_ids=tuple(vocab.encode_tokens(utt.tokens)),
            intent_id=vocab.intent_id(utt.intent),
            slot_ids=tuple(vocab.tag_id(t) for t in utt.slot_tags),
        )
        for utt in data
    ]
    mlm_ids = [tuple(vocab.encode_tokens(s)) for s in sentences]

    tasks = [TaskSpec(SLU_TASK, len(slu_examples))]
    cyclers = {SLU_TASK: InstanceCycler(len(slu_examples), master.randrange(2 ** 32))}
    if mlm_ids:
        tasks.append(TaskSpec(MLM_TASK, len(mlm_ids)))
        cyclers[MLM_TASK] = InstanceCycler(len(mlm_ids), master.randrange(2 ** 32))

    total_instances = len(slu_examples) + len(mlm_ids)
    batches = config.batches_per_epoch or math.ceil(total_instances / config.batch_size)

    log: list[EpochStats] = []
    # Non-finite values are caught below (DivergenceError, the tensor check), not by warnings.
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            schedule = schedule_epoch(tasks, batches, config.alpha, master.randrange(2 ** 32))
            totals: list[float] = []
            task_sums = dict.fromkeys(HEADS, 0.0)
            task_batches = dict.fromkeys(HEADS, 0)
            for batch_index, (task, _) in enumerate(schedule.draws):
                pool = slu_examples if task == SLU_TASK else mlm_ids
                picks = cyclers[task].next_batch(min(config.batch_size, len(pool)))
                if task == SLU_TASK:
                    batch = [pool[i] for i in picks]
                else:
                    batch = []
                    for i in picks:
                        corrupted, targets = mask_tokens(
                            pool[i], config.mask_rate, master.randrange(2 ** 32),
                            len(vocab.tokens),
                        )
                        if targets:
                            batch.append(Example(token_ids=tuple(corrupted), mlm_targets=targets))
                    if not batch:
                        continue  # masking selected nothing in this draw
                loss, grads, emb_rows, parts = _loss_and_grads(params, batch, config)
                if not math.isfinite(loss):
                    raise DivergenceError(epoch, batch_index)
                for name, grad in grads.items():
                    grad *= config.learning_rate
                    if name == "emb":
                        params[name][emb_rows] -= grad
                    else:
                        params[name] -= grad
                totals.append(loss)
                for part, value in parts.items():
                    if value is not None:
                        task_sums[part] += value
                        task_batches[part] += 1
            means = {t: task_sums[t] / task_batches[t] if task_batches[t] else None for t in HEADS}
            log.append(EpochStats(epoch, sum(totals) / len(totals) if totals else 0.0, **means))
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise StructuralError(
                f"training diverged: parameter {name} holds non-finite values after the last step"
            )
    return TaggerModel(config, vocab, params), log


def predict(model: TaggerModel, id_lists) -> list[tuple[str, list[str]]]:
    """Greedy decode of a batch of id sequences: argmax intent and tags, repaired into valid BIO."""
    params = model.params
    token_states, sent, cache = encode(params, id_lists)
    intent_logits = sent @ params["w_intent"]
    intent_logits += params["b_intent"]
    slot_logits = token_states[cache.valid] @ params["w_slot"]
    slot_logits += params["b_slot"]
    intents = np.argmax(intent_logits, axis=1).tolist()
    tags = [model.vocab.slot_tags[k] for k in np.argmax(slot_logits, axis=1).tolist()]
    out = []
    start = 0
    for intent, n in zip(intents, cache.lengths.tolist()):
        out.append((model.vocab.intents[intent], bio.repair(tags[start : start + n])))
        start += n
    return out


def predict_dataset(model: TaggerModel, data: Dataset) -> Dataset:
    """Re-tag every utterance with predicted intent and slots.

    Utterances are decoded in length-sorted chunks of PREDICT_CHUNK rows,
    so that each padded forward wastes few steps; the output keeps the
    input order.
    """
    ids = [model.vocab.encode_tokens(utt.tokens) for utt in data]
    order = sorted(range(len(ids)), key=lambda i: len(ids[i]))
    decoded: list = [None] * len(ids)
    for start in range(0, len(order), PREDICT_CHUNK):
        chunk = order[start : start + PREDICT_CHUNK]
        for i, result in zip(chunk, predict(model, [ids[i] for i in chunk])):
            decoded[i] = result
    out = tuple(
        Utterance(utt.id, utt.text, utt.tokens, tuple(tags), intent)
        for utt, (intent, tags) in zip(data, decoded)
    )
    return Dataset(out)


def save_model(model: TaggerModel, path) -> None:
    """Write a format-3 checkpoint: one sorted-key JSON object, then a newline.

    It holds ``format_version``, the ``config`` fields, the ``vocab``
    inventories and ``params``, where each tensor is ``{"shape": [...],
    "dtype": "<f8", "data": ...}`` and ``data`` is the base64 of the
    tensor's little-endian float64 bytes in C order. The file is what
    ``json.dump(..., sort_keys=True)`` writes, so equal models give
    byte-identical files. ``json.dump`` writes it in chunks: no string of
    the whole file is built.
    """
    params = {
        name: {
            "data": base64.b64encode(np.ascontiguousarray(arr, dtype=TENSOR_DTYPE)).decode("ascii"),
            "dtype": TENSOR_DTYPE,
            "shape": list(arr.shape),
        }
        for name, arr in model.params.items()
    }
    payload = {
        "config": asdict(model.config),
        "format_version": CHECKPOINT_VERSION,
        "params": params,
        # the vocab's tuples as they are: asdict() would deep-copy every token
        "vocab": {f.name: getattr(model.vocab, f.name) for f in fields(Vocab)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def load_model(path) -> TaggerModel:
    """Load a format-3 checkpoint written by `save_model`.

    Every field is checked: the version, the config and vocab, then the
    tensors. Their names must be the ones the config and vocab imply, and
    each tensor must declare exactly the shape they imply, the dtype
    ``<f8`` and a strict base64 payload of 8 bytes per element, all
    finite. Any failure raises `StructuralError` prefixed with ``path``.
    Other format versions are not read; a model is regenerated by
    retraining from its manifest.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_model(handle.read())
    except UnicodeDecodeError as err:
        raise StructuralError(f"{path}: not a JSON checkpoint: {err}") from None
    except StructuralError as err:
        raise StructuralError(f"{path}: {err}") from None


def loads_model(text: str) -> TaggerModel:
    """Parse the text of a format-3 checkpoint, checking everything `load_model` does.

    Errors do not name a file; the caller that read ``text`` adds its path.
    """
    try:
        payload = json.loads(text)
    except ValueError as err:
        raise StructuralError(f"not a JSON checkpoint: {err}") from None
    if not isinstance(payload, dict):
        raise StructuralError("not a JSON checkpoint object")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # not 3.0
        raise StructuralError(
            f"unsupported checkpoint version {version!r} "
            f"(this slukit reads {CHECKPOINT_VERSION}; retrain)"
        )
    try:
        config, vocab, raw = payload["config"], payload["vocab"], payload["params"]
    except KeyError as err:
        raise StructuralError(f"checkpoint missing field {err}") from None
    try:
        config = _checkpoint_config(config)
    except StructuralError as err:
        raise StructuralError(f"bad checkpoint config: {err}") from None
    try:
        vocab = Vocab(**{field.name: tuple(vocab[field.name]) for field in fields(Vocab)})
    except KeyError as err:
        raise StructuralError(f"bad checkpoint vocab: missing field {err}") from None
    except TypeError as err:
        raise StructuralError(f"bad checkpoint vocab: {err}") from None
    if not isinstance(raw, dict):
        raise StructuralError("checkpoint params are not an object")
    shapes = _param_shapes(config, vocab)
    if set(raw) != set(shapes):
        missing = sorted(set(shapes) - set(raw))
        extra = sorted(set(raw) - set(shapes))
        raise StructuralError(f"parameter names mismatch: missing {missing}, extra {extra}")
    params = {name: _decode_tensor(name, raw[name], shape) for name, shape in shapes.items()}
    return TaggerModel(config, vocab, params)


def _checkpoint_config(config) -> TrainConfig:
    """The checkpoint's ``config`` object, holding exactly TrainConfig's fields.

    No field silently takes its default; TrainConfig checks each value's
    type and range.
    """
    if not isinstance(config, dict):
        raise StructuralError("not an object")
    names = {field.name for field in fields(TrainConfig)}
    if set(config) != names:
        missing, extra = sorted(names - set(config)), sorted(set(config) - names)
        raise StructuralError(f"fields mismatch: missing {missing}, extra {extra}")
    return TrainConfig(**config)


def _decode_tensor(name: str, entry, shape: tuple[int, ...]) -> np.ndarray:
    """Checkpoint tensor ``name`` of the expected ``shape``, as an owned, writable float64 array."""
    if not isinstance(entry, dict):
        raise StructuralError(f"parameter {name}: not an object")
    for field in ("shape", "dtype", "data"):
        if field not in entry:
            raise StructuralError(f"parameter {name}: missing field {field!r}")
    declared, data = entry["shape"], entry["data"]
    if declared != list(shape) or not all(type(n) is int for n in declared):  # not 8.0, true
        raise StructuralError(f"parameter {name}: shape {declared!r}, expected {list(shape)}")
    if entry["dtype"] != TENSOR_DTYPE:
        raise StructuralError(f"parameter {name}: dtype must be {TENSOR_DTYPE!r}")
    if not isinstance(data, str):
        raise StructuralError(f"parameter {name}: data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise StructuralError(f"parameter {name}: data is not base64: {err}") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise StructuralError(
            f"parameter {name}: {len(raw)} data bytes, expected {expected} for shape {shape}"
        )
    arr = np.frombuffer(raw, dtype=TENSOR_DTYPE).reshape(shape)
    if not np.isfinite(arr).all():
        raise StructuralError(f"parameter {name} contains non-finite values")
    # astype copies, so the array owns writable memory rather than viewing the bytes.
    return arr.astype(np.float64)
