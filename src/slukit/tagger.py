"""Joint intent and slot tagger over a small bidirectional recurrent encoder.

A shared encoder (token embeddings into a single-layer tanh recurrence run
in both directions) feeds three linear heads: an intent classifier over
the sentence vector (final forward and final backward state concatenated),
a per-token slot classifier, and a masked-token classifier used as an
auxiliary objective on raw text. Task losses are mean cross-entropies
combined as a weighted sum; decoding is greedy argmax with the tag
sequence repaired into valid BIO.

Training and prediction share one engine: a batch of sequences is padded
to [B, T] with <pad>, the input projections are one matmul per direction,
and the recurrence and its backpropagation run in [B, h] steps, with the
weight gradients formed as matmuls after the time loop. An SGD step
touches only the tensors its batch used: the heads of the tasks present
and the embedding rows of the ids present.

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
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import bio
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

SLU_TASK = "slu"
MLM_TASK = "mlm"

CHECKPOINT_VERSION = 2
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
        for name, seq in (
            ("tokens", self.tokens),
            ("slot_tags", self.slot_tags),
            ("intents", self.intents),
        ):
            if not all(isinstance(entry, str) for entry in seq):
                raise StructuralError(f"entries in {name} must be strings")
            if len(set(seq)) != len(seq):
                raise StructuralError(f"duplicate entries in {name}")
        object.__setattr__(self, "_token_ids", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "_tag_ids", {t: i for i, t in enumerate(self.slot_tags)})
        object.__setattr__(self, "_intent_ids", {t: i for i, t in enumerate(self.intents)})

    def token_id(self, token: str) -> int:
        return self._token_ids.get(token, UNK_ID)

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
        return [self.token_id(t) for t in tokens]


def build_vocab(datasets, min_count: int = 1, extra_sentences=()) -> Vocab:
    """Count tokens across datasets and keep those seen >= min_count times.

    extra_sentences (token lists from a raw-text corpus) contribute to the
    token counts only. Tag and intent inventories cover every label in the
    datasets, with both B- and I- forms per slot label so the slot head
    can emit full spans.
    """
    if min_count < 1:
        raise StructuralError("min_count must be >= 1")
    counts: dict[str, int] = {}
    labels: set[str] = set()
    intents: set[str] = set()
    for ds in datasets:
        labels |= ds.label_inventory
        intents |= ds.intent_inventory
        for utt in ds:
            for tok in utt.tokens:
                counts[tok] = counts.get(tok, 0) + 1
    for sent in extra_sentences:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        t for t, c in counts.items() if c >= min_count and t not in RESERVED_TOKENS
    )
    tags = ("O",) + tuple(sorted(f"{p}-{lab}" for lab in labels for p in "BI"))
    return Vocab(RESERVED_TOKENS + tuple(kept), tags, tuple(sorted(intents)))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the joint trainer.

    embed_dim/hidden_dim size the encoder; the loss weights multiply each
    task's mean cross-entropy in the summed objective; mask_rate is the
    fraction of auxiliary-text positions selected for the masked-token
    task; alpha shapes the task sampling distribution. batches_per_epoch
    defaults to ceil(total instances / batch_size) when left at None.
    """

    embed_dim: int = 32
    hidden_dim: int = 32
    learning_rate: float = 0.5
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0
    w_intent: float = 1.0
    w_slot: float = 1.0
    w_mlm: float = 0.01
    mask_rate: float = 0.15
    alpha: float = 0.5
    min_count: int = 1
    batches_per_epoch: int | None = None
    max_mlm_sentences: int = 100_000

    def __post_init__(self):
        for name in ("learning_rate", "w_intent", "w_slot", "w_mlm", "mask_rate", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise StructuralError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise StructuralError("encoder dimensions must be >= 1")
        if self.learning_rate < 0:
            raise StructuralError("learning rate must be >= 0")
        if self.epochs < 1:
            raise StructuralError("epochs must be >= 1")
        if self.batch_size < 1:
            raise StructuralError("batch size must be >= 1")
        for name in ("w_intent", "w_slot", "w_mlm"):
            if getattr(self, name) < 0:
                raise StructuralError(f"{name} must be >= 0")
        if not 0 <= self.mask_rate <= 1:
            raise StructuralError("mask_rate must be in [0, 1]")
        if self.alpha < 0:
            raise StructuralError("alpha must be >= 0")
        if self.min_count < 1:
            raise StructuralError("min_count must be >= 1")
        if self.batches_per_epoch is not None and self.batches_per_epoch < 1:
            raise StructuralError("batches_per_epoch must be >= 1")
        if self.max_mlm_sentences < 0:
            raise StructuralError("max_mlm_sentences must be >= 0")


# Parameter tensors, by name (d = embed_dim, h = hidden_dim, V = vocab size,
# K_int = intents, K_slot = slot tags):
#   emb          [V, d]      w_intent  [2h, K_int]   b_intent  [K_int]
#   w_fwd_in     [d, h]      w_slot    [2h, K_slot]  b_slot    [K_slot]
#   w_fwd_state  [h, h]      w_mlm     [2h, V]       b_mlm     [V]
#   b_fwd        [h]
#   w_bwd_in     [d, h]
#   w_bwd_state  [h, h]
#   b_bwd        [h]
ModelParams = dict[str, np.ndarray]


def _param_shapes(config: TrainConfig, vocab: Vocab) -> dict[str, tuple[int, ...]]:
    d, h = config.embed_dim, config.hidden_dim
    v = len(vocab.tokens)
    return {
        "emb": (v, d),
        "w_fwd_in": (d, h),
        "w_fwd_state": (h, h),
        "b_fwd": (h,),
        "w_bwd_in": (d, h),
        "w_bwd_state": (h, h),
        "b_bwd": (h,),
        "w_intent": (2 * h, len(vocab.intents)),
        "b_intent": (len(vocab.intents),),
        "w_slot": (2 * h, len(vocab.slot_tags)),
        "b_slot": (len(vocab.slot_tags),),
        "w_mlm": (2 * h, v),
        "b_mlm": (v,),
    }


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


def validate_params(params: ModelParams, config: TrainConfig, vocab: Vocab) -> None:
    expected = _param_shapes(config, vocab)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise StructuralError(f"parameter names mismatch: missing {missing}, extra {extra}")
    for name, shape in expected.items():
        if tuple(params[name].shape) != shape:
            raise StructuralError(
                f"parameter {name}: shape {tuple(params[name].shape)}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise StructuralError(f"parameter {name} contains non-finite values")


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


def _forward(params: ModelParams, id_lists) -> tuple[np.ndarray, np.ndarray, _Cache]:
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


def encode(params: ModelParams, token_ids) -> tuple[np.ndarray, np.ndarray]:
    """Run the encoder; returns per-token states [n, 2h] and the sentence vector [2h]."""
    token_states, sent, _ = _forward(params, [list(token_ids)])
    return token_states[0], sent[0]


@dataclass(frozen=True)
class Example:
    """One training sequence; any subset of the supervision fields may be set.

    mlm_targets pairs (position, original token id); token_ids is the
    encoder input, already corrupted for the masked-token task.
    """

    token_ids: tuple[int, ...]
    intent_id: int | None = None
    slot_ids: tuple[int, ...] | None = None
    mlm_targets: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "token_ids", tuple(self.token_ids))
        if not self.token_ids:
            raise StructuralError("example has no tokens")
        if self.slot_ids is not None:
            object.__setattr__(self, "slot_ids", tuple(self.slot_ids))
            if len(self.slot_ids) != len(self.token_ids):
                raise StructuralError("slot_ids length does not match token_ids")
        targets = tuple((int(p), int(t)) for p, t in self.mlm_targets)
        object.__setattr__(self, "mlm_targets", targets)
        seen = set()
        for pos, _ in targets:
            if not 0 <= pos < len(self.token_ids):
                raise StructuralError(f"mlm target position {pos} out of range")
            if pos in seen:
                raise StructuralError(f"duplicate mlm target position {pos}")
            seen.add(pos)


def _ce_rows(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax cross-entropy and its unscaled logit gradients."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(logits.shape[0])
    losses = lse - shifted[rows, targets]
    grads = np.exp(shifted - lse[:, None])
    grads[rows, targets] -= 1.0
    return losses, grads


def joint_loss(
    params: ModelParams, batch: Sequence[Example], config: TrainConfig
) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted multi-task loss and dense analytic gradients for one batch.

    The task weights are config.w_intent, config.w_slot and config.w_mlm.
    """
    loss, grads, emb_rows, _ = _loss_and_grads(params, batch, config)
    dense = {name: np.zeros_like(arr) for name, arr in params.items()}
    for name, grad in grads.items():
        if name == "emb":
            dense[name][emb_rows] = grad
        else:
            dense[name][...] = grad
    return loss, dense


def _loss_and_grads(params, batch, config):
    """Returns (loss, gradients, embedding rows, per-task mean CE dict).

    Each present task contributes its config weight (w_intent, w_slot or
    w_mlm) times its mean cross-entropy, the mean taken over that task's
    prediction units across the whole batch: sequences for intents,
    tokens for slots, masked positions for mlm.
    Gradients cover only the tensors the batch touches: the encoder
    always, a head only when its task is present. Their "emb" entry holds
    just the rows listed in the embedding-rows array.
    """
    batch = list(batch)
    if not batch:
        raise StructuralError("empty batch")
    intent_rows = [b for b, ex in enumerate(batch) if ex.intent_id is not None]
    slot_rows = [b for b, ex in enumerate(batch) if ex.slot_ids is not None]
    mlm_units = [(b, p, tok) for b, ex in enumerate(batch) for p, tok in ex.mlm_targets]
    n_intent = len(intent_rows)
    n_slot = sum(len(batch[b].slot_ids) for b in slot_rows)
    n_mlm = len(mlm_units)
    if n_intent == 0 and n_slot == 0 and n_mlm == 0:
        raise StructuralError("batch carries no task labels")

    token_states, sent, cache = _forward(params, [ex.token_ids for ex in batch])
    d_token_states = np.zeros_like(token_states)
    d_sent = np.zeros_like(sent)
    grads: dict[str, np.ndarray] = {}
    sums = {"intent": 0.0, "slot": 0.0, "mlm": 0.0}

    if n_intent:
        rows = np.array(intent_rows)
        feats = sent[rows]
        logits = feats @ params["w_intent"] + params["b_intent"]
        losses, dlogits = _ce_rows(logits, np.array([batch[b].intent_id for b in intent_rows]))
        sums["intent"] = float(losses.sum())
        scaled = dlogits * (config.w_intent / n_intent)
        grads["w_intent"] = feats.T @ scaled
        grads["b_intent"] = scaled.sum(axis=0)
        d_sent[rows] = scaled @ params["w_intent"].T

    if n_slot:
        has_slots = np.zeros(len(batch), dtype=bool)
        has_slots[slot_rows] = True
        where = cache.valid & has_slots[:, None]
        feats = token_states[where]
        logits = feats @ params["w_slot"] + params["b_slot"]
        targets = np.concatenate([batch[b].slot_ids for b in slot_rows])
        losses, dlogits = _ce_rows(logits, targets)
        sums["slot"] = float(losses.sum())
        scaled = dlogits * (config.w_slot / n_slot)
        grads["w_slot"] = feats.T @ scaled
        grads["b_slot"] = scaled.sum(axis=0)
        d_token_states[where] += scaled @ params["w_slot"].T

    if n_mlm:
        mlm_rows, positions, originals = np.array(mlm_units).T
        feats = token_states[mlm_rows, positions]
        logits = feats @ params["w_mlm"] + params["b_mlm"]
        losses, dlogits = _ce_rows(logits, originals)
        sums["mlm"] = float(losses.sum())
        scaled = dlogits * (config.w_mlm / n_mlm)
        grads["w_mlm"] = feats.T @ scaled
        grads["b_mlm"] = scaled.sum(axis=0)
        d_token_states[mlm_rows, positions] += scaled @ params["w_mlm"].T

    encoder_grads, emb_rows = _backward(cache, d_token_states, d_sent)
    grads.update(encoder_grads)

    parts = {
        "intent": sums["intent"] / n_intent if n_intent else None,
        "slot": sums["slot"] / n_slot if n_slot else None,
        "mlm": sums["mlm"] / n_mlm if n_mlm else None,
    }
    weights = {"intent": config.w_intent, "slot": config.w_slot, "mlm": config.w_mlm}
    loss = 0.0
    for task, part in parts.items():
        if part is not None:
            loss += weights[task] * part
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
    """Per-epoch loss log entry; task fields are None when the task drew no batch."""

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
    as a non-finite loss appears.
    """
    if len(data) == 0:
        raise StructuralError("training data is empty")
    sentences = [tuple(s) for s in (mlm_sentences or []) if len(s) > 0]
    sentences = sentences[: config.max_mlm_sentences]

    vocab = build_vocab([data], min_count=config.min_count, extra_sentences=sentences)
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
    for epoch in range(config.epochs):
        schedule = schedule_epoch(tasks, batches, config.alpha, master.randrange(2 ** 32))
        totals: list[float] = []
        task_sums = {"intent": 0.0, "slot": 0.0, "mlm": 0.0}
        task_batches = {"intent": 0, "slot": 0, "mlm": 0}
        for batch_index, (task, _) in enumerate(schedule.draws):
            if task == SLU_TASK:
                picks = cyclers[SLU_TASK].next_batch(min(config.batch_size, len(slu_examples)))
                batch = [slu_examples[i] for i in picks]
            else:
                picks = cyclers[MLM_TASK].next_batch(min(config.batch_size, len(mlm_ids)))
                batch = []
                for i in picks:
                    corrupted, targets = mask_tokens(
                        mlm_ids[i], config.mask_rate, master.randrange(2 ** 32), len(vocab.tokens)
                    )
                    if targets:
                        batch.append(Example(token_ids=tuple(corrupted), mlm_targets=targets))
                if not batch:
                    continue  # masking selected nothing in this draw
            loss, grads, emb_rows, parts = _loss_and_grads(params, batch, config)
            if not math.isfinite(loss):
                raise DivergenceError(epoch, batch_index)
            for name, grad in grads.items():
                if name == "emb":
                    params[name][emb_rows] -= config.learning_rate * grad
                else:
                    params[name] -= config.learning_rate * grad
            totals.append(loss)
            for part, value in parts.items():
                if value is not None:
                    task_sums[part] += value
                    task_batches[part] += 1
        log.append(
            EpochStats(
                epoch=epoch,
                total=sum(totals) / len(totals) if totals else 0.0,
                intent=task_sums["intent"] / task_batches["intent"] if task_batches["intent"] else None,
                slot=task_sums["slot"] / task_batches["slot"] if task_batches["slot"] else None,
                mlm=task_sums["mlm"] / task_batches["mlm"] if task_batches["mlm"] else None,
            )
        )
    return TaggerModel(config, vocab, params), log


def predict(model: TaggerModel, tokens) -> tuple[str, list[str]]:
    """Greedy decode: argmax intent and per-token tags, repaired into valid BIO."""
    toks = list(tokens)
    if not toks:
        raise StructuralError("cannot predict on an empty token list")
    return _decode(model, [model.vocab.encode_tokens(toks)])[0]


def _decode(model: TaggerModel, id_lists) -> list[tuple[str, list[str]]]:
    """Greedy decode of a batch of id sequences in one padded forward."""
    params = model.params
    token_states, sent, cache = _forward(params, id_lists)
    intents = np.argmax(sent @ params["w_intent"] + params["b_intent"], axis=1).tolist()
    slot_logits = token_states[cache.valid] @ params["w_slot"] + params["b_slot"]
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
        for i, result in zip(chunk, _decode(model, [ids[i] for i in chunk])):
            decoded[i] = result
    out = tuple(
        Utterance(utt.id, utt.text, utt.tokens, tuple(tags), intent)
        for utt, (intent, tags) in zip(data, decoded)
    )
    return Dataset(f"{data.name}-predicted", out)


def save_model(model: TaggerModel, path) -> None:
    """Write a format-2 checkpoint: one sorted-key JSON object.

    It holds ``format_version``, the ``config`` fields, the ``vocab``
    inventories and ``params``, where each tensor is ``{"shape": [...],
    "dtype": "<f8", "data": ...}`` and ``data`` is the base64 of the
    tensor's little-endian float64 bytes in C order. Equal models give
    byte-identical files.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": {
            "tokens": list(model.vocab.tokens),
            "slot_tags": list(model.vocab.slot_tags),
            "intents": list(model.vocab.intents),
        },
        "params": {
            name: {
                "shape": list(arr.shape),
                "dtype": TENSOR_DTYPE,
                "data": base64.b64encode(
                    arr.astype(TENSOR_DTYPE, copy=False).tobytes()
                ).decode("ascii"),
            }
            for name, arr in model.params.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def load_model(path) -> TaggerModel:
    """Load a format-2 checkpoint written by `save_model`.

    Every field is checked: the version, the config and vocab, and each
    tensor's shape, dtype and strict base64 payload, whose decoded length
    must be exactly 8 bytes per element. The tensors must then match the
    shapes the config and vocab imply and be finite. Any failure raises
    `StructuralError` prefixed with ``path``. Other format versions are
    not read; a model is regenerated by retraining from its manifest.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as err:  # also covers non-UTF-8 bytes
            raise StructuralError(f"{path}: not a JSON checkpoint: {err}") from None
    try:
        return _model_from_payload(payload)
    except StructuralError as err:
        raise StructuralError(f"{path}: {err}") from None


def _model_from_payload(payload) -> TaggerModel:
    if not isinstance(payload, dict):
        raise StructuralError("not a JSON checkpoint object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise StructuralError(
            f"unsupported checkpoint version {version!r} "
            f"(this slukit reads {CHECKPOINT_VERSION}; retrain)"
        )
    try:
        config = TrainConfig(**payload["config"])
        vocab = Vocab(
            tokens=tuple(payload["vocab"]["tokens"]),
            slot_tags=tuple(payload["vocab"]["slot_tags"]),
            intents=tuple(payload["vocab"]["intents"]),
        )
        raw = payload["params"]
    except KeyError as err:
        raise StructuralError(f"checkpoint missing field {err}") from None
    except TypeError as err:
        raise StructuralError(f"bad checkpoint config: {err}") from None
    if not isinstance(raw, dict):
        raise StructuralError("checkpoint params are not an object")
    params = {name: _decode_tensor(name, entry) for name, entry in raw.items()}
    validate_params(params, config, vocab)
    return TaggerModel(config, vocab, params)


def _decode_tensor(name: str, entry) -> np.ndarray:
    """One checkpoint tensor as an owned, writable float64 array."""
    if not isinstance(entry, dict):
        raise StructuralError(f"parameter {name}: not an object")
    for field in ("shape", "dtype", "data"):
        if field not in entry:
            raise StructuralError(f"parameter {name}: missing field {field!r}")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise StructuralError(f"parameter {name}: shape must be a list of non-negative integers")
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
            f"parameter {name}: {len(raw)} data bytes, expected {expected} "
            f"for shape {tuple(shape)}"
        )
    try:
        arr = np.frombuffer(raw, dtype=TENSOR_DTYPE).reshape(shape)
    except ValueError as err:  # an empty tensor can declare dimensions numpy cannot hold
        raise StructuralError(f"parameter {name}: {err}") from None
    # astype copies, so the array owns writable memory rather than viewing the bytes.
    return arr.astype(np.float64)
