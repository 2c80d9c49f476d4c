"""Training hyperparameters, kept apart from the numpy engine that uses them.

``cli`` builds the ``train`` flags from these fields, and importing this
module loads no numpy, so commands that never train start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import StructuralError


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the joint trainer.

    embed_dim/hidden_dim size the encoder; the loss weights multiply each
    task's mean cross-entropy in the summed objective; mask_rate is the
    fraction of auxiliary-text positions selected for the masked-token
    task; alpha shapes the task sampling distribution. batches_per_epoch
    defaults to ceil(total instances / batch_size) when left at None.

    Every value is checked, so a config that trains also loads from its
    checkpoint. A field with a float default takes an int or a float; an
    int field takes an int, and batches_per_epoch may also be None; no
    field takes a bool. Then each value must be finite and in range.
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
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, float):  # cli types each train flag by this rule
                if type(value) not in (int, float):
                    raise StructuralError(f"{field.name} must be a number, got {value!r}")
            elif type(value) is not int and not (value is None and field.default is None):
                raise StructuralError(f"{field.name} must be an integer, got {value!r}")
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
