"""Identity encoders: classify speakers, then freeze and embed.

An encoder is a small MLP over mean-pooled frames trained with
cross-entropy against speaker labels. After training it is frozen and
used only through ``embed``, which returns unit-norm vectors. Two
variants with different widths, embedding sizes, and seeds stand in for
independently trained reference encoders; agreement between them is what
the evaluation leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tz
from .errors import ConfigurationError, IntegrityError, ShapeMismatchError
from .optim import AdamW, cosine_warmup_lr
from .serialize import load_strict, params_hash, save_checkpoint
from .tensor import Tensor


@dataclass
class EncoderConfig:
    feat_dim: int = 24
    hidden: int = 64
    embed_dim: int = 32
    seed: int = 11
    steps: int = 1200
    batch_size: int = 256
    lr: float = 3e-3
    weight_decay: float = 1e-4
    holdout_frac: float = 0.1
    name: str = "encoder-a"

    @staticmethod
    def variant_a() -> "EncoderConfig":
        return EncoderConfig()

    @staticmethod
    def variant_b() -> "EncoderConfig":
        return EncoderConfig(hidden=96, embed_dim=24, seed=23, name="encoder-b")


class SpeakerEncoder:
    """Mean-pool frames, two affine layers, unit-norm embedding, linear head."""

    def __init__(self, config: EncoderConfig, n_classes: int, seed=None):
        if n_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        self.config = config
        self.n_classes = n_classes
        self.frozen = False
        self.frozen_hash = None
        self.dataset_hash = None  # manifest the encoder was trained on, when known
        rng = np.random.default_rng(config.seed if seed is None else seed)
        d, h, e = config.feat_dim, config.hidden, config.embed_dim

        def init(shape, fan_in):
            return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape), requires_grad=True)

        self.params = {
            "w1": init((d, h), d),
            "b1": Tensor(np.zeros(h), requires_grad=True),
            "w2": init((h, e), h),
            "b2": Tensor(np.zeros(e), requires_grad=True),
            "head_w": init((e, n_classes), e),
            "head_b": Tensor(np.zeros(n_classes), requires_grad=True),
        }

    def _embed_graph(self, pooled: Tensor) -> Tensor:
        h = tz.tanh(tz.affine(pooled, self.params["w1"], self.params["b1"]))
        e = tz.affine(h, self.params["w2"], self.params["b2"])
        return tz.l2_normalize(e)

    def _pool(self, features: np.ndarray, valid_len) -> Tensor:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 3 or features.shape[-1] != self.config.feat_dim:
            raise ShapeMismatchError(
                f"expected (B, T, {self.config.feat_dim}) features, got {features.shape}"
            )
        return tz.mean_pool_time(Tensor(features), np.asarray(valid_len))

    def embed(self, features: np.ndarray, valid_len) -> Tensor:
        """Unit-norm identity embedding of shape (B, embed_dim). No graph."""
        with tz.no_grad():
            return self._embed_graph(self._pool(features, valid_len))

    def logits(self, pooled: Tensor) -> Tensor:
        e = self._embed_graph(pooled)
        return tz.affine(e, self.params["head_w"], self.params["head_b"])

    def freeze(self):
        self.frozen = True
        self.frozen_hash = params_hash(self.params)

    def check_frozen(self):
        if not self.frozen:
            raise IntegrityError("encoder is not frozen")
        now = params_hash(self.params)
        if now != self.frozen_hash:
            raise IntegrityError("frozen encoder parameters changed")

    def save(self, path) -> str:
        meta = {
            "kind": "speaker-encoder",
            "config": asdict(self.config),
            "n_classes": self.n_classes,
            "frozen": self.frozen,
            "frozen_hash": self.frozen_hash,
            "dataset_hash": self.dataset_hash,
        }
        return save_checkpoint(self.params, path, meta)

    @staticmethod
    def load(path) -> "SpeakerEncoder":
        enc, meta = load_strict(
            path,
            "speaker-encoder",
            EncoderConfig,
            lambda cfg, meta: SpeakerEncoder(cfg, meta["n_classes"]),
        )
        if meta.get("frozen"):
            enc.freeze()
            if enc.frozen_hash != meta.get("frozen_hash"):
                raise IntegrityError(
                    f"frozen encoder checkpoint {path} does not match its frozen hash"
                )
        enc.dataset_hash = meta.get("dataset_hash")
        return enc


def similarity_score(
    encoder: SpeakerEncoder,
    generated: np.ndarray,
    generated_len,
    prompts: np.ndarray,
    prompt_len,
) -> float:
    """Mean cosine similarity between generated and prompt identities.

    Both inputs are padded (B, T, feat_dim) stacks with per-item valid
    lengths; embeddings are unit norm, so the dot product is the cosine.
    """
    e_gen = np.asarray(encoder.embed(generated, generated_len).data)
    e_ref = np.asarray(encoder.embed(prompts, prompt_len).data)
    return float(np.mean(np.sum(e_gen * e_ref, axis=1)))


def train_encoder(dataset, config: EncoderConfig):
    """Train on the train-speaker split and freeze. Returns (encoder, report).

    Labels are speaker ids, which for the train split are 0..S_train-1.
    A trailing slice of utterances is held out for the accuracy report.
    """
    n_classes = len(dataset.speakers_train)
    utts = dataset.train
    n_hold = max(1, int(round(config.holdout_frac * len(utts))))
    if n_hold >= len(utts):
        raise ConfigurationError("holdout fraction leaves no training data")
    fit, hold = utts[:-n_hold], utts[-n_hold:]

    enc = SpeakerEncoder(config, n_classes)

    def pool_all(group):
        # variable lengths: pool one by one, cheap at these sizes
        return np.stack([u.features[: u.valid_len].mean(axis=0) for u in group])

    x_fit = pool_all(fit)
    y_fit = np.array([u.speaker_id for u in fit], dtype=np.int64)
    x_hold = pool_all(hold)
    y_hold = np.array([u.speaker_id for u in hold], dtype=np.int64)
    if np.any(y_fit >= n_classes) or np.any(y_hold >= n_classes):
        raise ConfigurationError("speaker id outside the label space")

    opt = AdamW(enc.params, lr=config.lr, weight_decay=config.weight_decay)
    order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 977]))
    losses = []
    for step in range(config.steps):
        idx = order_rng.integers(0, len(fit), size=min(config.batch_size, len(fit)))
        pooled = Tensor(x_fit[idx])
        loss = tz.cross_entropy(enc.logits(pooled), y_fit[idx])
        opt.zero_grad()
        loss.backward()
        opt.step(lr=cosine_warmup_lr(step, config.steps, config.lr, config.lr * 0.05, 20))
        losses.append(float(loss.data))

    with tz.no_grad():
        logits = enc.logits(Tensor(x_hold)).data
    acc = float(np.mean(np.argmax(logits, axis=1) == y_hold))
    enc.freeze()
    report = {
        "holdout_accuracy": acc,
        "final_loss": losses[-1],
        "first_loss": losses[0],
        "steps": config.steps,
        "n_fit": len(fit),
        "n_holdout": len(hold),
        "params_hash": enc.frozen_hash,
    }
    return enc, report
