"""Time-adaptive per-layer identity supervision.

Every trunk tap is pooled over frames, passed through its own small
adapter, and pulled toward the frozen identity embedding by cosine
distance. A learned gate over flow time decides how much each layer is
supervised at each t; an entropy bonus keeps the gate from collapsing
onto a single layer early. Three modes:

    layer_time: learned time-dependent gate (the full method)
    layer_only: fixed uniform gate over layers
    baseline:   auxiliary loss disabled entirely
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tz
from .errors import ConfigurationError, ShapeMismatchError
from .flow import Taps, sinusoidal_features
from .serialize import load_strict, save_checkpoint
from .tensor import Tensor

MODES = ("baseline", "layer_only", "layer_time")


@dataclass(frozen=True)
class AlignConfig:
    mode: str = "layer_time"
    lam: float = 0.5  # weight of the auxiliary loss in the total
    alpha: float = 0.01  # entropy bonus on the time gate
    adapter_hidden: int = 64
    time_hidden: int = 64
    time_embed_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}")
        if self.lam < 0 or self.alpha < 0:
            raise ConfigurationError("lam and alpha must be >= 0")
        if self.time_embed_dim % 2:
            raise ConfigurationError("time_embed_dim must be even")


class AlignmentHead:
    """Per-layer adapters plus the softmax gate over layers."""

    def __init__(self, config: AlignConfig, n_layers: int, tap_dim: int, embed_dim: int):
        if n_layers < 1:
            raise ConfigurationError("need at least one supervised layer")
        self.config = config
        self.n_layers = n_layers
        self.tap_dim = tap_dim
        self.embed_dim = embed_dim
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 55903]))
        Ha, Ht = config.adapter_hidden, config.time_hidden

        def init(shape, fan_in):
            return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape), requires_grad=True)

        p = {}
        for i in range(n_layers):
            p[f"ad{i}_w1"] = init((tap_dim, Ha), tap_dim)
            p[f"ad{i}_b1"] = Tensor(np.zeros(Ha), requires_grad=True)
            p[f"ad{i}_w2"] = init((Ha, embed_dim), Ha)
            p[f"ad{i}_b2"] = Tensor(np.zeros(embed_dim), requires_grad=True)
        p["tg_w1"] = init((config.time_embed_dim, Ht), config.time_embed_dim)
        p["tg_b1"] = Tensor(np.zeros(Ht), requires_grad=True)
        # zero-init last layer: the gate starts exactly uniform
        p["tg_w2"] = Tensor(np.zeros((Ht, n_layers)), requires_grad=True)
        p["tg_b2"] = Tensor(np.zeros(n_layers), requires_grad=True)
        self.params = p

    def layer_distances(self, taps, valid_len, e_sa: np.ndarray) -> Tensor:
        """Cosine distances of adapted pooled taps to the identity target.

        Returns a (B, n_layers) tensor; column i is 1 - cos(e_sa, adapter_i
        applied to the frame-pooled tap of layer i). ``taps`` is the model's
        ``Taps``, pooled from its rows, or a list of padded (B, T, D) tensors.
        """
        if len(taps) != self.n_layers:
            raise ShapeMismatchError(
                f"{len(taps)} taps for a head built for {self.n_layers}"
            )
        e_sa = np.asarray(e_sa, dtype=np.float64)
        if e_sa.ndim != 2 or e_sa.shape[1] != self.embed_dim:
            raise ShapeMismatchError(
                f"identity target must be (B, {self.embed_dim}), got {e_sa.shape}"
            )
        if isinstance(taps, Taps):
            if not np.array_equal(taps.seg.counts, np.asarray(valid_len)):
                raise ShapeMismatchError("valid_len disagrees with the frames the taps hold")
            pooled_taps = taps.item_means()
        else:
            pooled_taps = [tz.mean_pool_time(tap, valid_len) for tap in taps]
        target = Tensor(e_sa)
        p = self.params
        cols = []
        for i, pooled in enumerate(pooled_taps):
            h = tz.tanh(tz.affine(pooled, p[f"ad{i}_w1"], p[f"ad{i}_b1"]))
            proj = tz.affine(h, p[f"ad{i}_w2"], p[f"ad{i}_b2"])
            cols.append(1.0 - tz.cosine_similarity(target, proj))
        return tz.stack_last(cols)

    def time_weights(self, t) -> Tensor:
        """Softmax gate over layers as a function of flow time, (B, n_layers)."""
        p = self.params
        feats = Tensor(sinusoidal_features(t, self.config.time_embed_dim))
        h = tz.tanh(tz.affine(feats, p["tg_w1"], p["tg_b1"]))
        return tz.softmax(tz.affine(h, p["tg_w2"], p["tg_b2"]))

    def loss(self, taps, valid_len, e_sa, t):
        """Auxiliary loss for one batch.

        Returns (loss, parts): loss is a scalar tensor. layer_time gates
        the per-layer distances with the learned softmax and subtracts
        alpha times its entropy; layer_only averages the distances
        uniformly with no entropy term; baseline is rejected here because
        callers must skip the auxiliary pass entirely.
        """
        mode = self.config.mode
        if mode == "baseline":
            raise ConfigurationError("baseline mode has no auxiliary loss")
        d = self.layer_distances(taps, valid_len, e_sa)  # (B, N)
        if mode == "layer_only":
            loss = d.mean()
            parts = {"sa_weighted": float(loss.data), "gate_entropy": float(np.log(self.n_layers))}
            return loss, parts
        w = self.time_weights(t)  # (B, N)
        weighted = (w * d).sum(axis=1).mean()
        ent = tz.entropy(w).mean()
        loss = weighted - self.config.alpha * ent
        parts = {"sa_weighted": float(weighted.data), "gate_entropy": float(ent.data)}
        return loss, parts

    def heatmap(self, t_grid) -> np.ndarray:
        """Gate weights on a grid of times: rows t, columns layers."""
        with tz.no_grad():
            return self.time_weights(np.asarray(t_grid, dtype=np.float64)).data

    def save(self, path) -> str:
        meta = {
            "kind": "alignment-head",
            "config": asdict(self.config),
            "n_layers": self.n_layers,
            "tap_dim": self.tap_dim,
            "embed_dim": self.embed_dim,
        }
        return save_checkpoint(self.params, path, meta)

    @staticmethod
    def load(path) -> "AlignmentHead":
        head, _ = load_strict(
            path,
            "alignment-head",
            AlignConfig(),
            lambda cfg, meta: AlignmentHead(
                cfg, meta["n_layers"], meta["tap_dim"], meta["embed_dim"]
            ),
        )
        return head
