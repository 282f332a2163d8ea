"""Masked flow-matching trunk and its Euler sampler.

The model regresses the straight-path velocity x1 - x0 on masked frames.
Each residual block modulates per-frame features with a learned time
embedding and the frozen identity embedding of the prompt; the hidden
state after every block is exposed as a tap so later stages can attach
per-layer supervision and representation probes. The trunk runs on the
valid frames only, as (N, hidden) rows, behind a padded interface.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, asdict
from functools import partial
from itertools import islice

import numpy as np

from . import tensor as tz
from .errors import ConfigurationError, DomainError, ShapeMismatchError
from .serialize import load_strict, save_checkpoint
from .synth import PAD_TOKEN
from .tensor import Tensor


@dataclass(frozen=True)
class FlowConfig:
    """The flow model's sizes and initialization seed.

    ``n_blocks`` is also the alignment gate's output width. OpenBLAS's gemm
    rounds a width 1-3 past a multiple of 8 differently in products of four
    or more rows, so with ``n_blocks`` 9 to 11 a one-point heatmap may differ
    in its last bits from the same row in a batch.
    """

    feat_dim: int = 24
    hidden: int = 64
    n_blocks: int = 12
    vocab: int = 32
    token_embed_dim: int = 16
    cond_dim: int = 32
    time_embed_dim: int = 64
    frames_per_token: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.n_blocks < 1:
            raise ConfigurationError("hidden and n_blocks must be positive")
        if self.time_embed_dim % 2:
            raise ConfigurationError("time_embed_dim must be even")


def sinusoidal_features(t: np.ndarray, dim: int) -> np.ndarray:
    """Fixed sin/cos features of scalar times in [0, 1], shape (B, dim)."""
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = np.asarray(t, dtype=np.float64).reshape(-1, 1) * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class Taps(Sequence):
    """The hidden state after every block, as (N, hidden) rows of the valid frames.

    ``taps[i]`` builds block i's padded (B, T, hidden) Tensor, zero on
    padding, at each access; ``item_means()`` pools every block's rows per
    item without building it. Under grad the rows are nodes of the graph,
    which keeps them anyway, and so are kept here too. Without grad only
    the trunk's input rows are kept, and each read reruns the blocks on
    them, dropping each block's rows once the next block has run: the same
    operations on the same arrays give the same bits, but from the
    parameters as they stand when read, not as they stood at the forward.
    """

    def __init__(self, model: "FlowModel", h: Tensor, et: Tensor, ec: Tensor, seg, frames, lead):
        self.seg, self.frames, self.lead = seg, frames, lead
        self._n = model.n_taps
        self._blocks = partial(model._blocks, h, et, ec, seg)
        self._kept = list(self._blocks()) if h.requires_grad else None

    def __len__(self) -> int:
        return self._n

    def _each(self):
        """Each block's (N, hidden) rows in turn."""
        return iter(self._kept) if self._kept is not None else self._blocks()

    def rows(self, i: int) -> Tensor:
        """Block i's (N, hidden) rows."""
        i = range(self._n)[i]  # IndexError past the end ends Sequence iteration
        return next(islice(self._each(), i, None))

    def __getitem__(self, i) -> Tensor:
        return tz.scatter_rows(self.rows(i), self.frames, self.lead)

    def __iter__(self):
        return (tz.scatter_rows(r, self.frames, self.lead) for r in self._each())

    def item_means(self) -> list:
        """Each block's (B, hidden) mean over its items' frames, with gradient."""
        return [tz.segment_mean(r, self.seg) for r in self._each()]


class FlowModel:
    """Per-frame residual MLP stack with time and identity modulation."""

    def __init__(self, config: FlowConfig):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 40427]))
        H, D = config.hidden, config.feat_dim

        def init(shape, fan_in, scale=1.0):
            return Tensor(
                rng.normal(0.0, scale / np.sqrt(fan_in), size=shape), requires_grad=True
            )

        p = {}
        p["in_w"] = init((D + 1, H), D + 1)  # +1 mask channel
        p["in_b"] = Tensor(np.zeros(H), requires_grad=True)
        p["tok_table"] = init((config.vocab, config.token_embed_dim), 1.0)
        p["tok_w"] = init((config.token_embed_dim, H), config.token_embed_dim)
        p["cond_w"] = init((config.cond_dim, H), config.cond_dim)
        p["cond_b"] = Tensor(np.zeros(H), requires_grad=True)
        p["time_w1"] = init((config.time_embed_dim, H), config.time_embed_dim)
        p["time_b1"] = Tensor(np.zeros(H), requires_grad=True)
        p["time_w2"] = init((H, H), H)
        p["time_b2"] = Tensor(np.zeros(H), requires_grad=True)
        for i in range(config.n_blocks):
            p[f"blk{i}_w1"] = init((H, H), H)
            p[f"blk{i}_b1"] = Tensor(np.zeros(H), requires_grad=True)
            p[f"blk{i}_ut"] = init((H, H), H)
            p[f"blk{i}_uc"] = init((H, H), H)
            # small-scale residual branch keeps the initial stack near identity
            p[f"blk{i}_w2"] = init((H, H), H, scale=0.1)
            p[f"blk{i}_b2"] = Tensor(np.zeros(H), requires_grad=True)
        p["out_w"] = init((H, D), H, scale=0.1)
        p["out_b"] = Tensor(np.zeros(D), requires_grad=True)
        self.params = p

    @property
    def n_taps(self) -> int:
        return self.config.n_blocks

    def _frame_token_ids(self, cond_tokens: np.ndarray, T: int, valid_len) -> np.ndarray:
        """Token id per frame, PAD beyond each item's valid frames."""
        fpt = self.config.frames_per_token
        Tc = cond_tokens.shape[1]
        cols = np.minimum(np.arange(T) // fpt, Tc - 1)
        ids = cond_tokens[:, cols]
        beyond = np.arange(T)[None, :] >= np.asarray(valid_len)[:, None]
        return np.where(beyond, PAD_TOKEN, ids)

    def forward(self, x_t, t, cond, cond_tokens, mask, valid_len):
        """Velocity field and per-block taps.

        Args:
            x_t: (B, T, feat_dim) current state, zeros on padding.
            t: (B,) times in [0, 1].
            cond: (B, cond_dim) frozen identity embeddings.
            cond_tokens: (B, T_c) ints, PAD_TOKEN after each item's tokens.
            mask: (B, T) 1 on frames being generated.
            valid_len: (B,) frames per item.

        Returns:
            (v, taps) where v is a (B, T, feat_dim) tensor, zero on padding,
            and taps is a ``Taps`` of the hidden states after every block.

        Other shapes raise ``ShapeMismatchError``, and a valid_len outside
        [0, T] raises ``DomainError``.

        The trunk is per-frame, so it runs on the valid frames only: they
        are gathered once into rows, item after item, and each row's value
        equals that frame's in a run over the whole padded batch bit for bit.
        Under ``no_grad`` each block's rows are dropped once the next block
        has run, and the taps rerun the blocks when read (``Taps``).
        """
        taps = self.taps(x_t, t, cond, cond_tokens, mask, valid_len)
        p = self.params
        v = tz.affine(taps.rows(-1), p["out_w"], p["out_b"])
        return tz.scatter_rows(v, taps.frames, taps.lead), taps

    def taps(self, x_t, t, cond, cond_tokens, mask, valid_len) -> Taps:
        """``forward``'s taps without the velocity.

        Under ``no_grad`` no block has run yet when this returns: reading
        the taps runs them, so ``taps(...).item_means()`` pools each
        block's rows as the block returns and at most two blocks' rows are
        alive at once.
        """
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.ndim != 3:
            raise ShapeMismatchError(f"x_t must be (B, T, feat_dim), got {x_t.shape}")
        B, T, D = x_t.shape
        if D != self.config.feat_dim:
            raise ShapeMismatchError(f"feat_dim {D} != {self.config.feat_dim}")
        if np.asarray(cond).shape != (B, self.config.cond_dim):
            raise ShapeMismatchError(
                f"cond must be (B, {self.config.cond_dim}), got {np.asarray(cond).shape}"
            )
        mask, cond_tokens = np.asarray(mask, dtype=np.float64), np.asarray(cond_tokens)
        valid_len = np.asarray(valid_len)
        if (mask.shape != (B, T) or valid_len.shape != (B,) or np.shape(t) != (B,)
                or cond_tokens.ndim != 2 or len(cond_tokens) != B):
            raise ShapeMismatchError(
                f"expected a {(B, T)} mask, ({B},) valid_len and t, and {B}-row 2-D cond_tokens;"
                f" got {mask.shape}, {valid_len.shape}, {np.shape(t)} and {cond_tokens.shape}"
            )
        if np.any(valid_len < 0) or np.any(valid_len > T):
            raise DomainError(f"valid_len must lie in [0, {T}], got {valid_len}")
        p = self.params
        valid = np.arange(T)[None, :] < valid_len[:, None]
        frames = np.flatnonzero(valid)
        seg = tz.Segments(valid.sum(axis=1))

        xin = np.concatenate([x_t.reshape(-1, D)[frames], mask.reshape(-1, 1)[frames]], axis=1)
        h = tz.affine(Tensor(xin), p["in_w"], p["in_b"])

        ids = self._frame_token_ids(cond_tokens, T, valid_len).reshape(-1)[frames]
        live = (ids != PAD_TOKEN).astype(np.float64)[:, None]
        tok = tz.embedding(p["tok_table"], np.maximum(ids, 0))
        tok = tz.affine(tok * Tensor(live), p["tok_w"], Tensor(np.zeros(self.config.hidden)))
        h = h + tok

        tfeat = Tensor(sinusoidal_features(t, self.config.time_embed_dim))
        et = tz.affine(
            tz.tanh(tz.affine(tfeat, p["time_w1"], p["time_b1"])), p["time_w2"], p["time_b2"]
        )
        ec = tz.affine(Tensor(np.asarray(cond, dtype=np.float64)), p["cond_w"], p["cond_b"])
        return Taps(self, h, et, ec, seg, frames, (B, T))

    def _blocks(self, h, et, ec, seg):
        """Yields the rows after each block in turn, keeping none of them."""
        p = self.params
        for i in range(self.config.n_blocks):
            name = f"blk{i}"
            z = (et @ p[f"{name}_ut"]) + (ec @ p[f"{name}_uc"])
            h = tz.residual_block(
                h, p[f"{name}_w1"], p[f"{name}_b1"], z, p[f"{name}_w2"], p[f"{name}_b2"], seg
            )
            yield h

    def save(self, path) -> str:
        meta = {"kind": "flow-model", "config": asdict(self.config)}
        return save_checkpoint(self.params, path, meta)

    @staticmethod
    def load(path) -> "FlowModel":
        model, _ = load_strict(path, "flow-model", FlowConfig(), lambda cfg, meta: FlowModel(cfg))
        return model


# -- training-path construction ------------------------------------------------


def make_interpolant(x1: np.ndarray, mask: np.ndarray, t: np.ndarray, noise: np.ndarray):
    """Straight-path state x_t and its regression target.

    Masked frames carry (1-t) x0 + t x1 with x0 = noise; unmasked frames
    carry the clean x1 so the model always sees the true context.
    Returns (x_t, target) where target = x1 - x0 everywhere (only masked
    entries are ever scored).
    """
    if x1.shape != noise.shape:
        raise ShapeMismatchError(f"noise shape {noise.shape} != x1 {x1.shape}")
    m = mask[..., None]
    tt = t[:, None, None]
    x_t = m * ((1.0 - tt) * noise + tt * x1) + (1.0 - m) * x1
    return x_t, x1 - noise


def cfm_loss(v: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared velocity error over masked frame entries.

    sum(mask * ||v - target||^2) / (sum(mask) * feat_dim), so the scale
    does not depend on how many frames a batch masks.
    """
    denom = float(mask.sum()) * v.shape[-1]
    if denom <= 0:
        raise ShapeMismatchError("cfm_loss needs at least one masked frame")
    r = v - Tensor(target)
    sq = (r * r) * Tensor(mask[..., None])
    return sq.sum() * (1.0 / denom)


# -- sampling -------------------------------------------------------------------

# Items per network evaluation in ``sample`` and ``harness.layer_representations``,
# so the rows of the twelve taps of one evaluation stay small.
_CHUNK = 50


def _length_chunks(lengths) -> list[tuple[np.ndarray, int]]:
    """(items, frames) of each chunk: item indices in ascending order of length
    (ties by index), _CHUNK at a time, and the longest of their lengths."""
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    chunks = np.split(order, range(_CHUNK, len(order), _CHUNK))
    return [(idx, int(lengths[idx].max())) for idx in chunks]


def sample(model: FlowModel, batch, n_steps: int, seed):
    """Integrate the learned field with Euler steps from noise to frames.

    Masked frames start at standard normal noise, prompt frames at their
    true values, and the prompt is reimposed after every step.
    Returns a (B, T, feat_dim) array with padding zeroed.

    The sampler relies on the trunk being per-frame: a frame's velocity
    depends only on its own state, mask bit and token id, and on its
    item's t and cond, and only masked frames keep theirs. So the network
    runs only on each item's window, from its first masked frame (rounded
    down to a token boundary) to one past its last, with the item's tokens
    shifted to match, in chunks of items sorted by window length. Each
    window is passed as the item's valid frames, so ``forward`` runs its
    rows and nothing of the chunk's padding. The noise is drawn item by
    item, one (T, feat_dim) draw each in item order, which continues one
    stream and so gives the values of one (B, T, feat_dim) draw over the
    padded batch; only each item's window of it is kept. So the result
    equals the Euler loop over the full padded batch bit for bit. A mask
    must lie inside each item's valid frames (``DomainError`` otherwise),
    so every window frame is valid, and ``forward``'s velocity is zero
    past each window. Only ``model.forward`` and ``model.config`` are used.
    """
    if n_steps < 1:
        raise ConfigurationError("n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    x1 = np.asarray(batch.x1, dtype=np.float64)
    mask = np.asarray(batch.mask, dtype=np.float64)
    tokens = np.asarray(batch.cond_tokens)
    cond = np.asarray(batch.cond)
    B, T, D = x1.shape
    Tc = tokens.shape[1]
    fpt = model.config.frames_per_token
    valid = np.arange(T)[None, :] < batch.valid_len[:, None]
    masked = mask != 0
    if np.any(masked & ~valid):
        raise DomainError("the mask covers padding frames")

    start = np.argmax(masked, axis=1) // fpt * fpt
    stop = T - np.argmax(masked[:, ::-1], axis=1)
    width = np.where(masked.any(axis=1), stop - start, 0)
    # the padded batch's (B, T, D) noise, drawn item by item in the same order;
    # only each item's window of it is kept
    noise = [rng.standard_normal((T, D))[s : s + w].copy() for s, w in zip(start, width)]

    # what the last step leaves outside the windows: prompt frames, zero padding
    out = x1 * ((1.0 - mask) * valid)[..., None]
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    for idx, L in _length_chunks(width):
        if not width[idx].any():
            continue
        frames = start[idx, None] + np.arange(L)
        inside = np.arange(L) < width[idx, None]
        # frames past an item's own window carry zeros; their velocities are dropped
        at = (idx[:, None], np.minimum(frames, T - 1))
        m_w = np.where(inside, mask[at], 0.0)
        x1_w = np.where(inside[..., None], x1[at], 0.0)
        tok_w = tokens[idx[:, None], np.minimum(start[idx, None] // fpt + np.arange(Tc), Tc - 1)]
        m = m_w[..., None]
        noise_w = np.zeros((len(idx), L, D))
        noise_w[inside] = np.concatenate([noise[b] for b in idx])
        x = (1.0 - m) * x1_w + m * noise_w
        with tz.no_grad():
            for k in range(n_steps):
                t = np.full(len(idx), ts[k])
                v, _ = model.forward(x, t, cond[idx], tok_w, m_w, width[idx])
                x = x + (ts[k + 1] - ts[k]) * v.data
                x = m * x + (1.0 - m) * x1_w
        i, j = np.nonzero(inside)
        out[idx[i], frames[i, j]] = x[i, j]
    return out
