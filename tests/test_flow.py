"""Flow trunk: gradients through the full stack, interpolant, sampler."""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowalign import tensor as tz
from flowalign.errors import ConfigurationError, DomainError, ShapeMismatchError
from flowalign.flow import (
    _CHUNK,
    FlowConfig,
    FlowModel,
    Taps,
    cfm_loss,
    make_interpolant,
    sample,
    sinusoidal_features,
)
from flowalign.harness import layer_representations
from flowalign.synth import PAD_TOKEN
from flowalign.tensor import Tensor, check_gradients

TINY = FlowConfig(
    feat_dim=4,
    hidden=6,
    n_blocks=2,
    vocab=5,
    token_embed_dim=3,
    cond_dim=4,
    time_embed_dim=8,
    frames_per_token=2,
    seed=5,
)


def tiny_inputs(seed=0, B=2, T=6):
    rng = np.random.default_rng(seed)
    x_t = rng.normal(size=(B, T, TINY.feat_dim))
    t = rng.uniform(0, 1, size=B)
    cond = rng.normal(size=(B, TINY.cond_dim))
    cond_tokens = np.array([[0, 2, 4], [1, 3, PAD_TOKEN]])
    mask = np.zeros((B, T))
    mask[0, 2:5] = 1
    mask[1, 0:2] = 1
    valid_len = np.array([6, 4])
    x_t[1, 4:] = 0.0
    return x_t, t, cond, cond_tokens, mask, valid_len


def padded_forward(model, x_t, t, cond, cond_tokens, mask, valid_len):
    """The trunk on the whole padded (B, T) batch, composed of generic ops.

    The reference for ``FlowModel.forward``, which runs on the valid frames
    only: (v, taps) with every frame computed, padding included.
    """
    p, cfg = model.params, model.config
    x_t = np.asarray(x_t, dtype=np.float64)
    B, T, _ = x_t.shape
    xin = Tensor(np.concatenate([x_t, np.asarray(mask, dtype=np.float64)[..., None]], axis=-1))
    h = tz.affine(xin, p["in_w"], p["in_b"])
    ids = model._frame_token_ids(np.asarray(cond_tokens), T, valid_len)
    live = (ids != PAD_TOKEN).astype(np.float64)[..., None]
    tok = tz.embedding(p["tok_table"], np.maximum(ids, 0))
    h = h + tz.affine(tok * Tensor(live), p["tok_w"], Tensor(np.zeros(cfg.hidden)))
    tfeat = Tensor(sinusoidal_features(t, cfg.time_embed_dim))
    et = tz.affine(tz.tanh(tz.affine(tfeat, p["time_w1"], p["time_b1"])), p["time_w2"], p["time_b2"])
    ec = tz.affine(Tensor(np.asarray(cond, dtype=np.float64)), p["cond_w"], p["cond_b"])
    taps = []
    for i in range(cfg.n_blocks):
        z = (et @ p[f"blk{i}_ut"]) + (ec @ p[f"blk{i}_uc"])
        pre = tz.affine(h, p[f"blk{i}_w1"], p[f"blk{i}_b1"]) + z.reshape(B, 1, cfg.hidden)
        h = h + tz.affine(tz.tanh(pre), p[f"blk{i}_w2"], p[f"blk{i}_b2"])
        taps.append(h)
    return tz.affine(h, p["out_w"], p["out_b"]), taps


class SimpleBatch:
    def __init__(self, x1, cond, cond_tokens, mask, valid_len):
        self.x1 = x1
        self.cond = cond
        self.cond_tokens = cond_tokens
        self.mask = mask
        self.valid_len = valid_len


class TestForward:
    def test_shapes_and_tap_count(self):
        model = FlowModel(TINY)
        x_t, t, cond, tokens, mask, lens = tiny_inputs()
        v, taps = model.forward(x_t, t, cond, tokens, mask, lens)
        assert v.shape == x_t.shape
        assert len(taps) == TINY.n_blocks == model.n_taps
        assert isinstance(taps, Taps)
        for tap in taps:
            assert tap.shape == (2, 6, TINY.hidden)
        assert [m.shape for m in taps.item_means()] == [(2, TINY.hidden)] * TINY.n_blocks

    def test_frame_token_alignment(self):
        model = FlowModel(TINY)
        tokens = np.array([[3, 1, PAD_TOKEN]])
        ids = model._frame_token_ids(tokens, T=6, valid_len=np.array([5]))
        # two frames per token, padding after frame 4
        np.testing.assert_array_equal(ids[0], [3, 3, 1, 1, PAD_TOKEN, PAD_TOKEN])

    def test_condition_shape_guard(self):
        model = FlowModel(TINY)
        x_t, t, cond, tokens, mask, lens = tiny_inputs()
        with pytest.raises(ShapeMismatchError):
            model.forward(x_t, t, cond[:, :2], tokens, mask, lens)
        with pytest.raises(ShapeMismatchError):
            model.forward(x_t[..., :3], t, cond, tokens, mask, lens)
        args = dict(x_t=x_t, t=t, cond=cond, cond_tokens=tokens, mask=mask, valid_len=lens)
        B, T = mask.shape
        malformed = [
            {"x_t": x_t[0]},
            {"mask": np.concatenate([mask, np.zeros((B, 1))], axis=1)},
            {"mask": mask.T},
            {"cond_tokens": tokens[:1]},
            {"cond_tokens": tokens[:, 0]},
            {"valid_len": lens[:, None]},
            {"t": t[:1]},
        ]
        for bad in malformed:
            with pytest.raises(ShapeMismatchError):
                model.forward(**{**args, **bad})
        for bad_lens in (np.array([9, 4]), np.array([6, -1])):
            with pytest.raises(DomainError):
                model.forward(x_t, t, cond, tokens, mask, bad_lens)

    def test_determinism(self):
        m1 = FlowModel(TINY)
        m2 = FlowModel(TINY)
        x_t, t, cond, tokens, mask, lens = tiny_inputs()
        v1, _ = m1.forward(x_t, t, cond, tokens, mask, lens)
        v2, _ = m2.forward(x_t, t, cond, tokens, mask, lens)
        assert np.array_equal(v1.data, v2.data)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FlowConfig(n_blocks=0).validate()
        with pytest.raises(ConfigurationError):
            FlowConfig(time_embed_dim=7).validate()


class TestGradientsThroughModel:
    """Finite differences through the whole trunk, one parameter at a time."""

    PARAMS = ["in_w", "tok_table", "cond_w", "time_w1", "blk0_w1", "blk0_ut", "blk1_w2", "out_w", "out_b"]

    def test_selected_parameters(self):
        model = FlowModel(TINY)
        x_t, t, cond, tokens, mask, lens = tiny_inputs()
        rng = np.random.default_rng(99)
        wv = Tensor(rng.normal(size=x_t.shape))
        wt = Tensor(rng.normal(size=(2, 6, TINY.hidden)))

        def build_loss():
            v, taps = model.forward(x_t, t, cond, tokens, mask, lens)
            # touch both outputs so every path gets exercised
            return (v * wv).sum() + (taps[-1] * wt).sum()

        for name in self.PARAMS:
            orig = model.params[name]

            def f(p, _name=name, _orig=orig):
                model.params[_name] = p
                try:
                    return build_loss()
                finally:
                    model.params[_name] = _orig

            err = check_gradients(f, orig)
            assert err < 1e-6, f"gradient mismatch for {name}: {err}"

    def test_cfm_loss_gradient(self):
        model = FlowModel(TINY)
        x_t, t, cond, tokens, mask, lens = tiny_inputs()
        rng = np.random.default_rng(1)
        target = rng.normal(size=x_t.shape)
        orig = model.params["blk1_w1"]

        def f(p):
            model.params["blk1_w1"] = p
            try:
                v, _ = model.forward(x_t, t, cond, tokens, mask, lens)
                return cfm_loss(v, target, mask)
            finally:
                model.params["blk1_w1"] = orig

        assert check_gradients(f, orig) < 1e-6


class TestInterpolant:
    def test_endpoint_identities(self):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=(2, 5, 3))
        noise = rng.normal(size=(2, 5, 3))
        mask = np.zeros((2, 5))
        mask[:, 1:3] = 1
        x_t0, target = make_interpolant(x1, mask, np.zeros(2), noise)
        x_t1, _ = make_interpolant(x1, mask, np.ones(2), noise)
        m = mask.astype(bool)
        assert np.array_equal(x_t0[m], noise[m])
        assert np.array_equal(x_t1[m], x1[m])
        # context frames always carry the clean signal
        assert np.array_equal(x_t0[~m], x1[~m])
        assert np.array_equal(x_t1[~m], x1[~m])
        assert np.array_equal(target, x1 - noise)

    def test_midpoint_is_average(self):
        x1 = np.ones((1, 2, 2))
        noise = -np.ones((1, 2, 2))
        mask = np.ones((1, 2))
        x_t, _ = make_interpolant(x1, mask, np.array([0.5]), noise)
        np.testing.assert_allclose(x_t, 0.0, atol=1e-15)

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatchError):
            make_interpolant(np.zeros((1, 2, 3)), np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2, 4)))


class TestCfmLoss:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(3, 4, 5))
        target = rng.normal(size=(3, 4, 5))
        mask = (rng.uniform(size=(3, 4)) < 0.5).astype(np.float64)
        mask[0, 0] = 1.0  # keep at least one masked frame
        got = cfm_loss(Tensor(v), target, mask).item()
        want = float(
            (mask[..., None] * (v - target) ** 2).sum() / (mask.sum() * 5)
        )
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_empty_mask_rejected(self):
        with pytest.raises(ShapeMismatchError):
            cfm_loss(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2, 3)), np.zeros((1, 2)))


class ConstantField:
    """Stub with the model interface whose velocity is a fixed vector."""

    def __init__(self, v, feat_dim=4):
        self._v = np.asarray(v, dtype=np.float64)
        self.config = FlowConfig(feat_dim=feat_dim)

    def forward(self, x_t, t, cond, cond_tokens, mask, valid_len):
        out = np.broadcast_to(self._v, x_t.shape).copy()
        return Tensor(out), []


def small_batch(seed=0, B=2, T=6, D=4):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=(B, T, D))
    mask = np.zeros((B, T))
    mask[0, 3:6] = 1
    mask[1, 0:2] = 1
    valid = np.array([6, 4])
    x1[1, 4:] = 0
    cond = rng.normal(size=(B, 4))
    tokens = np.array([[0, 1, 2], [3, 4, PAD_TOKEN]])
    return SimpleBatch(x1, cond, tokens, mask, valid)


class TestSampler:
    def test_constant_field_integrates_exactly(self):
        vconst = np.array([0.5, -1.0, 2.0, 0.0])
        batch = small_batch()
        model = ConstantField(vconst)
        out1 = sample(model, batch, n_steps=1, seed=7)
        out32 = sample(model, batch, n_steps=32, seed=7)
        # Euler on a constant field is exact at any step count
        np.testing.assert_allclose(out1, out32, atol=1e-12)
        m = batch.mask.astype(bool)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(batch.x1.shape)
        np.testing.assert_allclose(out1[m], (x0 + vconst)[m], atol=1e-12)

    def test_prompt_frames_preserved(self):
        batch = small_batch()
        model = FlowModel(TINY)
        out = sample(model, batch, n_steps=4, seed=1)
        keep = (~batch.mask.astype(bool)) & (
            np.arange(6)[None, :] < batch.valid_len[:, None]
        )
        np.testing.assert_array_equal(out[keep], batch.x1[keep])

    def test_padding_stays_zero(self):
        batch = small_batch()
        model = FlowModel(TINY)
        out = sample(model, batch, n_steps=4, seed=2)
        assert np.all(out[1, 4:] == 0)

    def test_determinism_and_seed_sensitivity(self):
        batch = small_batch()
        model = FlowModel(TINY)
        a = sample(model, batch, n_steps=3, seed=5)
        b = sample(model, batch, n_steps=3, seed=5)
        c = sample(model, batch, n_steps=3, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        batch = small_batch()
        model = FlowModel(TINY)
        with pytest.raises(ConfigurationError):
            sample(model, batch, n_steps=0, seed=0)
        batch.mask[1, 4] = 1.0  # item 1 has 4 valid frames
        with pytest.raises(DomainError, match="padding"):
            sample(model, batch, n_steps=1, seed=0)


def reference_sample(model, batch, n_steps, seed):
    """Euler loop over the full padded batch: every frame of every item, every step."""
    rng = np.random.default_rng(seed)
    x1 = np.asarray(batch.x1, dtype=np.float64)
    mask = np.asarray(batch.mask, dtype=np.float64)
    B, T, D = x1.shape
    valid = (np.arange(T)[None, :] < batch.valid_len[:, None]).astype(np.float64)[..., None]
    m = mask[..., None]
    x = (1.0 - m) * x1 + m * rng.standard_normal((B, T, D))
    x *= valid
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    with tz.no_grad():
        for k in range(n_steps):
            t = np.full(B, ts[k])
            v, _ = padded_forward(model, x, t, batch.cond, batch.cond_tokens, mask, batch.valid_len)
            x = x + (ts[k + 1] - ts[k]) * v.data * valid
            x = m * x + (1.0 - m) * x1 * valid
    return x


def random_batch(rng, B, fpt, T_max=19, contiguous=True, extra=0):
    """Random lengths, masks, token counts (some shorter than the frames need) and
    padding, ``extra`` frames past the longest item."""
    lens = rng.integers(1, T_max + 1, size=B)
    T = int(lens.max()) + extra
    x1 = rng.normal(size=(B, T, TINY.feat_dim)) * (np.arange(T)[None, :, None] < lens[:, None, None])
    mask = np.zeros((B, T))
    for b, n in enumerate(lens):
        kind = rng.integers(4)
        if kind == 0:  # one masked frame
            mask[b, rng.integers(n)] = 1.0
        elif kind == 1 or contiguous:
            s = rng.integers(n)
            mask[b, s : rng.integers(s + 1, n + 1)] = 1.0
        else:
            mask[b, :n] = rng.uniform(size=n) < 0.4
    Tc = int(rng.integers(1, -(-T // fpt) + 2))
    tokens = np.full((B, Tc), PAD_TOKEN)
    for b in range(B):
        n_tok = int(rng.integers(1, Tc + 1))
        tokens[b, :n_tok] = rng.integers(0, TINY.vocab, size=n_tok)
    cond = rng.normal(size=(B, TINY.cond_dim))
    return SimpleBatch(x1, cond, tokens, mask, lens)


class ForwardOnly:
    """Exposes only ``forward`` and ``config``, as a timing wrapper around a model may."""

    __slots__ = ("forward", "config")

    def __init__(self, model):
        self.forward = model.forward
        self.config = model.config


class TestPackedForward:
    """``forward`` runs on the valid frames only; each frame's values must not change."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        B=st.sampled_from([1, 1, 2, 3, 7]),
        T_max=st.sampled_from([1, 2, 5, 19]),
        fpt=st.sampled_from([1, 2, 4]),
        extra=st.integers(0, 2),
        grad=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_padded_forward_on_valid_frames(self, B, T_max, fpt, extra, grad, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, B, fpt, T_max=T_max, extra=extra)
        model = FlowModel(replace(TINY, frames_per_token=fpt, seed=seed % 7))
        t = rng.uniform(size=B)
        args = (batch.x1, t, batch.cond, batch.cond_tokens, batch.mask, batch.valid_len)
        with tz.no_grad() if not grad else nullcontext():
            v, taps = model.forward(*args)
            v_ref, taps_ref = padded_forward(model, *args)
        valid = np.arange(batch.x1.shape[1])[None, :] < batch.valid_len[:, None]
        assert np.array_equal(v.data[valid], v_ref.data[valid])
        assert np.all(v.data[~valid] == 0.0)
        assert len(taps) == len(taps_ref)
        for tap, ref, mean in zip(taps, taps_ref, taps.item_means()):
            assert np.array_equal(tap.data[valid], ref.data[valid])
            assert np.all(tap.data[~valid] == 0.0)
            assert np.array_equal(mean.data, tz.mean_pool_time(ref, batch.valid_len).data)

    @pytest.mark.parametrize("B", [1, 4, 9])
    def test_no_grad_taps_equal_grad_taps(self, B):
        """A no-grad forward keeps no block rows and rebuilds them when read;
        the rebuilt taps and their item means equal the graph's bit for bit."""
        rng = np.random.default_rng(B)
        batch = random_batch(rng, B, TINY.frames_per_token, extra=1)
        model = FlowModel(replace(TINY, n_blocks=5))
        args = (batch.x1, rng.uniform(size=B), batch.cond, batch.cond_tokens, batch.mask,
                batch.valid_len)
        v, taps = model.forward(*args)
        with tz.no_grad():
            v_ng, taps_ng = model.forward(*args)
        assert np.array_equal(v_ng.data, v.data)
        assert len(taps_ng) == len(taps) == 5
        for a, b in zip(taps_ng.item_means(), taps.item_means()):
            assert np.array_equal(a.data, b.data)
        for i in range(-len(taps), len(taps)):
            assert np.array_equal(taps_ng[i].data, taps[i].data)
        assert [t.data.tobytes() for t in taps_ng] == [t.data.tobytes() for t in taps]
        with pytest.raises(IndexError):
            taps_ng[len(taps)]
        # no block rows were kept: a read reruns the blocks with the parameters as they stand
        model.params["blk4_b2"].data[0] += 1.0
        assert np.array_equal(taps_ng[3].data, taps[3].data)
        assert not np.array_equal(taps_ng[4].data, taps[4].data)

    def test_one_frame_alone_equals_the_padded_batch(self):
        # one valid frame of a (1, 3) batch: the padded product has three rows
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 1, TINY.frames_per_token, T_max=1, extra=2)
        model = FlowModel(TINY)
        args = (batch.x1, np.array([0.4]), batch.cond, batch.cond_tokens, batch.mask, batch.valid_len)
        v, _ = model.forward(*args)
        assert np.array_equal(v.data[0, 0], padded_forward(model, *args)[0].data[0, 0])


class TestWindowedSampler:
    """``sample`` runs only the masked windows, in chunks; the bytes must not change."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        B=st.sampled_from([1, 2, 5, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7]),
        fpt=st.sampled_from([1, 2, 4]),
        contiguous=st.booleans(),
        extra=st.integers(0, 2),
        n_steps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_full_batch_loop(self, B, fpt, contiguous, extra, n_steps, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, B, fpt, contiguous=contiguous, extra=extra)
        model = FlowModel(replace(TINY, frames_per_token=fpt, seed=seed % 7))
        got = sample(model, batch, n_steps, seed)
        assert np.array_equal(got, reference_sample(model, batch, n_steps, seed))

    def test_item_without_masked_frames_keeps_its_prompt(self):
        batch = small_batch()
        batch.mask[1] = 0.0
        model = FlowModel(TINY)
        got = sample(model, batch, 2, seed=4)
        assert np.array_equal(got, reference_sample(model, batch, 2, seed=4))
        assert np.array_equal(got[1], batch.x1[1])

    def test_forward_and_config_are_enough(self):
        batch = random_batch(np.random.default_rng(8), _CHUNK + 3, TINY.frames_per_token)
        model = FlowModel(TINY)
        got = sample(ForwardOnly(model), batch, 3, seed=2)
        assert np.array_equal(got, reference_sample(model, batch, 3, seed=2))


    def test_item_by_item_noise_is_one_draw(self):
        """The sampler draws each item's (T, D) noise in turn; a Generator
        continues one stream, so the values are those of one (B, T, D) draw."""
        whole = np.random.default_rng(17).standard_normal((7, 13, 5))
        rng = np.random.default_rng(17)
        assert np.array_equal(np.stack([rng.standard_normal((13, 5)) for _ in range(7)]), whole)

    def test_sample_memory(self):
        """The sampler keeps only its windows' noise, and its forwards keep no
        taps: on 100 test utterances of the default corpus with the default
        model, traced allocations peak under 16 MiB (32 MiB with the whole
        batch's noise and every block's rows of a chunk kept)."""
        import tracemalloc

        from flowalign.encoder import EncoderConfig, SpeakerEncoder
        from flowalign.synth import DatasetConfig, generate_dataset, make_eval_batch

        dataset = generate_dataset(DatasetConfig())
        encoder = SpeakerEncoder(EncoderConfig(), n_classes=len(dataset.speakers_train))
        batch = make_eval_batch(dataset.test[:100], encoder)
        model = FlowModel(FlowConfig())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = sample(model, batch, 2, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == batch.x1.shape and np.isfinite(out).all()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestChunkedRepresentations:
    @pytest.mark.parametrize("B, T_max", [(1, 1), (1, 9), (_CHUNK + 1, 23), (2 * _CHUNK + 9, 23)])
    def test_equals_full_batch_pooling(self, B, T_max):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, B, TINY.frames_per_token, T_max=T_max, extra=2)
        model = FlowModel(TINY)
        noise = rng.standard_normal(batch.x1.shape)
        t = np.full(batch.x1.shape[0], 0.3)
        x_t, _ = make_interpolant(batch.x1, batch.mask, t, noise)
        with tz.no_grad():
            _, taps = padded_forward(
                model, x_t, t, batch.cond, batch.cond_tokens, batch.mask, batch.valid_len
            )
            want = [tz.mean_pool_time(tap, batch.valid_len).data for tap in taps]
        got = layer_representations(model, batch, 0.3, noise)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_probe_memory(self):
        """The probe builds each chunk's interpolant and pools each block's rows
        as the block returns: on 100 test utterances of the default corpus with
        the default model, traced allocations peak under 16 MiB (46 MiB with one
        interpolant over the batch and all twelve blocks' rows of a chunk kept)."""
        import tracemalloc

        from flowalign.encoder import EncoderConfig, SpeakerEncoder
        from flowalign.synth import DatasetConfig, generate_dataset, make_eval_batch

        dataset = generate_dataset(DatasetConfig())
        encoder = SpeakerEncoder(EncoderConfig(), n_classes=len(dataset.speakers_train))
        batch = make_eval_batch(dataset.test[:100], encoder)
        noise = np.random.default_rng(5).standard_normal(batch.x1.shape)
        model = FlowModel(FlowConfig())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reps = layer_representations(model, batch, 0.5, noise)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(reps) == model.n_taps and reps[0].shape == (100, model.config.hidden)
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestOneItemAlone:
    """The first item of a default-corpus eval batch of 20, run alone, gets the
    bits of its row in the batch: its products' one row is guarded in ``tensor``."""

    @pytest.fixture(scope="class")
    def setup(self):
        from flowalign.encoder import EncoderConfig, SpeakerEncoder
        from flowalign.synth import DatasetConfig, generate_dataset, make_eval_batch

        dataset = generate_dataset(DatasetConfig())
        encoder = SpeakerEncoder(EncoderConfig(), n_classes=len(dataset.speakers_train))
        batch = make_eval_batch(dataset.test[:20], encoder)
        alone = make_eval_batch(dataset.test[:1], encoder)
        assert alone.x1.shape[1] == alone.valid_len[0] < batch.x1.shape[1]
        return encoder, FlowModel(FlowConfig()), batch, alone

    def test_embedding(self, setup):
        encoder, _, batch, alone = setup
        got = encoder.embed(alone.x1, alone.valid_len).data
        assert np.array_equal(got, encoder.embed(batch.x1, batch.valid_len).data[:1])
        assert np.array_equal(alone.cond, batch.cond[:1])

    def test_layer_representations(self, setup):
        _, model, batch, alone = setup
        noise = np.random.default_rng(6).standard_normal(batch.x1.shape)
        T1 = alone.x1.shape[1]
        got = layer_representations(model, alone, 0.5, noise[:1, :T1])
        want = layer_representations(model, batch, 0.5, noise)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w[:1])

    def test_sample(self, setup):
        _, model, batch, alone = setup
        T1 = alone.x1.shape[1]
        got = sample(model, alone, 3, seed=9)
        assert np.array_equal(got[0], sample(model, batch, 3, seed=9)[0, :T1])


class TestTimeFeatures:
    def test_shape_and_bounds(self):
        f = sinusoidal_features(np.linspace(0, 1, 7), 12)
        assert f.shape == (7, 12)
        assert np.all(np.abs(f) <= 1.0)

    def test_distinct_times_distinct_rows(self):
        f = sinusoidal_features(np.array([0.1, 0.9]), 16)
        assert not np.allclose(f[0], f[1])


class TestPersistence:
    def test_round_trip_forward_identical(self, tmp_path):
        model = FlowModel(TINY)
        model.save(tmp_path / "m.json")
        back = FlowModel.load(tmp_path / "m.json")
        x_t, t, cond, tokens, mask, lens = tiny_inputs()
        v1, _ = model.forward(x_t, t, cond, tokens, mask, lens)
        v2, _ = back.forward(x_t, t, cond, tokens, mask, lens)
        assert np.array_equal(v1.data, v2.data)
