"""Reference computations the benchmark checks the package against.

Everything above ``self_test`` is plain numpy and calls nothing in
``flowalign``: each reference is written from the definition, so a
fault in the package cannot hide in both sides of a comparison. Every
check raises ``CheckError`` on a mismatch. ``self_test`` shows that each
check passes on the package's true output and fails when one value is
planted wrong.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """An output of the package disagrees with its reference."""


def expect_close(what, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        worst = float(np.max(np.abs(got - want)))
        raise CheckError(f"{what}: {int(bad.sum())} entries off, max |diff| {worst:.3e}")


def expect(what, ok):
    if not ok:
        raise CheckError(what)


# -- CKNNA ----------------------------------------------------------------------


def ref_cknna(x, y, k):
    """Mutual k-NN centred kernel alignment; ties go to the lower index."""

    def kernel(a):
        a = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
        a = a - a.mean(axis=0)
        return a @ a.T

    def neighbours(g):
        g = g.copy()
        np.fill_diagonal(g, -np.inf)
        # a stable sort of the negated row keeps equal values in index order
        top = np.argsort(-g, axis=1, kind="stable")[:, :k]
        nb = np.zeros(g.shape, dtype=bool)
        np.put_along_axis(nb, top, True, axis=1)
        return nb

    K, L = kernel(np.asarray(x, float)), kernel(np.asarray(y, float))
    mutual = neighbours(K) & neighbours(L)
    kk, ll, kl = (float(np.sum(a * b, where=mutual)) for a, b in ((K, K), (L, L), (K, L)))
    if kk * ll < 1e-12:
        return 0.0
    return kl / math.sqrt(kk * ll)


# -- embeddings and similarity ----------------------------------------------------


def ref_embed(features, lens, w1, b1, w2, b2):
    """Mean-pool valid frames, tanh-affine, affine, L2-normalise."""
    features = np.asarray(features, float)
    lens = np.asarray(lens)
    valid = np.arange(features.shape[1])[None, :] < lens[:, None]
    pooled = (features * valid[..., None]).sum(axis=1) / lens[:, None]
    e = np.tanh(pooled @ w1 + b1) @ w2 + b2
    return e / np.maximum(np.linalg.norm(e, axis=1, keepdims=True), 1e-8)


def ref_similarity(weights, gen, gen_len, prompts, prompt_len):
    """Mean cosine between generated and prompt embeddings of one encoder."""
    a = ref_embed(gen, gen_len, *weights)
    b = ref_embed(prompts, prompt_len, *weights)
    return float(np.mean(np.sum(a * b, axis=1)))


def ref_aux_at_uniform_gate(taps, lens, e_sa, adapters, alpha):
    """Aux loss while the gate is uniform: mean layer distance - alpha ln N.

    ``adapters[i]`` is (w1, b1, w2, b2) of layer i; the distance is one
    minus the cosine between the adapted pooled tap and ``e_sa``.
    """
    e = np.asarray(e_sa, float)
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    d = [1.0 - np.sum(ref_embed(tap, lens, *ad) * e, axis=1) for tap, ad in zip(taps, adapters)]
    return float(np.mean(d)) - alpha * math.log(len(taps))


# -- AdamW ------------------------------------------------------------------------


class RefAdamW:
    """Textbook decoupled AdamW with an lr multiplier per name prefix.

    The first prefix in ``lr_scale`` that a name starts with sets its
    multiplier. A parameter without a gradient is left untouched.
    """

    def __init__(self, lr_scale=None, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr_scale = dict(lr_scale or {})
        self.b1, self.b2 = betas
        self.eps = eps
        self.wd = weight_decay
        self.m, self.v, self.t = {}, {}, {}

    def step(self, values: dict, grads: dict, lr: float) -> dict:
        out = {}
        for name, p in values.items():
            g = grads.get(name)
            if g is None:
                out[name] = p
                continue
            t = self.t[name] = self.t.get(name, 0) + 1
            m = self.m[name] = self.b1 * self.m.get(name, 0.0) + (1 - self.b1) * g
            v = self.v[name] = self.b2 * self.v.get(name, 0.0) + (1 - self.b2) * g**2
            scale = next((s for pre, s in self.lr_scale.items() if name.startswith(pre)), 1.0)
            eta = lr * scale
            decayed = p * (1.0 - eta * self.wd)
            out[name] = decayed - eta * (m / (1 - self.b1**t)) / (
                np.sqrt(v / (1 - self.b2**t)) + self.eps
            )
        return out


# -- finite differences --------------------------------------------------------------


def fd_probe(loss_fn, arrays: dict, grads: dict, picks, h=1e-5, rtol=1e-5, atol=1e-8):
    """Central differences of ``loss_fn()`` at the picked entries.

    ``arrays`` maps a name to the live parameter array that ``loss_fn``
    reads; each picked entry is nudged by +-h in place and restored.
    Returns the largest |numeric - analytic| seen.
    """
    worst = 0.0
    for name, idx in picks:
        arr = arrays[name]
        keep = arr[idx]
        arr[idx] = keep + h
        fp = loss_fn()
        arr[idx] = keep - h
        fm = loss_fn()
        arr[idx] = keep
        numeric = (fp - fm) / (2.0 * h)
        analytic = float(grads[name][idx])
        diff = abs(numeric - analytic)
        if not diff <= atol + rtol * (abs(numeric) + abs(analytic)):
            raise CheckError(
                f"gradient of {name}{list(idx)}: analytic {analytic:.10e} vs numeric {numeric:.10e}"
            )
        worst = max(worst, diff)
    return worst


def largest_grad_entry(grad):
    return np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)


# -- sampled frames --------------------------------------------------------------------


def check_sample(x, x1, mask, valid_len):
    """Finite values, prompt frames equal to x1 bitwise, padding zero."""
    T = x.shape[1]
    valid = np.arange(T)[None, :] < np.asarray(valid_len)[:, None]
    prompt = valid & (np.asarray(mask) == 0)
    expect("sampled frames are finite", np.isfinite(x).all())
    expect("prompt frames equal x1 bitwise", np.array_equal(x[prompt], x1[prompt]))
    expect("padding frames are zero", np.all(x[~valid] == 0.0))


# -- self-test ---------------------------------------------------------------------------


def _must_fail(what, fn):
    try:
        fn()
    except CheckError:
        return
    raise CheckError(f"self-test: a planted wrong value passed the {what} check")


def self_test():
    """Each check passes on true values and fails on one planted wrong value."""
    from flowalign import tensor as tz
    from flowalign.alignment import AlignConfig, AlignmentHead
    from flowalign.cknna import cknna
    from flowalign.encoder import EncoderConfig, SpeakerEncoder, similarity_score
    from flowalign.flow import FlowConfig, FlowModel, cfm_loss
    from flowalign.optim import AdamW

    rng = np.random.default_rng(5)

    # CKNNA, on data with exact kernel ties so the tie rule matters
    x = rng.normal(size=(30, 6))
    x[10:20] = x[0:10]
    y = x @ rng.normal(size=(6, 4)) + 0.3 * rng.normal(size=(30, 4))
    expect_close("cknna", cknna(x, y, k=4), ref_cknna(x, y, 4), rtol=1e-9)
    y_bad = y.copy()
    y_bad[7, 2] += 1e-3
    _must_fail("cknna", lambda: expect_close("cknna", cknna(x, y_bad, k=4), ref_cknna(x, y, 4), rtol=1e-9))

    # similarity through one encoder
    enc = SpeakerEncoder(EncoderConfig(feat_dim=5, hidden=7, embed_dim=4), n_classes=3)
    w = tuple(enc.params[k].data for k in ("w1", "b1", "w2", "b2"))
    gen, prm = rng.normal(size=(6, 9, 5)), rng.normal(size=(6, 8, 5))
    gl, pl = rng.integers(1, 10, size=6), rng.integers(1, 9, size=6)
    want = ref_similarity(w, gen, gl, prm, pl)
    expect_close("similarity", similarity_score(enc, gen, gl, prm, pl), want, rtol=1e-9)
    gen_bad = gen.copy()
    gen_bad[2, 0, 3] += 1e-3
    _must_fail(
        "similarity",
        lambda: expect_close("similarity", similarity_score(enc, gen_bad, gl, prm, pl), want, rtol=1e-9),
    )

    # AdamW, two steps so bias correction and moments both count
    names = ("tg_w", "ad0_b", "blk_w")
    params = {n: tz.Tensor(rng.normal(size=(3, 4)), requires_grad=True) for n in names}
    scale = {"tg_": 10.0, "ad": 2.0}
    opt = AdamW(params, lr=1e-2, weight_decay=1e-3, lr_scale=scale)
    ref = RefAdamW(scale, weight_decay=1e-3)
    for step in range(2):
        grads = {n: rng.normal(size=(3, 4)) for n in names}
        before = {n: p.data.copy() for n, p in params.items()}
        for n, p in params.items():
            p.grad = grads[n].copy()
        if step == 1:
            params["ad0_b"].grad[1, 2] += 1e-3  # planted in the package's input only
        opt.step(lr=1e-2)
        want = ref.step(before, grads, 1e-2)

        def compare():
            for n in names:
                expect_close(f"adamw {n}", params[n].data, want[n], rtol=1e-12, atol=1e-15)

        if step == 0:
            compare()
        else:
            _must_fail("adamw", compare)

    # finite differences through a small flow model and head
    model = FlowModel(FlowConfig(feat_dim=3, hidden=6, n_blocks=2, vocab=5, token_embed_dim=3,
                                 cond_dim=4, time_embed_dim=4, frames_per_token=2))
    head = AlignmentHead(AlignConfig(time_embed_dim=4, adapter_hidden=5, time_hidden=5), 2, 6, 4)
    B, T = 3, 6
    x_t, target = rng.normal(size=(B, T, 3)), rng.normal(size=(B, T, 3))
    t, cond = rng.uniform(size=B), rng.normal(size=(B, 4))
    tokens = rng.integers(0, 5, size=(B, 3))
    lens = np.array([6, 4, 5])
    mask = (np.arange(T)[None, :] < lens[:, None] - 1).astype(float)

    def loss():
        v, taps = model.forward(x_t, t, cond, tokens, mask, lens)
        return cfm_loss(v, target, mask) + 0.5 * head.loss(taps, lens, cond, t)[0]

    total = loss()
    total.backward()
    arrays = {**{n: p.data for n, p in model.params.items()}, **{n: p.data for n, p in head.params.items()}}
    grads = {**{n: p.grad for n, p in model.params.items()}, **{n: p.grad for n, p in head.params.items()}}
    picks = [(n, largest_grad_entry(grads[n])) for n in ("in_w", "blk1_uc", "out_b", "ad0_w1", "tg_w2")]

    def value():
        with tz.no_grad():
            return float(loss().data)

    fd_probe(value, arrays, grads, picks)
    grads["blk1_uc"] = grads["blk1_uc"].copy()
    grads["blk1_uc"][picks[1][1]] *= 1.001
    _must_fail("finite-difference", lambda: fd_probe(value, arrays, grads, picks))

    # sampled frames
    x1 = rng.normal(size=(2, 5, 3))
    slens = np.array([5, 3])
    mask = np.array([[0, 0, 1, 1, 1], [0, 1, 1, 0, 0]], dtype=float)
    valid = (np.arange(5)[None, :] < slens[:, None])[..., None]
    x = np.where(mask[..., None] == 1, rng.normal(size=x1.shape), x1) * valid
    check_sample(x, x1, mask, slens)
    for where, value_ in (((0, 1, 2), x[0, 1, 2] + 1e-12), ((1, 4, 0), 1e-300), ((0, 3, 1), np.nan)):
        bad = x.copy()
        bad[where] = value_
        _must_fail("sample", lambda: check_sample(bad, x1, mask, slens))

    # the uniform-gate identity of the aux loss; the head has not been stepped
    taps = [rng.normal(size=(B, T, 6)) for _ in range(2)]
    e_sa = rng.normal(size=(B, 4))
    e_sa /= np.linalg.norm(e_sa, axis=1, keepdims=True)
    adapters = [tuple(head.params[f"ad{i}_{k}"].data for k in ("w1", "b1", "w2", "b2")) for i in range(2)]
    with tz.no_grad():
        got = float(head.loss([tz.Tensor(tp) for tp in taps], lens, e_sa, t)[0].data)
    want = ref_aux_at_uniform_gate(taps, lens, e_sa, adapters, head.config.alpha)
    expect_close("aux at uniform gate", got, want, rtol=1e-12, atol=1e-14)
    _must_fail(
        "aux at uniform gate",
        lambda: expect_close("aux at uniform gate", got + 1e-9, want, rtol=1e-12, atol=1e-14),
    )
