"""Alignment head: gate behavior, loss identities, gradients, ablation modes."""

import numpy as np
import pytest

from flowalign.alignment import AlignConfig, AlignmentHead
from flowalign.errors import ConfigurationError, ShapeMismatchError
from flowalign.flow import sinusoidal_features
from flowalign.tensor import Tensor, check_gradients

N_LAYERS = 4
TAP_DIM = 6
EMB_DIM = 5


def make_head(mode="layer_time", **kw):
    cfg = AlignConfig(
        mode=mode, adapter_hidden=7, time_hidden=8, time_embed_dim=8, seed=3, **kw
    )
    return AlignmentHead(cfg, N_LAYERS, TAP_DIM, EMB_DIM)


def make_inputs(seed=0, B=3, T=5):
    rng = np.random.default_rng(seed)
    taps = [Tensor(rng.normal(size=(B, T, TAP_DIM))) for _ in range(N_LAYERS)]
    valid = np.array([5, 3, 4])
    e_sa = rng.normal(size=(B, EMB_DIM))
    e_sa /= np.linalg.norm(e_sa, axis=1, keepdims=True)
    t = rng.uniform(0, 1, size=B)
    return taps, valid, e_sa, t


def numpy_gate(head, t):
    """Independent recomputation of the softmax gate."""
    p = head.params
    f = sinusoidal_features(t, head.config.time_embed_dim)
    h = np.tanh(f @ p["tg_w1"].data + p["tg_b1"].data)
    z = h @ p["tg_w2"].data + p["tg_b2"].data
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def numpy_distances(head, taps, valid, e_sa):
    """Independent recomputation of the per-layer cosine distances."""
    out = np.zeros((e_sa.shape[0], head.n_layers))
    for i in range(head.n_layers):
        p = head.params
        x = taps[i].data
        pooled = np.stack([x[b, : valid[b]].mean(axis=0) for b in range(x.shape[0])])
        h = np.tanh(pooled @ p[f"ad{i}_w1"].data + p[f"ad{i}_b1"].data)
        proj = h @ p[f"ad{i}_w2"].data + p[f"ad{i}_b2"].data
        cos = np.sum(e_sa * proj, axis=1) / (
            np.maximum(np.linalg.norm(e_sa, axis=1), 1e-8)
            * np.maximum(np.linalg.norm(proj, axis=1), 1e-8)
        )
        out[:, i] = 1.0 - cos
    return out


class TestGate:
    def test_uniform_at_initialization(self):
        head = make_head()
        w = head.time_weights(np.linspace(0, 1, 9)).data
        np.testing.assert_array_equal(w, np.full((9, N_LAYERS), 1.0 / N_LAYERS))

    def test_rows_on_simplex_after_perturbation(self):
        head = make_head()
        rng = np.random.default_rng(1)
        head.params["tg_w2"].data[...] = rng.normal(size=head.params["tg_w2"].shape)
        w = head.time_weights(np.linspace(0, 1, 9)).data
        assert np.all(w > 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_independent_computation(self):
        head = make_head()
        rng = np.random.default_rng(2)
        head.params["tg_w2"].data[...] = rng.normal(size=head.params["tg_w2"].shape)
        t = rng.uniform(0, 1, size=6)
        np.testing.assert_allclose(
            head.time_weights(t).data, numpy_gate(head, t), atol=1e-14
        )

    def test_heatmap_shape(self):
        head = make_head()
        grid = np.linspace(0, 1, 11)
        hm = head.heatmap(grid)
        assert hm.shape == (11, N_LAYERS)
        np.testing.assert_allclose(hm.sum(axis=1), 1.0, atol=1e-12)


class TestDistances:
    def test_matches_independent_computation(self):
        head = make_head()
        taps, valid, e_sa, _ = make_inputs()
        got = head.layer_distances(taps, valid, e_sa).data
        want = numpy_distances(head, taps, valid, e_sa)
        np.testing.assert_allclose(got, want, atol=1e-13)
        assert np.all(got >= 0) and np.all(got <= 2)

    def test_tap_count_guard(self):
        head = make_head()
        taps, valid, e_sa, _ = make_inputs()
        with pytest.raises(ShapeMismatchError):
            head.layer_distances(taps[:-1], valid, e_sa)

    def test_target_shape_guard(self):
        head = make_head()
        taps, valid, e_sa, _ = make_inputs()
        with pytest.raises(ShapeMismatchError):
            head.layer_distances(taps, valid, e_sa[:, :-1])


class TestLossIdentities:
    def test_layer_time_identity(self):
        """Loss equals gate-weighted distance minus the entropy bonus."""
        head = make_head()
        rng = np.random.default_rng(3)
        head.params["tg_w2"].data[...] = rng.normal(size=head.params["tg_w2"].shape)
        taps, valid, e_sa, t = make_inputs()
        loss, parts = head.loss(taps, valid, e_sa, t)
        d = numpy_distances(head, taps, valid, e_sa)
        w = numpy_gate(head, t)
        ent = -(w * np.log(w)).sum(axis=1)
        want = (w * d).sum(axis=1).mean() - head.config.alpha * ent.mean()
        np.testing.assert_allclose(loss.item(), want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(parts["sa_weighted"], (w * d).sum(axis=1).mean(), rtol=1e-12)
        np.testing.assert_allclose(parts["gate_entropy"], ent.mean(), rtol=1e-12)

    def test_layer_only_is_uniform_average(self):
        head = make_head(mode="layer_only")
        taps, valid, e_sa, t = make_inputs()
        loss, parts = head.loss(taps, valid, e_sa, t)
        d = numpy_distances(head, taps, valid, e_sa)
        np.testing.assert_allclose(loss.item(), d.mean(), rtol=1e-12, atol=1e-12)
        assert parts["gate_entropy"] == pytest.approx(np.log(N_LAYERS))

    def test_uniform_gate_reduces_layer_time_to_layer_only_plus_bonus(self):
        """With the gate at its uniform initialization the two modes agree
        up to the constant entropy bonus alpha * log(N)."""
        taps, valid, e_sa, t = make_inputs()
        lt = make_head(mode="layer_time")
        lo = make_head(mode="layer_only")
        loss_lt, _ = lt.loss(taps, valid, e_sa, t)
        loss_lo, _ = lo.loss(taps, valid, e_sa, t)
        want = loss_lo.item() - lt.config.alpha * np.log(N_LAYERS)
        np.testing.assert_allclose(loss_lt.item(), want, rtol=1e-12, atol=1e-12)

    def test_baseline_has_no_loss(self):
        head = make_head(mode="baseline")
        taps, valid, e_sa, t = make_inputs()
        with pytest.raises(ConfigurationError):
            head.loss(taps, valid, e_sa, t)


class TestGradients:
    def test_adapter_and_gate_parameters(self):
        head = make_head()
        rng = np.random.default_rng(4)
        head.params["tg_w2"].data[...] = 0.3 * rng.normal(size=head.params["tg_w2"].shape)
        taps, valid, e_sa, t = make_inputs()

        for name in ["ad0_w1", "ad2_w2", "ad3_b1", "tg_w1", "tg_w2", "tg_b2"]:
            orig = head.params[name]

            def f(p, _name=name, _orig=orig):
                head.params[_name] = p
                try:
                    return head.loss(taps, valid, e_sa, t)[0]
                finally:
                    head.params[_name] = _orig

            # near-zero coordinates make the relative FD error roundoff
            # bound, so the bar here matches the acceptance tolerance
            err = check_gradients(f, orig)
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"

    def test_gradient_reaches_taps(self):
        """The auxiliary loss must shape the trunk, not only the adapters."""
        head = make_head()
        taps, valid, e_sa, t = make_inputs()

        def f(p):
            probe_taps = [p] + taps[1:]
            return head.loss(probe_taps, valid, e_sa, t)[0]

        assert check_gradients(f, taps[0]) < 1e-6


class TestModelTaps:
    """The model's ``Taps`` pool from their rows as the padded taps would."""

    @staticmethod
    def forward():
        from flowalign.flow import FlowConfig, FlowModel

        model = FlowModel(FlowConfig(feat_dim=3, hidden=TAP_DIM, n_blocks=N_LAYERS, vocab=5,
                                     token_embed_dim=3, cond_dim=4, time_embed_dim=8,
                                     frames_per_token=2))
        rng = np.random.default_rng(6)
        B, T = 3, 6
        tokens = rng.integers(0, 5, size=(B, 3))
        mask = (rng.random((B, T)) < 0.5).astype(np.float64)
        valid = np.array([6, 2, 5])
        _, taps = model.forward(rng.normal(size=(B, T, 3)), rng.uniform(size=B),
                                rng.normal(size=(B, 4)), tokens, mask, valid)
        return model, taps, valid

    def test_loss_and_gradients_equal_the_padded_list(self):
        head = make_head()
        _, _, e_sa, t = make_inputs()
        grads = []
        for padded in (False, True):
            model, taps, valid = self.forward()
            loss, _ = head.loss(list(taps) if padded else taps, valid, e_sa, t)
            loss.backward()
            grads.append([loss.data] + [p.grad for p in model.params.values()])
            for p in head.params.values():
                p.grad = None
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    def test_valid_len_must_match_the_taps(self):
        _, taps, valid = self.forward()
        _, _, e_sa, t = make_inputs()
        with pytest.raises(ShapeMismatchError):
            make_head().loss(taps, valid - 1, e_sa, t)


class TestEntropyAscent:
    def test_bonus_step_spreads_the_gate(self):
        """A small gradient step on the entropy bonus alone must increase
        gate entropy (strictly, away from uniform)."""
        rng = np.random.default_rng(5)
        for trial in range(200):
            z = Tensor(rng.normal(size=(1, N_LAYERS)) * 2.0, requires_grad=True)
            import flowalign.tensor as tz

            w = tz.softmax(z)
            h = tz.entropy(w).sum()
            h.backward()
            before = h.item()
            z2 = z.data + 1e-3 * z.grad
            w2 = tz.softmax(Tensor(z2)).data
            after = -(w2 * np.log(w2)).sum()
            assert after > before


class TestModes:
    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            AlignConfig(mode="sometimes").validate()
        with pytest.raises(ConfigurationError):
            AlignConfig(lam=-0.1).validate()
        with pytest.raises(ConfigurationError):
            AlignConfig(sa_source="oracle").validate()

    def test_needs_layers(self):
        with pytest.raises(ConfigurationError):
            AlignmentHead(AlignConfig(), 0, TAP_DIM, EMB_DIM)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        head = make_head()
        rng = np.random.default_rng(6)
        head.params["tg_w2"].data[...] = rng.normal(size=head.params["tg_w2"].shape)
        head.save(tmp_path / "h.json")
        back = AlignmentHead.load(tmp_path / "h.json")
        taps, valid, e_sa, t = make_inputs()
        a, _ = head.loss(taps, valid, e_sa, t)
        b, _ = back.loss(taps, valid, e_sa, t)
        assert a.item() == b.item()
        np.testing.assert_array_equal(
            head.time_weights(t).data, back.time_weights(t).data
        )
