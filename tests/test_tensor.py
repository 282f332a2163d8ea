"""Autodiff engine: gradient correctness, op semantics, serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowalign.tensor as tz
from flowalign.tensor import Tensor, check_gradients, no_grad
from flowalign.errors import (
    DegenerateInputError,
    DomainError,
    NumericError,
    ShapeMismatchError,
)

from conftest import traced_peak


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            (x * 2.0).backward()

    def test_shared_subexpression_counted_once_per_use(self):
        # y = u + u with u = x * x gives dy/dx = 4x exactly
        x = Tensor([1.5, -2.0, 0.25], requires_grad=True)
        u = x * x
        y = (u + u).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, 4.0 * x.data)

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert y._backward is None and y._parents == ()
        assert not y.requires_grad

    def test_models_built_under_no_grad_keep_trainable_parameters(self):
        from flowalign.alignment import AlignConfig, AlignmentHead
        from flowalign.encoder import EncoderConfig, SpeakerEncoder
        from flowalign.flow import FlowConfig, FlowModel

        with no_grad():
            models = [
                FlowModel(FlowConfig(n_blocks=2, hidden=8)),
                AlignmentHead(AlignConfig(), 2, 8, 4),
                SpeakerEncoder(EncoderConfig(), n_classes=3),
            ]
        for model in models:
            off = [k for k, p in model.params.items() if not p.requires_grad]
            assert not off, f"{type(model).__name__}: {off}"

    def test_grad_accumulates_across_uses(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * 2.0 + x * 5.0).sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [7.0])

    def test_second_backward_adds_the_same_leaf_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
        u = tz.tanh(x.reshape(1, 2) @ w)
        z = (u * u + u).sum()
        z.backward()
        first = x.grad.copy(), w.grad.copy()
        z.backward()
        assert np.array_equal(x.grad, 2.0 * first[0])
        assert np.array_equal(w.grad, 2.0 * first[1])
        assert u.grad is None and z.grad is None  # non-leaf gradients are not kept


class TestPrimitiveGradients:
    """Every primitive against central finite differences."""

    TOL = 1e-6

    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.normal(size=(1, 4)))
        x = Tensor(rng.normal(size=(3, 4)))
        err = check_gradients(lambda p: (p + b).sum(), x)
        assert err < self.TOL
        err = check_gradients(lambda p: (x + p).sum(), b)
        assert err < self.TOL

    def test_mul_broadcast(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 1, 3)))
        x = Tensor(rng.normal(size=(2, 5, 3)))
        err = check_gradients(lambda p: (p * a).sum(), x)
        assert err < self.TOL
        err = check_gradients(lambda p: (x * p).sum(), a)
        assert err < self.TOL

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        w = rng.normal(size=(3, 2))
        assert check_gradients(lambda p: ((p @ b) * Tensor(w)).sum(), a) < self.TOL
        assert check_gradients(lambda p: ((a @ p) * Tensor(w)).sum(), b) < self.TOL

    def test_affine_all_inputs(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        mixer = Tensor(rng.normal(size=(2, 5, 4)))
        assert check_gradients(lambda p: (tz.affine(p, w, b) * mixer).sum(), x) < self.TOL
        assert check_gradients(lambda p: (tz.affine(x, p, b) * mixer).sum(), w) < self.TOL
        assert check_gradients(lambda p: (tz.affine(x, w, p) * mixer).sum(), b) < self.TOL

    def test_tanh(self):
        x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
        assert check_gradients(lambda p: tz.tanh(p).sum(), x) < self.TOL

    def test_reshape_sum_mean(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 6)))
        w = Tensor(rng.normal(size=(3, 4)))
        assert check_gradients(lambda p: (p.reshape(3, 4) * w).sum(), x) < self.TOL
        assert check_gradients(lambda p: p.sum(axis=1).sum(), x) < self.TOL
        assert check_gradients(lambda p: p.mean(axis=0, keepdims=True).sum(), x) < self.TOL
        assert check_gradients(lambda p: p.mean(), x) < self.TOL

    def test_softmax(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)))
        w = Tensor(rng.normal(size=(4, 6)))
        assert check_gradients(lambda p: (tz.softmax(p) * w).sum(), x) < self.TOL

    def test_mean_pool_time(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 7, 2)))
        lens = np.array([7, 4, 1])
        w = Tensor(rng.normal(size=(3, 2)))
        assert (
            check_gradients(lambda p: (tz.mean_pool_time(p, lens) * w).sum(), x)
            < self.TOL
        )

    def test_l2_normalize(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 5)))
        w = Tensor(rng.normal(size=(4, 5)))
        assert check_gradients(lambda p: (tz.l2_normalize(p) * w).sum(), x) < self.TOL

    def test_l2_normalize_clamped_region(self):
        # inside the clamp the map is x / eps, plain linear
        x = Tensor(np.full((2, 3), 1e-10))
        w = Tensor(np.ones((2, 3)))
        err = check_gradients(lambda p: (tz.l2_normalize(p, eps=1e-3) * w).sum(), x)
        assert err < self.TOL

    def test_cosine_similarity_both_args(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=(5, 4)))
        assert check_gradients(lambda p: tz.cosine_similarity(p, b).sum(), a) < self.TOL
        assert check_gradients(lambda p: tz.cosine_similarity(a, p).sum(), b) < self.TOL

    def test_entropy_through_softmax(self):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(3, 6)))
        assert check_gradients(lambda p: tz.entropy(tz.softmax(p)).sum(), z) < self.TOL

    def test_embedding(self):
        rng = np.random.default_rng(10)
        table = Tensor(rng.normal(size=(6, 3)))
        ids = np.array([[0, 5, 5], [2, 0, 1]])
        w = Tensor(rng.normal(size=(2, 3, 3)))
        assert (
            check_gradients(lambda p: (tz.embedding(p, ids) * w).sum(), table)
            < self.TOL
        )

    def test_cross_entropy(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.normal(size=(5, 7)))
        labels = rng.integers(0, 7, size=5)
        assert check_gradients(lambda p: tz.cross_entropy(p, labels), logits) < self.TOL

    def test_stack_last(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 2)))
        y = Tensor(rng.normal(size=(3, 2)))
        w = Tensor(rng.normal(size=(3, 2, 2)))
        assert (
            check_gradients(lambda p: (tz.stack_last([p, y]) * w).sum(), x) < self.TOL
        )


class TestOpSemantics:
    def test_softmax_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        y = tz.softmax(Tensor(rng.normal(size=(50, 9)) * 30)).data
        assert np.all(y >= 0)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_matches_direct_computation(self):
        x = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        want = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(tz.softmax(Tensor(x)).data, want, rtol=1e-15)

    def test_mean_pool_ignores_tail(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 4, 3)
        out = tz.mean_pool_time(Tensor(x), np.array([2, 4])).data
        np.testing.assert_allclose(out[0], x[0, :2].mean(axis=0))
        np.testing.assert_allclose(out[1], x[1].mean(axis=0))

    def test_mean_pool_gradient_is_masked_broadcast(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        lens = np.array([5, 2, 1])
        g = rng.normal(size=(3, 4))
        (tz.mean_pool_time(x, lens) * Tensor(g)).sum().backward()
        mask = (np.arange(5)[None, :] < lens[:, None]).astype(np.float64)
        want = g[:, None, :] * mask[:, :, None] * (1.0 / lens)[:, None, None]
        assert np.array_equal(x.grad, want)

    def test_mean_pool_rejects_bad_lengths(self):
        x = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(DegenerateInputError):
            tz.mean_pool_time(x, np.array([0, 2]))
        with pytest.raises(DomainError):
            tz.mean_pool_time(x, np.array([5, 2]))

    def test_entropy_uniform_is_log_n(self):
        for n in (2, 5, 12):
            w = Tensor(np.full((1, n), 1.0 / n))
            np.testing.assert_allclose(tz.entropy(w).data, np.log(n), atol=1e-12)

    def test_entropy_zero_times_log_zero_is_zero(self):
        w = Tensor([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(tz.entropy(w).data, 0.0, atol=1e-15)

    def test_entropy_rejects_off_simplex(self):
        with pytest.raises(DomainError):
            tz.entropy(Tensor([[0.6, 0.6]]))
        with pytest.raises(DomainError):
            tz.entropy(Tensor([[1.1, -0.1]]))

    def test_entropy_gradient_formula(self):
        w = np.array([[0.2, 0.3, 0.5]])
        x = Tensor(w, requires_grad=True)
        tz.entropy(x).sum().backward()
        np.testing.assert_allclose(x.grad, -(np.log(w) + 1.0), atol=1e-12)

    def test_l2_normalize_unit_rows(self):
        rng = np.random.default_rng(1)
        y = tz.l2_normalize(Tensor(rng.normal(size=(20, 6)))).data
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)

    def test_cosine_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(10, 4))
        want = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        got = tz.cosine_similarity(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_embedding_forward_and_scatter(self):
        rng = np.random.default_rng(3)
        table = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        ids = np.array([1, 1, 4, 0])
        out = tz.embedding(table, ids)
        np.testing.assert_array_equal(out.data, table.data[ids])
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        want = np.zeros_like(table.data)
        np.add.at(want, ids, g)
        np.testing.assert_allclose(table.grad, want, atol=1e-15)

    def test_embedding_rejects_bad_ids(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(DomainError):
            tz.embedding(table, np.array([0, 4]))
        with pytest.raises(DomainError):
            tz.embedding(table, np.array([-1]))

    def test_cross_entropy_matches_logsumexp(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 9)) * 3
        labels = rng.integers(0, 9, size=6)
        want = np.mean(logsumexp(logits, axis=1) - logits[np.arange(6), labels])
        got = tz.cross_entropy(Tensor(logits), labels).data
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_cross_entropy_second_backward_adds_the_same_gradient(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(4, 6)) * 3, requires_grad=True)
        loss = tz.cross_entropy(logits, rng.integers(0, 6, size=4))
        loss.backward()
        first = logits.grad.copy()
        loss.backward()
        assert np.array_equal(logits.grad, 2.0 * first)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))


def generic_block(h, w1, b1, z, w2, b2, seg):
    """The residual block on rows as a composition of primitives, for reference."""
    return h + tz.affine(tz.tanh(tz.affine(h, w1, b1) + tz.embedding(z, seg.item)), w2, b2)


class TestResidualBlock:
    """The fused node on (N, H) rows against the composition it replaces."""

    @staticmethod
    def arrays(B, T, H=6, K=5, seed=0):
        """Rows of B items of 1 to T frames each, and the block's other inputs."""
        rng = np.random.default_rng(seed)
        seg = tz.Segments(rng.integers(1, T + 1, size=B))
        shapes = [(seg.total, H), (H, K), (K,), (B, K), (K, H), (H,)]
        return [rng.normal(size=s) for s in shapes], seg, rng

    @staticmethod
    def step(block, arrays, seg, rng, shared):
        """Output and every leaf gradient of a weighted-sum loss through ``block``.

        With ``shared`` the block's input adds an affine layer to ``h`` and
        is also read by a segment mean, and two blocks are chained, as the
        trunk's taps are read by the next block and by the alignment head.
        """
        N, H = arrays[0].shape
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        h, w1, b1, z, w2, b2 = leaves
        c = rng.normal(size=(N, H))
        if not shared:
            out = block(h, w1, b1, z, w2, b2, seg)
            loss = (out * Tensor(c)).sum()
        else:
            x = Tensor(rng.normal(size=(N, 3)), requires_grad=True)
            w0 = Tensor(rng.normal(size=(3, H)), requires_grad=True)
            b0 = Tensor(rng.normal(size=H), requires_grad=True)
            leaves += [x, w0, b0]
            h_in = h + tz.affine(x, w0, b0)
            mid = block(h_in, w1, b1, z, w2, b2, seg)
            out = block(mid, w1, b1, z, w2, b2, seg)
            d = Tensor(rng.normal(size=(seg.counts.size, H)))
            loss = (out * Tensor(c)).sum() + (tz.segment_mean(h_in, seg) * d).sum()
            loss = loss + (tz.segment_mean(mid, seg) * d).sum()
        loss.backward()
        return [out.data] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("B, T", [(1, 1), (4, 1), (1, 5), (3, 7), (16, 24)])
    @pytest.mark.parametrize("shared", [False, True])
    def test_equals_composition_bitwise(self, B, T, shared):
        arrays, seg, _ = self.arrays(B, T, seed=B * 31 + T)
        want = self.step(generic_block, arrays, seg, np.random.default_rng(1), shared)
        got = self.step(tz.residual_block, arrays, seg, np.random.default_rng(1), shared)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is not None and np.array_equal(g, w)

    def test_no_grad_output_equals_composition(self):
        arrays, seg, _ = self.arrays(5, 9)
        with no_grad():
            got = tz.residual_block(*[Tensor(a) for a in arrays], seg)
            want = generic_block(*[Tensor(a) for a in arrays], seg)
        assert got._backward is None
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("which", range(6))
    def test_gradient_of_each_input(self, which):
        # uneven segments, an empty one among them
        rng = np.random.default_rng(which)
        seg = tz.Segments([3, 0, 1, 2])
        shapes = [(6, 4), (4, 3), (3,), (4, 3), (3, 4), (4,)]
        fixed = [Tensor(rng.normal(size=s)) for s in shapes]
        c = Tensor(rng.normal(size=(6, 4)))

        def f(p):
            inputs = list(fixed)
            inputs[which] = p
            return (tz.residual_block(*inputs, seg) * c).sum()

        assert check_gradients(f, fixed[which]) < 1e-6

    def test_bad_shapes_raise(self):
        arrays, seg, _ = self.arrays(2, 3, H=4, K=3)
        N = seg.total
        bad = {
            0: np.zeros((2, N, 4)),  # h not (N, H)
            1: np.zeros((5, 3)),  # w1 rows != H
            2: np.zeros((3, 1)),  # b1 not a vector
            3: np.zeros((3, 3)),  # z rows != number of items
            4: np.zeros((3, 5)),  # w2 columns != H
            5: np.zeros(3),  # b2 length != H
        }
        for i, value in bad.items():
            inputs = [Tensor(a) for a in arrays]
            inputs[i] = Tensor(value)
            with pytest.raises(ShapeMismatchError):
                tz.residual_block(*inputs, seg)
        inputs = [Tensor(a) for a in arrays]
        with pytest.raises(ShapeMismatchError):  # segments that cover other rows than h
            tz.residual_block(*inputs, tz.Segments(seg.counts + 1))
        with pytest.raises(ShapeMismatchError):
            tz.Segments([2, -1])
        with pytest.raises(ShapeMismatchError):
            tz.Segments([])

    @staticmethod
    def training_step_peak(lens, T=96):
        """Traced peak of one training step of the default model at B=16: forward,
        CFM and head loss, backward; each item masks the second half of its frames."""
        from flowalign.alignment import AlignConfig, AlignmentHead
        from flowalign.flow import FlowConfig, FlowModel, cfm_loss

        B = len(lens)
        cfg = FlowConfig()
        model = FlowModel(cfg)
        head = AlignmentHead(AlignConfig(), model.n_taps, cfg.hidden, cfg.cond_dim)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(B, T, cfg.feat_dim))
        target = rng.normal(size=(B, T, cfg.feat_dim))
        t = rng.uniform(size=B)
        cond = rng.normal(size=(B, cfg.cond_dim))
        tokens = rng.integers(0, cfg.vocab, size=(B, T // cfg.frames_per_token))
        frames = np.arange(T)[None, :]
        mask = ((frames >= lens[:, None] // 2) & (frames < lens[:, None])).astype(np.float64)

        def step():
            v, taps = model.forward(x, t, cond, tokens, mask, lens)
            loss = cfm_loss(v, target, mask) + 0.5 * head.loss(taps, lens, cond, t)[0]
            loss.backward()

        _, peak = traced_peak(step)
        assert model.params["blk0_w1"].grad is not None
        return peak

    def test_training_step_memory(self):
        """One training step at the training shape keeps each block's graph
        small: forward, head loss and backward peak under 41 MiB of traced
        allocations (82 MiB with a graph of generic nodes per block)."""
        peak = self.training_step_peak(np.full(16, 96))
        assert peak < 41 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_training_step_memory_with_per_item_tap_gradients(self):
        """Each tap's pooled gradient stays (B, 64) until its block's backward
        needs it as rows, so the twelve (N, 64) pieces are never live at once:
        the step peaks under 31 MiB (35.4 MiB with each expanded as it arrives)."""
        peak = self.training_step_peak(np.full(16, 96))
        assert peak < 31 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_padded_training_step_memory(self):
        """With items of 32 to 96 frames, as training batches have, the step
        runs on the valid frames only and peaks well under the full batch's."""
        peak = self.training_step_peak(np.random.default_rng(3).integers(32, 97, size=16))
        assert peak < 32 * 2**20, f"{peak / 2**20:.2f} MiB"


class TestCheckGradients:
    def test_non_finite_function_rejected(self):
        x = Tensor([1e200])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                check_gradients(lambda p: (p * p * p * p).sum() * 1e200, x)

    def test_detects_wrong_gradient(self):
        # an op with a deliberately broken backward must be flagged
        def bad_double(p):
            def backward(g):
                tz._accumulate(p, 3.0 * g)  # claims slope 3, truth is 2

            return tz._make(2.0 * p.data, (p,), backward).sum()

        x = Tensor(np.array([1.0, -0.5]), requires_grad=True)
        assert check_gradients(bad_double, x) > 0.1

    def test_smooth_composite_is_accurate(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 3)))
        w = Tensor(rng.normal(size=(3, 3)))

        def f(p):
            return (tz.tanh(p @ w) * tz.softmax(p)).sum()

        assert check_gradients(f, x) < 1e-7


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([rng.normal(size=10), [0.1, 1e-300, -1e300, 0.0]])
        x = Tensor(vals.reshape(2, 7))
        back = tz.tensor_from_json(tz.tensor_to_json(x))
        assert back.shape == x.shape
        assert np.array_equal(back.data, x.data)

    def test_json_survives_text_round_trip(self):
        import json

        x = Tensor(np.array([[0.1 + 0.2, 1.0 / 3.0]]))
        back = tz.tensor_from_json(json.loads(json.dumps(tz.tensor_to_json(x))))
        assert np.array_equal(back.data, x.data)


@st.composite
def broadcast_pairs(draw):
    """Two shapes that broadcast together: each keeps a suffix of one output
    shape, with any of its axes cut to 1; an empty suffix is a scalar."""
    out = draw(st.lists(st.integers(1, 4), max_size=4))

    def operand():
        lead = draw(st.integers(0, len(out)))
        return tuple(1 if draw(st.booleans()) else n for n in out[lead:])

    return operand(), operand()


def scatter_sum(upstream, shape):
    """Sum each output element's gradient into the operand entry it was read from."""
    size = int(np.prod(shape))
    src = np.broadcast_to(np.arange(size).reshape(shape), upstream.shape)
    return np.bincount(src.ravel(), weights=upstream.ravel(), minlength=size).reshape(shape)


class TestBroadcastProperties:
    """``add`` and ``mul`` on random broadcast-compatible shapes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shapes=broadcast_pairs(), op=st.sampled_from(["add", "mul"]))
    def test_gradients(self, shapes, op):
        sa, sb = shapes
        rng = np.random.default_rng(0)
        a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
        w = Tensor(rng.normal(size=np.broadcast_shapes(sa, sb)))  # the upstream gradient
        f = getattr(tz, op)
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        (f(a, b) * w).sum().backward()
        up_a, up_b = (w.data * b0, w.data * a0) if op == "mul" else (w.data, w.data)
        for grad, up, shape in ((a.grad, up_a, sa), (b.grad, up_b, sb)):
            assert np.shape(grad) == shape
            want = scatter_sum(np.broadcast_to(up, w.shape), shape)
            np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12)
        assert check_gradients(lambda p: (f(p, Tensor(b0)) * w).sum(), Tensor(a0)) < 1e-6
        assert check_gradients(lambda p: (f(Tensor(a0), p) * w).sum(), Tensor(b0)) < 1e-6


@st.composite
def reductions(draw):
    """A shape of 0 to 4 axes, and an ``axis`` for it: None, one int (negative
    ones too) or a tuple of distinct axes; and ``keepdims``."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    nd = len(shape)
    one = st.integers(-nd, nd - 1) if nd else st.nothing()
    several = st.lists(one, unique_by=lambda i: i % nd, max_size=nd).map(tuple)
    axis = draw(st.none() | one | several)
    return shape, axis, draw(st.booleans())


class TestReductionProperties:
    """``sum`` and ``mean`` against numpy: values, and gradients as the
    upstream gradient broadcast back over the reduced axes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=reductions(), op=st.sampled_from(["sum", "mean"]))
    def test_values_and_gradients(self, case, op):
        shape, axis, keepdims = case
        rng = np.random.default_rng(len(shape))
        x0 = rng.normal(size=shape)
        x = Tensor(x0, requires_grad=True)
        out = getattr(x, op)(axis=axis, keepdims=keepdims)
        want = getattr(np, op)(x0, axis=axis, keepdims=keepdims)
        assert out.shape == np.shape(want)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)

        up = rng.normal(size=np.shape(want))
        (out * Tensor(up)).sum().backward()
        n = x0.size // np.size(want)
        kept = up if keepdims or axis is None else np.expand_dims(up, axis)
        grad = np.broadcast_to(kept, shape) * (1.0 / n if op == "mean" else 1.0)
        assert x.grad.shape == shape
        np.testing.assert_allclose(x.grad, grad, rtol=1e-12, atol=1e-12)


@st.composite
def padded_rows(draw):
    """A padded (B, T, D) array with 1..T valid frames per item, D >= 2, and
    anything in the padding."""
    lens = np.array(draw(st.lists(st.integers(1, 12), min_size=1, max_size=6)))
    T = int(lens.max()) + draw(st.integers(0, 3))
    D = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3, size=(len(lens), T, D))
    return rng.normal(size=(len(lens), T, D)) * scale, lens


def dense_segment_mean(x: Tensor, seg: tz.Segments) -> Tensor:
    """``segment_mean`` whose backward hands x its gradient as (N, D) rows at once."""
    inv = 1.0 / seg.counts.astype(np.float64)

    def backward(g):
        tz._accumulate(x, (g * inv[:, None])[seg.item])

    return tz._make(seg.sum(x.data) * inv[:, None], (x,), backward)


class TestSegmentProperties:
    """``segment_mean`` and ``scatter_rows`` on rows against the padded ops."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=padded_rows())
    def test_segment_mean_equals_padded_mean_pool(self, case):
        x, lens = case
        valid = np.arange(x.shape[1])[None, :] < lens[:, None]
        g = np.random.default_rng(lens.sum()).normal(size=(len(lens), x.shape[2]))
        padded = Tensor(x, requires_grad=True)
        rows = Tensor(x[valid], requires_grad=True)
        want = tz.mean_pool_time(padded, lens)
        got = tz.segment_mean(rows, tz.Segments(lens))
        assert np.array_equal(got.data, want.data)
        (want * Tensor(g)).sum().backward()
        (got * Tensor(g)).sum().backward()
        assert np.array_equal(rows.grad, padded.grad[valid])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=padded_rows())
    def test_scatter_rows_inverts_the_gather(self, case):
        x, lens = case
        valid = np.arange(x.shape[1])[None, :] < lens[:, None]
        rows = Tensor(x[valid], requires_grad=True)
        out = tz.scatter_rows(rows, np.flatnonzero(valid), valid.shape)
        assert np.array_equal(out.data[valid], x[valid])
        assert np.all(out.data[~valid] == 0.0)
        (out * Tensor(x)).sum().backward()
        assert np.array_equal(rows.grad, x[valid])

    def test_gradients_of_uneven_segments(self):
        rng = np.random.default_rng(4)
        seg = tz.Segments([2, 3, 1])
        x = Tensor(rng.normal(size=(6, 3)))
        w = Tensor(rng.normal(size=(3, 3)))
        assert check_gradients(lambda p: (tz.segment_mean(p, seg) * w).sum(), x) < 1e-6
        c = Tensor(rng.normal(size=(2, 4, 3)))
        index = [0, 1, 4, 5, 6, 7]
        assert check_gradients(lambda p: (tz.scatter_rows(p, index, (2, 4)) * c).sum(), x) < 1e-6

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("through_node", [False, True])
    def test_per_item_gradient_keeps_the_dense_bits(self, order, through_node):
        """A tensor pooled by two ``segment_mean``s and read densely as well, or
        a node between such a tensor and its readers, gets the bits of dense
        row pieces added in arrival order, from one backward and from a second."""
        rng = np.random.default_rng(8)
        seg_a, seg_b = tz.Segments([3, 1, 4]), tz.Segments([2, 2, 2, 2])
        x0, scale, c = (rng.normal(size=(8, 5)) for _ in range(3))
        d_a, d_b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))

        def loss(mean, x):
            y = x * Tensor(scale) if through_node else x
            terms = [
                (mean(y, seg_a) * Tensor(d_a)).sum(),
                (y * Tensor(c)).sum(),
                (mean(y, seg_b) * Tensor(d_b)).sum(),
            ]
            return terms[order[0]] + terms[order[1]] + terms[order[2]]

        grads = []
        for mean in (tz.segment_mean, dense_segment_mean):
            x = Tensor(x0, requires_grad=True)
            out = loss(mean, x)
            out.backward()
            first = x.grad
            out.backward()
            grads.append((first, x.grad))
        (got, got_twice), (want, want_twice) = grads
        assert np.array_equal(got, want) and np.array_equal(got_twice, want_twice)
        assert check_gradients(lambda p: loss(tz.segment_mean, p), Tensor(x0)) < 1e-6

    def test_bad_inputs_raise(self):
        seg = tz.Segments([2, 0, 1])
        with pytest.raises(DegenerateInputError):
            tz.segment_mean(Tensor(np.zeros((3, 2))), seg)  # an item without rows
        with pytest.raises(ShapeMismatchError):
            tz.segment_mean(Tensor(np.zeros((4, 2))), tz.Segments([2, 1]))
        with pytest.raises(ShapeMismatchError):
            tz.scatter_rows(Tensor(np.zeros((2, 2))), [0, 1, 2], (1, 3))
        with pytest.raises(ShapeMismatchError):
            tz.scatter_rows(Tensor(np.zeros((2, 2))), [0], (1, 3))  # one position per row


# Widths whose output columns OpenBLAS's gemm rounds alike whatever the row
# count. With 1 to 3 columns past a multiple of 8 (widths 1-3, 9-11, ...) and
# an inner dimension of 8 or more, its own kernels give those columns other
# bits with four or more rows than with fewer, which no guard on the row
# count mends; the default model's widths (12 to 96) all lie outside that set.
WIDTHS = (4, 6, 8, 12, 24, 64)


def _row_product(op, x, rng_seed, K, N):
    """op's output and the gradient of x (M, K) under a fixed upstream
    gradient, with weights drawn from ``rng_seed`` alone."""
    rng = np.random.default_rng([rng_seed, 1])
    x = Tensor(x, requires_grad=True)
    if op == "matmul":
        out = x @ Tensor(rng.normal(size=(K, N)), requires_grad=True)
    elif op == "affine":
        out = tz.affine(x, Tensor(rng.normal(size=(K, N)), requires_grad=True),
                        Tensor(rng.normal(size=N), requires_grad=True))
    else:
        w1, b1, z, w2, b2 = (Tensor(rng.normal(size=s), requires_grad=True)
                             for s in [(K, N), (N,), (1, N), (N, K), (K,)])
        out = tz.residual_block(x, w1, b1, z, w2, b2, tz.Segments([x.shape[0]]))
    return out, x


class TestRowIndependence:
    """A row's product does not depend on how many rows share it: numpy runs a
    one-row left operand as gemv, and ``tensor`` guards it."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        op=st.sampled_from(["matmul", "affine", "residual_block"]),
        M=st.integers(1, 9),
        K=st.sampled_from(WIDTHS),
        N=st.sampled_from(WIDTHS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_alone_equals_its_row_in_the_product(self, op, M, K, N, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(M, K))
        width = K if op == "residual_block" else N
        g = rng.normal(size=(M, width))
        out, xt = _row_product(op, x, seed, K, N)
        (out * Tensor(g)).sum().backward()
        for i in range(M):
            row, rt = _row_product(op, x[i : i + 1], seed, K, N)
            (row * Tensor(g[i : i + 1])).sum().backward()
            assert np.array_equal(row.data, out.data[i : i + 1])
            assert np.array_equal(rt.grad, xt.grad[i : i + 1])


@st.composite
def stacks(draw):
    """A shape of 0 to 3 axes, and a list of 1 to 5 parts, each one of up to
    three distinct tensors of that shape, so a tensor may fill several slots."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    needs_grad = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    return shape, picks, needs_grad


class TestStackAndPoolProperties:
    """``stack_last`` and ``mean_pool_time`` against numpy on random shapes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=stacks())
    def test_stack_last_values_and_gradients(self, case):
        shape, picks, needs_grad = case
        rng = np.random.default_rng(len(picks) + 7 * len(shape))
        pool = [Tensor(rng.normal(size=shape), requires_grad=r) for r in needs_grad]
        out = tz.stack_last([pool[j] for j in picks])
        assert np.array_equal(out.data, np.stack([pool[j].data for j in picks], axis=-1))

        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        for j, tensor in enumerate(pool):
            slots = [i for i, p in enumerate(picks) if p == j]
            if not (tensor.requires_grad and slots):
                assert tensor.grad is None
                continue
            want = g[..., slots[0]]
            for i in slots[1:]:  # one piece per use, added in slot order
                want = want + g[..., i]
            assert tensor.grad.shape == shape
            assert np.array_equal(tensor.grad, want)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=padded_rows())
    def test_mean_pool_time_values_and_gradients(self, case):
        x0, lens = case
        valid = np.arange(x0.shape[1])[None, :] < lens[:, None]
        x = Tensor(x0, requires_grad=True)
        out = tz.mean_pool_time(x, lens)
        want = np.stack([x0[b, :n].mean(axis=0) for b, n in enumerate(lens)])
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=0.0)
        # padding takes no part, exactly
        wild = np.where(valid[..., None], x0, 1e300)
        assert np.array_equal(tz.mean_pool_time(Tensor(wild), lens).data, out.data)

        g = np.random.default_rng(int(lens.sum())).normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        share = g * (1.0 / lens)[:, None]
        assert np.array_equal(x.grad, np.where(valid[..., None], share[:, None, :], 0.0))
