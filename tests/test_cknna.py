"""Neighborhood kernel alignment against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowalign.cknna import centered_gram, cknna, layer_alignment, topk_neighbors
from flowalign.errors import ConfigurationError, DegenerateInputError, DomainError


def oracle_cknna(x, y, k, normalize=True):
    """Brute-force reimplementation: per-pair dot products, per-row sorted
    neighbor sets, pair-by-pair accumulation.

    Centering subtracts the mean row (not a centering-matrix product) so
    exact duplicate rows stay exact ties and the stated tie rule is the
    one that decides, in the oracle as in the library.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if normalize:
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        y = y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-12)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    K = np.empty((n, n))
    L = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = float(np.dot(xc[i], xc[j]))
            L[i, j] = float(np.dot(yc[i], yc[j]))

    def neighbor_sets(G):
        sets = []
        for i in range(n):
            others = [j for j in range(n) if j != i]
            others.sort(key=lambda j: (-G[i, j], j))
            sets.append(set(others[:k]))
        return sets

    nk, nl = neighbor_sets(K), neighbor_sets(L)
    skl = skk = sll = 0.0
    for i in range(n):
        for j in range(n):
            if i != j and j in nk[i] and j in nl[i]:
                skl += K[i, j] * L[i, j]
                skk += K[i, j] * K[i, j]
                sll += L[i, j] * L[i, j]
    if skk * sll < 1e-12:
        return 0.0
    return skl / np.sqrt(skk * sll)


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(6, 17))
            k = int(rng.integers(1, n - 1))
            x = rng.normal(size=(n, int(rng.integers(3, 9))))
            y = rng.normal(size=(n, int(rng.integers(3, 9))))
            got = cknna(x, y, k=k)
            want = oracle_cknna(x, y, k=k)
            assert abs(got - want) < 1e-12, f"trial {trial}: {got} vs {want}"

    def test_correlated_instances(self):
        # shared structure plus noise, the regime the metric is used in
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = 14
            z = rng.normal(size=(n, 4))
            x = z @ rng.normal(size=(4, 6)) + 0.1 * rng.normal(size=(n, 6))
            y = z @ rng.normal(size=(4, 5)) + 0.1 * rng.normal(size=(n, 5))
            got = cknna(x, y, k=5)
            want = oracle_cknna(x, y, k=5)
            assert abs(got - want) < 1e-12
            assert got > 0.2  # shared latent structure must register

    def test_frozen_instance(self):
        # value pinned from the brute-force oracle at seed 42
        rng = np.random.default_rng(42)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 4))
        got = cknna(x, y, k=3)
        assert abs(got - oracle_cknna(x, y, k=3)) < 1e-12
        assert got == pytest.approx(0.8257099926053703, abs=1e-12)


class TestInvariances:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.x = rng.normal(size=(12, 5))
        self.y = self.x @ rng.normal(size=(5, 4)) + 0.2 * rng.normal(size=(12, 4))
        self.base = cknna(self.x, self.y, k=4)

    def test_joint_row_permutation(self):
        rng = np.random.default_rng(3)
        perm = rng.permutation(12)
        got = cknna(self.x[perm], self.y[perm], k=4)
        assert abs(got - self.base) < 1e-9

    def test_orthogonal_rotation(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        got = cknna(self.x @ q, self.y, k=4)
        assert abs(got - self.base) < 1e-9

    def test_row_scaling_with_normalization(self):
        rng = np.random.default_rng(5)
        scales = rng.uniform(0.5, 3.0, size=(12, 1))
        got = cknna(self.x * scales, self.y, k=4)
        assert abs(got - self.base) < 1e-9

    def test_self_alignment_is_one(self):
        assert cknna(self.x, self.x.copy(), k=4) == pytest.approx(1.0, abs=1e-12)


class TestTieBreaking:
    def test_exact_ties_prefer_lower_index(self):
        # rows 1 and 2 are identical, so they tie as neighbors of row 0
        x = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, 0.6], [-1.0, 0.0], [0.0, -1.0]])
        nb = topk_neighbors(centered_gram(x / np.linalg.norm(x, axis=1, keepdims=True)), k=1)
        assert nb[0, 1] and not nb[0, 2]

    def test_duplicate_heavy_instance_matches_oracle(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(4, 3))
        x = base[rng.integers(0, 4, size=12)]  # many exact duplicates
        y = rng.normal(size=(12, 3))
        got = cknna(x, y, k=5)
        want = oracle_cknna(x, y, k=5)
        assert abs(got - want) < 1e-12


def lexsort_topk(gram, k):
    """One lexsort per row: descending value, then ascending index."""
    n = gram.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        row = gram[i].copy()
        row[i] = -np.inf
        order = np.lexsort((np.arange(n), -row))
        out[i, order[:k]] = True
    return out


@st.composite
def tie_heavy_grams(draw):
    """A square matrix over a few values, signed zeros included, and a k."""
    n = draw(st.integers(2, 14))
    values = draw(st.lists(st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0]),
                           min_size=n * n, max_size=n * n))
    k = draw(st.integers(1, n - 1))
    return np.array(values).reshape(n, n), k


class TestTopkNeighbors:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=tie_heavy_grams())
    def test_equals_lexsort_per_row(self, case):
        gram, k = case
        before = gram.copy()
        got = topk_neighbors(gram, k)
        assert np.array_equal(got, lexsort_topk(gram, k))
        assert np.array_equal(gram, before)
        assert (got.sum(axis=1) == k).all() and not got.diagonal().any()

    @pytest.mark.parametrize("k", [1, 10, 499])
    def test_equals_lexsort_on_a_real_gram(self, k):
        x = np.random.default_rng(3).normal(size=(500, 16))
        gram = centered_gram(x)
        assert np.array_equal(topk_neighbors(gram, k), lexsort_topk(gram, k))


class TestEdges:
    def test_degenerate_returns_zero(self):
        x = np.ones((6, 3))  # identical rows: centered kernel vanishes
        y = np.random.default_rng(7).normal(size=(6, 3))
        assert cknna(x, y, k=2) == 0.0

    def test_k_bounds(self):
        x = np.random.default_rng(8).normal(size=(6, 3))
        with pytest.raises(ConfigurationError):
            cknna(x, x, k=0)
        with pytest.raises(ConfigurationError):
            cknna(x, x, k=6)

    def test_too_few_items(self):
        x = np.zeros((2, 3))
        with pytest.raises(DegenerateInputError):
            cknna(x, x, k=1)

    def test_row_count_mismatch(self):
        with pytest.raises(DomainError):
            cknna(np.zeros((5, 2)), np.zeros((6, 2)), k=2)

    def test_non_finite_rejected(self):
        x = np.zeros((5, 2))
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            cknna(bad, x, k=2)

    def test_one_dimensional_rejected(self):
        with pytest.raises(DomainError):
            cknna(np.zeros(5), np.zeros(5), k=2)


class TestLayerProfile:
    def test_shape_and_empty_guard(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(10, 4))
        reps = [rng.normal(size=(10, 6)) for _ in range(3)]
        prof = layer_alignment(reps, ref, k=3)
        assert prof.shape == (3,)
        with pytest.raises(DegenerateInputError):
            layer_alignment([], ref, k=3)

    def test_equals_per_layer_cknna(self):
        rng = np.random.default_rng(11)
        ref = rng.normal(size=(40, 5))
        reps = [rng.normal(size=(40, 7)) for _ in range(4)]
        want = np.array([cknna(r, ref, k=6) for r in reps])
        assert np.array_equal(layer_alignment(reps, ref, k=6), want)
        with pytest.raises(DomainError):
            layer_alignment(reps + [reps[0][:30]], ref, k=6)

    def test_identical_layer_scores_one(self):
        rng = np.random.default_rng(10)
        ref = rng.normal(size=(10, 4))
        prof = layer_alignment([ref, rng.normal(size=(10, 4))], ref, k=3)
        assert prof[0] == pytest.approx(1.0, abs=1e-12)
        assert prof[1] < prof[0]
