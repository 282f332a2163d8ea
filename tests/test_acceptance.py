"""Acceptance gate: one test per top-level requirement of the laboratory.

The cheap property suites (gradients, loss identities, alignment-score
correctness) run on toy instances. The expensive requirements share one
module-scoped experiment at the default data scale: three modes trained
over five paired seeds, with checkpointed evaluation on the seed-0
baseline. Tolerances and budgets are pinned as module constants.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from flowalign.alignment import AlignConfig, AlignmentHead
from flowalign.cknna import cknna
from flowalign.flow import FlowConfig, FlowModel, cfm_loss, make_interpolant
from flowalign.harness import (
    ExperimentConfig,
    TrainConfig,
    Workspace,
    cknna_eval,
    heatmap_tv,
    losses_csv_bytes,
    paired_one_sided_p,
    spearman,
    train_run,
)
from flowalign.synth import generate_dataset, make_eval_batch, write_manifest
from flowalign.tensor import Tensor, check_gradients

from test_cknna import oracle_cknna

GRAD_TOL = 1e-4  # max relative error against central differences
GRAD_CASES = 100
GRAD_BUDGET_S = 120.0
EXACT_TOL = 1e-12  # analytic identities and oracle equivalence
INVARIANCE_TOL = 1e-9  # transform invariances of the alignment score
P_THRESHOLD = 0.05  # one-sided paired t test on the ablation
TV_MIN = 0.1  # required movement of the gate heatmap
EXPERIMENT_BUDGET_S = 3600.0

SEEDS = (0, 1, 2, 3, 4)
MODES = ("baseline", "layer_only", "layer_time")
# training profile for the shared experiment; data, model, and loss
# constants stay at package defaults
PROFILE = dict(steps=600, adapter_lr_mult=10.0)
CHECKPOINTS = (5, 10, 20, 40, 80, 160, 320)  # the final step is always added
PROBE_TS = (0.1, 0.3, 0.5, 0.7, 0.9)


def unit_rows(rng, shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def swapped(params, name, compute):
    """Loss as a function of one named parameter, for gradient checks."""
    orig = params[name]

    def f(probe):
        params[name] = probe
        try:
            return compute()
        finally:
            params[name] = orig

    return f, orig


class TestGradients:
    def test_losses_match_finite_differences(self):
        """Analytic gradients of every loss agree with central differences
        on randomized toy instances, within GRAD_TOL, inside the budget."""
        t0 = time.monotonic()
        rng = np.random.default_rng(97)
        cases = 0
        worst = 0.0

        # reconstruction loss, gradient with respect to the prediction
        for _ in range(30):
            B = int(rng.integers(1, 4))
            T = int(rng.integers(3, 8))
            D = int(rng.integers(2, 6))
            target = rng.normal(size=(B, T, D))
            mask = (rng.random((B, T)) < 0.6).astype(np.float64)
            mask[int(rng.integers(0, B)), int(rng.integers(0, T))] = 1.0
            v = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
            err = check_gradients(lambda p: cfm_loss(p, target, mask), v)
            worst = max(worst, err)
            cases += 1

        # per-layer adapter distances, gradient with respect to one tap
        for trial in range(25):
            B, T = int(rng.integers(2, 4)), int(rng.integers(3, 7))
            n_layers = int(rng.integers(2, 5))
            tap_dim = int(rng.integers(3, 7))
            embed_dim = int(rng.integers(3, 6))
            head = AlignmentHead(
                AlignConfig(mode="layer_time", seed=trial),
                n_layers,
                tap_dim,
                embed_dim,
            )
            taps = [
                Tensor(rng.normal(size=(B, T, tap_dim)), requires_grad=True)
                for _ in range(n_layers)
            ]
            valid_len = rng.integers(1, T + 1, size=B)
            e_sa = unit_rows(rng, (B, embed_dim))
            wfix = rng.random((B, n_layers)) + 0.1
            j = int(rng.integers(0, n_layers))

            def dist_sum(probe):
                ts = list(taps)
                ts[j] = probe
                return (head.layer_distances(ts, valid_len, e_sa) * wfix).sum()

            worst = max(worst, check_gradients(dist_sum, taps[j]))
            cases += 1

        # gated auxiliary loss, gradients with respect to head parameters
        for trial in range(25):
            B, T = int(rng.integers(2, 4)), int(rng.integers(3, 7))
            n_layers = int(rng.integers(2, 4))
            tap_dim, embed_dim = 4, 3
            head = AlignmentHead(
                AlignConfig(mode="layer_time", seed=100 + trial),
                n_layers,
                tap_dim,
                embed_dim,
            )
            # move the gate off its uniform start so its gradients are generic
            head.params["tg_w2"].data[...] = rng.normal(
                size=head.params["tg_w2"].shape
            )
            taps = [Tensor(rng.normal(size=(B, T, tap_dim))) for _ in range(n_layers)]
            valid_len = rng.integers(1, T + 1, size=B)
            e_sa = unit_rows(rng, (B, embed_dim))
            t = rng.uniform(0.0, 1.0, size=B)
            name = ["ad0_w2", "tg_w1", "tg_w2", "ad1_b1", "tg_b2"][trial % 5]
            f, orig = swapped(
                head.params,
                name,
                lambda: head.loss(taps, valid_len, e_sa, t)[0],
            )
            worst = max(worst, check_gradients(f, orig))
            cases += 1

        # total objective through the flow network, trunk and head parameters
        cfg = FlowConfig(
            feat_dim=4,
            hidden=8,
            n_blocks=2,
            vocab=6,
            token_embed_dim=4,
            cond_dim=5,
            time_embed_dim=8,
            frames_per_token=2,
        )
        names = [
            "in_w",
            "cond_w",
            "time_b1",
            "blk0_w2",
            "blk1_b1",
            "out_w",
            "ad0_w1",
            "tg_w2",
        ]
        for trial in range(20):
            model = FlowModel(FlowConfig(**{**cfg.__dict__, "seed": trial}))
            head = AlignmentHead(
                AlignConfig(mode="layer_time", seed=trial), model.n_taps, 8, 4
            )
            head.params["tg_w2"].data[...] = 0.5 * rng.normal(
                size=head.params["tg_w2"].shape
            )
            B, Tc = 2, 3
            T = Tc * cfg.frames_per_token
            x1 = rng.normal(size=(B, T, cfg.feat_dim))
            mask = (rng.random((B, T)) < 0.5).astype(np.float64)
            mask[:, 0] = 1.0
            t = rng.uniform(0.0, 1.0, size=B)
            noise = rng.normal(size=x1.shape)
            x_t, target = make_interpolant(x1, mask, t, noise)
            cond = unit_rows(rng, (B, cfg.cond_dim))
            cond_tokens = rng.integers(0, cfg.vocab, size=(B, Tc))
            valid_len = np.array([T, T - 2])
            e_sa = unit_rows(rng, (B, 4))

            def total():
                v, taps = model.forward(x_t, t, cond, cond_tokens, mask, valid_len)
                aux, _ = head.loss(taps, valid_len, e_sa, t)
                return cfm_loss(v, target, mask) + 0.5 * aux

            name = names[trial % len(names)]
            store = head.params if name.startswith(("ad", "tg")) else model.params
            f, orig = swapped(store, name, total)
            worst = max(worst, check_gradients(f, orig))
            cases += 1

        elapsed = time.monotonic() - t0
        assert cases == GRAD_CASES
        assert worst < GRAD_TOL, f"worst relative error {worst:.3e}"
        assert elapsed < GRAD_BUDGET_S, f"gradient suite took {elapsed:.0f}s"


@pytest.mark.slow
class TestLossIdentities:
    def test_analytic_identities(self, zero_pair):
        """A perfect prediction has zero reconstruction loss; a uniform gate
        reduces the auxiliary loss to mean distance minus the entropy bonus;
        a zero auxiliary weight leaves total equal to reconstruction."""
        rng = np.random.default_rng(3)
        B, T, D = 3, 6, 5
        target = rng.normal(size=(B, T, D))
        mask = (rng.random((B, T)) < 0.7).astype(np.float64)
        mask[0, 0] = 1.0
        perfect = cfm_loss(Tensor(target.copy()), target, mask)
        assert abs(float(perfect.data)) <= EXACT_TOL

        n_layers = 4
        head = AlignmentHead(AlignConfig(mode="layer_time"), n_layers, 5, 4)
        taps = [Tensor(rng.normal(size=(B, T, 5))) for _ in range(n_layers)]
        valid_len = np.array([6, 4, 5])
        e_sa = unit_rows(rng, (B, 4))
        t = rng.uniform(0.0, 1.0, size=B)
        loss, _ = head.loss(taps, valid_len, e_sa, t)  # gate starts uniform
        d = head.layer_distances(taps, valid_len, e_sa).data
        expected = d.mean() - head.config.alpha * math.log(n_layers)
        assert abs(float(loss.data) - expected) <= EXACT_TOL

        flat = AlignmentHead(AlignConfig(mode="layer_only"), n_layers, 5, 4)
        flat_loss, _ = flat.loss(taps, valid_len, e_sa, t)
        flat_d = flat.layer_distances(taps, valid_len, e_sa).data
        assert abs(float(flat_loss.data) - flat_d.mean()) <= EXACT_TOL

        _, zero = zero_pair
        for _, cfm_val, aux_val, total_val in zero.loss_rows:
            assert aux_val == 0.0
            assert abs(total_val - cfm_val) <= EXACT_TOL


class TestAlignmentScoreCorrectness:
    def test_oracle_and_invariances(self):
        """The mutual-neighbor alignment score matches a brute-force oracle
        on random instances and is invariant to orthogonal maps, scaling,
        sign flips, and joint row permutations."""
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, n - 1))
            x = rng.normal(size=(n, int(rng.integers(2, 9))))
            y = rng.normal(size=(n, int(rng.integers(2, 9))))
            got = cknna(x, y, k=k)
            want = oracle_cknna(x, y, k=k)
            assert abs(got - want) <= EXACT_TOL, f"trial {trial}"

        x = rng.normal(size=(20, 7))
        assert abs(cknna(x, x, k=6) - 1.0) <= EXACT_TOL

        y = rng.normal(size=(20, 5))
        base = cknna(x, y, k=6)
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        assert abs(cknna(x @ q, y, k=6) - base) <= INVARIANCE_TOL
        assert abs(cknna(-x, y, k=6) - base) <= INVARIANCE_TOL
        raw = cknna(x, y, k=6, normalize=False)
        assert abs(cknna(3.7 * x, y, k=6, normalize=False) - raw) <= INVARIANCE_TOL
        perm = rng.permutation(20)
        assert abs(cknna(x[perm], y[perm], k=6) - base) <= INVARIANCE_TOL


@pytest.fixture(scope="module")
def zero_pair(lab):
    """A 500-step baseline run and its zero-weight adaptive twin."""
    ds = lab["ws"].dataset
    enc_a, enc_b = lab["ws"].encoder_a, lab["ws"].encoder_b
    tc = TrainConfig(steps=500, seed=7, eval_utterances=64, eval_ode_steps=4)
    base = train_run(ds, enc_a, enc_b, FlowConfig(), AlignConfig(mode="baseline"), tc)
    tc = TrainConfig(steps=500, seed=7, eval_utterances=64, eval_ode_steps=4)
    zero = train_run(
        ds, enc_a, enc_b, FlowConfig(), AlignConfig(mode="layer_time", lam=0.0), tc
    )
    return base, zero


@pytest.mark.slow
class TestZeroWeightEquivalence:
    def test_zero_weight_run_is_bitwise_baseline(self, zero_pair):
        """With the auxiliary weight at zero, the adaptive mode consumes the
        same randomness and produces the same bytes as the baseline."""
        base, zero = zero_pair
        assert losses_csv_bytes(base.loss_rows) == losses_csv_bytes(zero.loss_rows)
        assert base.trunk_hash == zero.trunk_hash


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    """Dataset, frozen encoders, and the full mode-by-seed experiment."""
    root = tmp_path_factory.mktemp("acceptance")
    ws = Workspace(replace(ExperimentConfig(), train=TrainConfig(**PROFILE)))
    ws.save_dataset(root / "data")
    t0 = time.monotonic()
    ws.ensure_encoders()

    results = {mode: [] for mode in MODES}
    for seed in SEEDS:
        for mode in MODES:
            cadenced = mode == "baseline" and seed == 0
            ws.exp = replace(
                ws.exp, train=TrainConfig(**PROFILE, eval_steps=CHECKPOINTS if cadenced else ())
            )
            results[mode].append(
                ws.run(mode, seed, out_dir=root / f"{mode}_seed{seed}")
            )
    return {
        "ws": ws,
        "root": root,
        "results": results,
        "experiment_seconds": time.monotonic() - t0,
    }


def mode_means(results, attr):
    return {m: float(np.mean([getattr(r, attr) for r in results[m]])) for m in MODES}


@pytest.mark.slow
class TestExperiment:
    def test_adaptive_mode_improves_similarity(self, lab):
        """Across five paired seeds the gated adaptive mode must beat the
        baseline on held-out identity similarity under both scoring
        encoders, with a one-sided paired t test under threshold, and the
        ungated variant must not trail the baseline in more than one seed."""
        results = lab["results"]
        mean_a = mode_means(results, "final_sim_a")
        mean_b = mode_means(results, "final_sim_b")
        lt_a = [r.final_sim_a for r in results["layer_time"]]
        base_a = [r.final_sim_a for r in results["baseline"]]
        lo_wins = sum(
            lo.final_sim_a >= b.final_sim_a
            for lo, b in zip(results["layer_only"], results["baseline"])
        )
        p = paired_one_sided_p(lt_a, base_a)
        table = "\n".join(
            f"  {m:<10s} sim_a={mean_a[m]:.4f} sim_b={mean_b[m]:.4f} "
            + " ".join(f"{r.final_sim_a:.4f}" for r in results[m])
            for m in MODES
        )
        detail = (
            f"\nper-mode means and per-seed encoder-A similarity:\n{table}\n"
            f"paired one-sided p (layer_time > baseline): {p:.4f}\n"
            f"layer_only >= baseline in {lo_wins}/{len(SEEDS)} seeds\n"
            f"experiment wall time: {lab['experiment_seconds']:.0f}s"
        )
        assert lab["experiment_seconds"] < EXPERIMENT_BUDGET_S, detail
        ok = (
            mean_a["layer_time"] > mean_a["baseline"]
            and mean_b["layer_time"] > mean_b["baseline"]
            and p < P_THRESHOLD
            and lo_wins >= 4
        )
        assert ok, detail

    def test_cknna_tracks_similarity_across_checkpoints(self, lab):
        """Across checkpoints of a baseline run, mean layer alignment with
        the identity encoder must correlate positively with generated
        similarity (Spearman)."""
        rows = lab["results"]["baseline"][0].eval_rows
        assert len(rows) >= 8
        sims = [row["sim_a"] for row in rows]
        scores = [row["cknna_a_mean"] for row in rows]
        rho = spearman(sims, scores)
        assert rho > 0.0, f"rho={rho:.3f} over {len(rows)} checkpoints\n{scores}"

    def test_identity_information_is_nonuniform(self, lab):
        """On trained baselines, layer alignment varies across layers and
        flow times by more than twice the seed noise of any grid point."""
        ws = lab["ws"]
        batch = make_eval_batch(
            ws.dataset.test[: ws.exp.train.eval_utterances], ws.encoder_a, 0.5
        )
        noise = np.random.default_rng(2024).standard_normal(batch.x1.shape)
        encoders = {"a": ws.encoder_a, "b": ws.encoder_b}
        grid = np.stack(
            [
                np.stack(
                    [
                        cknna_eval(r.model, batch, encoders, t, noise, 10)["a"]
                        for t in PROBE_TS
                    ]
                )
                for r in lab["results"]["baseline"]
            ]
        )  # (seeds, times, layers)
        mean = grid.mean(axis=0)
        seed_std = grid.std(axis=0, ddof=1)
        spread = float(mean.max() - mean.min())
        worst_noise = float(seed_std.max())
        assert spread > 2.0 * worst_noise, (
            f"spread {spread:.4f} vs max point std {worst_noise:.4f}\n{mean}"
        )

    def test_gate_heatmap_moves_from_uniform(self, lab):
        """Training must move the gate away from its uniform start (total
        variation above threshold) and the exported heatmap must be a
        plot-ready table: t column plus one simplex weight per layer."""
        run = lab["results"]["layer_time"][0]
        tv = heatmap_tv(run.heatmap_initial, run.heatmap_final)
        assert tv > TV_MIN, f"tv={tv:.3f}"

        path = lab["root"] / "layer_time_seed0" / "heatmap_final.csv"
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in row] for row in reader]
        n_layers = run.heatmap_final.shape[1]
        assert header == ["t"] + [f"layer{i}" for i in range(n_layers)]
        ts = [row[0] for row in rows]
        assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 1.0
        weights = np.array([row[1:] for row in rows])
        assert np.isfinite(weights).all() and (weights >= 0.0).all()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.slow
class TestReproducibility:
    def test_identical_runs_identical_bytes(self, lab, tmp_path):
        """The same configuration and seeds must reproduce the dataset hash
        and the loss table byte for byte."""
        ws = lab["ws"]
        ds2 = generate_dataset(ws.exp.data)
        hash2 = write_manifest(ds2, tmp_path / "data2")
        assert hash2 == ws.dataset_hash

        tc = TrainConfig(steps=100, seed=11, eval_utterances=32, eval_ode_steps=2)
        runs = [
            train_run(
                ws.dataset,
                ws.encoder_a,
                ws.encoder_b,
                FlowConfig(),
                AlignConfig(mode="layer_time"),
                TrainConfig(**tc.__dict__),
            )
            for _ in range(2)
        ]
        assert losses_csv_bytes(runs[0].loss_rows) == losses_csv_bytes(runs[1].loss_rows)
        assert runs[0].trunk_hash == runs[1].trunk_hash
