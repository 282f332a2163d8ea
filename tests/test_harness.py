"""Orchestration: run determinism, ablation equivalences, artifacts, CLI."""

import inspect
import json
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from flowalign.alignment import AlignConfig
from flowalign.encoder import EncoderConfig
from flowalign.errors import ConfigurationError, TrainingDiagnosticsError
from flowalign.flow import FlowConfig
from flowalign.harness import (
    ExperimentConfig,
    TrainConfig,
    Workspace,
    ablation_table,
    eval_csv_bytes,
    heatmap_tv,
    losses_csv_bytes,
    paired_one_sided_p,
    spearman,
    train_run,
)
from flowalign.synth import DatasetConfig


def micro_experiment(**train_kw):
    return ExperimentConfig(
        data=DatasetConfig(
            speakers=16,
            test_speakers=4,
            train_utterances=80,
            test_utterances=24,
            tokens_min=6,
            tokens_max=10,
            seed=13,
        ),
        encoder_a=EncoderConfig(steps=150, batch_size=64),
        encoder_b=EncoderConfig(hidden=96, embed_dim=24, seed=23, steps=150, batch_size=64, name="encoder-b"),
        flow=FlowConfig(n_blocks=3, hidden=32),
        align=AlignConfig(),
        train=TrainConfig(
            steps=25,
            batch_size=8,
            eval_utterances=16,
            eval_ode_steps=2,
            cknna_k=5,
            **train_kw,
        ),
    )


@pytest.fixture(scope="module")
def workspace():
    ws = Workspace(micro_experiment())
    ws.ensure_encoders(min_accuracy=0.9)
    return ws


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, workspace):
        r1 = workspace.run("layer_time", seed=1)
        r2 = workspace.run("layer_time", seed=1)
        assert losses_csv_bytes(r1.loss_rows) == losses_csv_bytes(r2.loss_rows)
        assert eval_csv_bytes(r1.eval_rows) == eval_csv_bytes(r2.eval_rows)
        assert r1.trunk_hash == r2.trunk_hash

    def test_seed_changes_trajectory(self, workspace):
        r1 = workspace.run("layer_time", seed=1)
        r2 = workspace.run("layer_time", seed=2)
        assert losses_csv_bytes(r1.loss_rows) != losses_csv_bytes(r2.loss_rows)


class TestAblationEquivalences:
    def test_lam_zero_matches_baseline_bitwise(self, workspace):
        """Disabling the auxiliary weight must reproduce the baseline run
        exactly: same loss bytes, same trunk parameters."""
        base = workspace.run("baseline", seed=3)
        tc = TrainConfig(**{**asdict(workspace.exp.train), "seed": 3})
        off = train_run(
            workspace.dataset, workspace.encoder_a, workspace.encoder_b, workspace.exp.flow,
            AlignConfig(mode="layer_time", lam=0.0), tc,
        )
        assert losses_csv_bytes(base.loss_rows) == losses_csv_bytes(off.loss_rows)
        assert base.trunk_hash == off.trunk_hash

    def test_aux_changes_the_trunk(self, workspace):
        base = workspace.run("baseline", seed=3)
        on = workspace.run("layer_time", seed=3)
        assert base.trunk_hash != on.trunk_hash
        # aux column zero for baseline, positive when active
        assert all(row[2] == 0.0 for row in base.loss_rows)
        assert any(row[2] != 0.0 for row in on.loss_rows)

    def test_layer_only_differs_from_layer_time(self, workspace):
        lo = workspace.run("layer_only", seed=3)
        lt = workspace.run("layer_time", seed=3)
        assert lo.trunk_hash != lt.trunk_hash
        assert lo.heatmap_final is None or np.allclose(
            lo.heatmap_final, lo.heatmap_initial
        )


class TestRunArtifacts:
    def test_output_files(self, workspace, tmp_path):
        out = tmp_path / "run"
        r = workspace.run("layer_time", seed=4, out_dir=out)
        for name in (
            "losses.csv",
            "eval.csv",
            "model.json",
            "head.json",
            "report.json",
            "heatmap_initial.csv",
            "heatmap_final.csv",
        ):
            assert (out / name).exists(), name
        rep = json.loads((out / "report.json").read_text())
        assert rep["mode"] == "layer_time" and rep["seed"] == 4
        assert rep["trunk_hash"] == r.trunk_hash
        assert rep["config"] == json.loads(json.dumps(asdict(r.config)))
        assert r.config.train.seed == 4 and r.config.align.mode == "layer_time"
        assert rep["heatmap_tv_from_initial"] == heatmap_tv(r.heatmap_initial, r.heatmap_final)
        assert len(rep["layer_cknna_a"]) == workspace.exp.flow.n_blocks
        body = (out / "losses.csv").read_bytes()
        assert body == losses_csv_bytes(r.loss_rows)
        assert body.startswith(b"step,cfm,aux,total\n")

    def test_baseline_has_no_head_artifacts(self, workspace, tmp_path):
        out = tmp_path / "base"
        workspace.run("baseline", seed=4, out_dir=out)
        assert not (out / "head.json").exists()
        assert not (out / "heatmap_initial.csv").exists()

    def test_heatmap_starts_uniform(self, workspace):
        r = workspace.run("layer_time", seed=5)
        n = workspace.exp.flow.n_blocks
        np.testing.assert_array_equal(
            r.heatmap_initial, np.full_like(r.heatmap_initial, 1.0 / n)
        )


class TestDiagnostics:
    def test_blowup_raises_with_trace(self, workspace, monkeypatch):
        monkeypatch.setattr(TrainConfig, "loss_blowup", 1e-6)
        with pytest.raises(TrainingDiagnosticsError) as exc:
            ws = Workspace(micro_experiment())
            ws.dataset = workspace.dataset
            ws.encoder_a, ws.encoder_b = workspace.encoder_a, workspace.encoder_b
            ws.run("baseline", seed=0)
        assert len(exc.value.loss_trace) >= 1

    def test_divergence_raises_before_the_update(self, workspace, monkeypatch):
        """A non-finite loss at step 3 must leave the parameters of step 2."""
        from flowalign import harness
        from flowalign.serialize import params_hash

        models, hashes = [], []
        real_cfm_loss = harness.cfm_loss

        class Recorded(harness.FlowModel):
            def __init__(self, cfg):
                super().__init__(cfg)
                models.append(self)

        def cfm_nan_at_step3(v, target, mask):
            hashes.append(params_hash(models[0].params))
            loss = real_cfm_loss(v, target, mask)
            return loss * float("nan") if len(hashes) == 4 else loss

        monkeypatch.setattr(harness, "cfm_loss", cfm_nan_at_step3)
        monkeypatch.setattr(harness, "FlowModel", Recorded)
        with pytest.raises(TrainingDiagnosticsError, match="step 3"):
            workspace.run("layer_time", seed=0)
        assert len(hashes) == 4 and hashes[2] != hashes[3]
        assert params_hash(models[0].params) == hashes[3]

    def test_frozen_encoder_required(self, workspace):
        from flowalign.encoder import SpeakerEncoder
        from flowalign.errors import IntegrityError
        from flowalign.harness import train_run

        raw = SpeakerEncoder(EncoderConfig(), n_classes=4)
        with pytest.raises(IntegrityError):
            train_run(
                workspace.dataset,
                raw,
                raw,
                workspace.exp.flow,
                AlignConfig(),
                TrainConfig(steps=1),
            )


    def test_encoders_of_another_corpus_refused(self, workspace, tmp_path):
        """Encoders a workspace trained record its corpus; a run on another manifest refuses them."""
        from dataclasses import replace

        from flowalign.errors import IntegrityError
        from flowalign.synth import generate_dataset, write_manifest

        assert workspace.encoder_a.dataset_hash == workspace.dataset_hash is not None
        assert workspace.encoder_b.dataset_hash == workspace.dataset_hash
        exp = micro_experiment()
        write_manifest(generate_dataset(replace(exp.data, seed=14)), tmp_path / "seed14")
        ws = Workspace(exp)
        ws.encoder_a, ws.encoder_b = workspace.encoder_a, workspace.encoder_b
        ws.load_dataset(tmp_path / "seed14")
        assert ws.dataset_hash != workspace.dataset_hash
        with pytest.raises(IntegrityError, match="encoder-a was trained on dataset"):
            ws.run("baseline", 0)


class TestConfig:
    def test_section_round_trip(self):
        exp = micro_experiment()
        doc = {
            "data": {"speakers": 16, "test_speakers": 4},
            "train": {"steps": 10},
        }
        got = ExperimentConfig.from_dict(doc)
        assert got.data.speakers == 16 and got.train.steps == 10

    @pytest.mark.parametrize(
        "exp", [ExperimentConfig(), micro_experiment(eval_steps=(10, 20))], ids=["default", "micro"]
    )
    def test_dict_round_trip(self, exp):
        assert ExperimentConfig.from_dict(asdict(exp)) == exp
        # through JSON, as a run's report.json holds it: eval_steps is read back as a tuple
        assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(exp)))) == exp

    @pytest.mark.parametrize(
        "cls", [DatasetConfig, EncoderConfig, FlowConfig, AlignConfig, TrainConfig, ExperimentConfig]
    )
    def test_configs_are_frozen(self, cls):
        config = cls()
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"data": {"speekers": 10}})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"trainn": {}})
        # removed fields, and class constants that no config sets
        removed = [
            {"align": {"sa_source": "prompt"}},
            {"train": {"lr": 1e-3}},
            {"train": {"heatmap_points": 0}},
            {"train": {"eval_mask_fraction": 0.3}},
            {"encoder_a": {"holdout_frac": 0.2}},
            {"encoder_b": {"weight_decay": 0.0}},
        ]
        for doc in removed:
            section = next(iter(doc))
            with pytest.raises(ConfigurationError, match=f"unknown {section} fields"):
                ExperimentConfig.from_dict(doc)

    def test_settable_fields(self):
        """Only what a run varies is a field; the rest are class constants, read off an instance."""
        assert [f.name for f in fields(TrainConfig)] == [
            "steps", "batch_size", "time_gate_lr_mult", "adapter_lr_mult", "seed", "eval_steps",
            "eval_utterances", "eval_ode_steps", "cknna_k",
        ]
        assert [f.name for f in fields(EncoderConfig)] == [
            "feat_dim", "hidden", "embed_dim", "seed", "steps", "batch_size", "name",
        ]
        constants = {
            TrainConfig: {"lr": 3e-3, "final_lr_frac": 0.1, "warmup_steps": 40,
                          "weight_decay": 1e-4, "eval_mask_fraction": 0.5, "eval_probe_t": 0.5,
                          "heatmap_points": 21, "loss_blowup": 1e4},
            EncoderConfig: {"lr": 3e-3, "weight_decay": 1e-4, "holdout_frac": 0.1},
        }
        for cls, values in constants.items():
            assert {name: getattr(cls(), name) for name in values} == values

    def test_settable_parameters(self):
        """Functions take only what some caller varies; the values no caller set are constants."""
        from flowalign import optim, serialize, synth, tensor
        from flowalign.encoder import SpeakerEncoder

        params = {
            synth.make_batch: ["utterances", "encoder", "seed"],
            synth.make_speakers: ["count", "dim", "seed"],
            synth.pad_stack: ["arrays"],
            SpeakerEncoder.__init__: ["self", "config", "n_classes"],
            optim.AdamW.__init__: ["self", "params", "lr", "weight_decay", "lr_scale"],
            serialize.params_hash: ["params"],
            tensor.check_gradients: ["f", "x"],
            Workspace.run: ["self", "mode", "seed", "out_dir"],
        }
        for fn, names in params.items():
            assert list(inspect.signature(fn).parameters) == names, fn.__qualname__
        assert synth.MASK_FRACTION_RANGE == (0.3, 0.9)
        assert synth.MIN_SPEAKER_ANGLE_DEG == 5.0
        assert (optim.AdamW.beta1, optim.AdamW.beta2, optim.AdamW.eps) == (0.9, 0.999, 1e-8)

    def test_cross_section_validation(self):
        exp = replace(micro_experiment(), flow=FlowConfig(feat_dim=99))
        with pytest.raises(ConfigurationError):
            exp.validate()

    def test_dim_mismatch_encoder(self):
        exp = replace(micro_experiment(), encoder_a=EncoderConfig(embed_dim=5))
        with pytest.raises(ConfigurationError):
            exp.validate()

    def test_cknna_k_checked_against_the_eval_set(self):
        exp = micro_experiment()
        exp = replace(exp, train=replace(exp.train, cknna_k=15))  # 16 eval utterances: the largest valid k
        exp.validate()
        for k, n_eval, n_test in ((0, 16, 24), (16, 16, 24), (12, 12, 24), (12, 16, 12)):
            bad = replace(exp, train=replace(exp.train, cknna_k=k, eval_utterances=n_eval),
                          data=replace(exp.data, test_utterances=n_test))
            with pytest.raises(ConfigurationError, match="cknna_k"):
                bad.validate()

    def test_train_run_validates_the_inputs_it_is_given(self, workspace):
        # the dataset was drawn with frames_per_token=4
        flow = FlowConfig(n_blocks=3, hidden=32, frames_per_token=2)
        with pytest.raises(ConfigurationError, match="frames_per_token"):
            train_run(workspace.dataset, workspace.encoder_a, workspace.encoder_b, flow,
                      AlignConfig(), TrainConfig(steps=1, eval_utterances=16, cknna_k=5))


class TestAnalysisHelpers:
    def test_heatmap_tv_bounds_and_value(self):
        a = np.array([[1.0, 0.0], [0.5, 0.5]])
        b = np.array([[0.0, 1.0], [0.5, 0.5]])
        # first row moves all mass, second none: mean of (1, 0)
        assert heatmap_tv(a, b) == pytest.approx(0.5)
        assert heatmap_tv(a, a) == 0.0
        with pytest.raises(ConfigurationError):
            heatmap_tv(a, b[:1])

    def test_paired_p_direction(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=8)
        better = base + 1.0 + 0.01 * rng.normal(size=8)
        assert paired_one_sided_p(better, base) < 0.01
        assert paired_one_sided_p(base, better) > 0.5

    def test_spearman_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, x**3) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_ablation_table_shape(self, workspace):
        res = {
            "baseline": [workspace.run("baseline", seed=6)],
            "layer_time": [workspace.run("layer_time", seed=6)],
        }
        table = ablation_table(res)
        assert set(table) == {"baseline", "layer_time"}
        assert table["baseline"]["seeds"] == [6]


class TestEvalContent:
    def test_eval_rows_have_expected_columns(self, workspace):
        r = workspace.run("layer_time", seed=7)
        row = r.eval_rows[-1]
        for key in ("step", "sim_a", "sim_b", "cknna_a_mean", "cknna_b_mean"):
            assert key in row
        assert row["step"] == workspace.exp.train.steps
        assert -1.0 <= row["sim_a"] <= 1.0
        assert len(row["layer_cknna_a"]) == workspace.exp.flow.n_blocks

    def test_periodic_eval(self, workspace):
        exp = micro_experiment(eval_steps=(10, 20))
        ws = Workspace(exp)
        ws.dataset = workspace.dataset
        ws.encoder_a, ws.encoder_b = workspace.encoder_a, workspace.encoder_b
        r = ws.run("baseline", seed=8)
        assert [row["step"] for row in r.eval_rows] == [10, 20, 25]
