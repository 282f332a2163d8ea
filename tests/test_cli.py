"""End-to-end command-line lifecycle on a micro configuration."""

import json
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest

from flowalign.cli import build_parser, main
from flowalign.encoder import SpeakerEncoder
from flowalign.errors import ConfigurationError, IntegrityError
from flowalign.flow import FlowConfig, FlowModel
from flowalign.harness import ExperimentConfig, Workspace
from flowalign.synth import read_manifest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = ("README.md", "demos/07_full_experiment.py")


@pytest.fixture(scope="module")
def space(tmp_path_factory):
    """Shared directory with config, dataset, encoders, and one run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "data": {
            "speakers": 12,
            "test_speakers": 3,
            "train_utterances": 60,
            "test_utterances": 18,
            "tokens_min": 6,
            "tokens_max": 10,
            "seed": 13,
        },
        "encoder_a": {"steps": 150, "batch_size": 64},
        "encoder_b": {
            "hidden": 96,
            "embed_dim": 24,
            "seed": 23,
            "steps": 150,
            "batch_size": 64,
            "name": "encoder-b",
        },
        "flow": {"n_blocks": 3, "hidden": 32},
        "train": {
            "steps": 20,
            "batch_size": 8,
            "eval_utterances": 12,
            "eval_ode_steps": 2,
            "cknna_k": 5,
        },
    }
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    c = str(cfg_path)

    data = str(root / "data")
    assert main(["gen-data", "--out", data, "--config", c]) == 0
    enc_a = str(root / "enc_a.json")
    enc_b = str(root / "enc_b.json")
    assert main(["train-encoder", "--data", data, "--out", enc_a, "--config", c]) == 0
    assert (
        main(
            ["train-encoder", "--data", data, "--out", enc_b, "--variant", "b", "--config", c]
        )
        == 0
    )
    run = str(root / "run0")
    args = [
        "train",
        "--mode",
        "layer_time",
        "--seed",
        "0",
        "--data",
        data,
        "--encoder-a",
        enc_a,
        "--encoder-b",
        enc_b,
        "--out",
        run,
        "--config",
        c,
    ]
    assert main(args) == 0
    return {"root": root, "config": c, "data": data, "enc_a": enc_a, "enc_b": enc_b, "run": run}


@pytest.fixture(scope="module")
def other(space, tmp_path_factory):
    """A second manifest from the same config at another seed, with its own encoders."""
    root = tmp_path_factory.mktemp("other")
    data = str(root / "data")
    assert main(["gen-data", "--out", data, "--config", space["config"], "--seed", "14"]) == 0
    assert read_manifest(data)[1] != read_manifest(space["data"])[1]
    encoders = []
    for variant in ("a", "b"):
        enc = str(root / f"enc_{variant}.json")
        argv = ["train-encoder", "--data", data, "--out", enc, "--variant", variant]
        assert main(argv + ["--config", space["config"]]) == 0
        encoders += [f"--encoder-{variant}", enc]
    return {"data": data, "encoders": encoders}


class TestLifecycle:
    def test_dataset_written(self, space):
        root = space["root"]
        assert (root / "data" / "manifest.jsonl").exists()
        assert (root / "data" / "features.bin").exists()

    def test_encoders_written(self, space):
        a = json.loads((space["root"] / "enc_a.json").read_text())
        assert a["meta"]["kind"] == "speaker-encoder"

    def test_run_artifacts(self, space):
        run = space["root"] / "run0"
        rep = json.loads((run / "report.json").read_text())
        assert rep["mode"] == "layer_time"
        assert (run / "losses.csv").exists()
        assert (run / "model.json").exists()
        # the config the run was trained with: the manifest's data section, the
        # encoders' own configs, and --config with the run's mode and seed
        exp = ExperimentConfig.load(space["config"])
        exp.data = read_manifest(space["data"])[0].config
        exp.encoder_a = SpeakerEncoder.load(space["enc_a"]).config
        exp.encoder_b = SpeakerEncoder.load(space["enc_b"]).config
        exp.align.mode, exp.train.seed = "layer_time", 0
        assert rep["config"] == json.loads(json.dumps(asdict(exp)))

    def test_sample_writes_continuations(self, space, tmp_path):
        out = tmp_path / "samples.json"
        args = [
            "sample",
            "--model",
            space["run"] + "/model.json",
            "--data",
            space["data"],
            "--encoder",
            space["enc_a"],
            "--out",
            str(out),
            "--count",
            "2",
            "--ode-steps",
            "2",
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert len(doc["samples"]) == 2
        s, e = doc["samples"][0]["span"]
        assert len(doc["samples"][0]["generated"]) == e - s

    def test_analyze_writes_scores_and_no_heatmap(self, space):
        args = [
            "analyze",
            "--run",
            space["run"],
            "--data",
            space["data"],
            "--encoder-a",
            space["enc_a"],
            "--encoder-b",
            space["enc_b"],
        ]
        assert main(args) == 0
        run = space["root"] / "run0"
        doc = json.loads((run / "analysis.json").read_text())
        assert len(doc["layer_cknna_a"]) == 3
        # the gate heatmaps and their distance are train's, in the run's report
        rep = json.loads((run / "report.json").read_text())
        assert 0.0 <= rep["heatmap_tv_from_initial"] <= 1.0
        assert "heatmap_tv_from_initial" not in doc
        assert not (run / "heatmap_analysis.csv").exists()

    def test_report_aggregates(self, space, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["report", space["run"], "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert table["layer_time"]["seeds"] == [0]
        shown = capsys.readouterr().out
        assert "layer_time" in shown

    def test_gen_data_deterministic(self, space, tmp_path):
        again = tmp_path / "data2"
        assert main(["gen-data", "--out", str(again), "--config", space["config"]]) == 0
        first = (space["root"] / "data" / "manifest.jsonl").read_bytes()
        second = (again / "manifest.jsonl").read_bytes()
        assert first == second

    def test_encoder_records_its_manifest(self, space):
        _, ds_hash = read_manifest(space["data"])
        for enc in (space["enc_a"], space["enc_b"]):
            assert json.loads(Path(enc).read_text())["meta"]["dataset_hash"] == ds_hash

    def test_encoder_of_another_manifest_refused(self, space, other, tmp_path):
        encoders = ["--encoder-a", space["enc_a"], "--encoder-b", space["enc_b"]]
        commands = [
            ["train", "--data", other["data"], *encoders, "--config", space["config"]],
            ["sample", "--model", space["run"] + "/model.json", "--data", other["data"],
             "--encoder", space["enc_a"], "--out", str(tmp_path / "samples.json")],
            ["analyze", "--run", space["run"], "--data", other["data"], *encoders],
        ]
        for argv in commands:
            with pytest.raises(IntegrityError):
                main(argv)

    def test_encoder_without_manifest_refused(self, space, tmp_path):
        enc = SpeakerEncoder.load(space["enc_a"])
        enc.dataset_hash = None
        bare = str(tmp_path / "enc_bare.json")
        enc.save(bare)
        encoders = ["--encoder-a", bare, "--encoder-b", space["enc_b"]]
        commands = [
            ["train", "--data", space["data"], *encoders, "--config", space["config"]],
            ["sample", "--model", space["run"] + "/model.json", "--data", space["data"],
             "--encoder", bare, "--out", str(tmp_path / "samples.json")],
            ["analyze", "--run", space["run"], "--data", space["data"], *encoders],
        ]
        for argv in commands:
            with pytest.raises(IntegrityError, match="trained on dataset None"):
                main(argv)

    def test_train_refuses_a_manifest_that_contradicts_the_config(self, space, tmp_path):
        cfg = json.loads(Path(space["config"]).read_text())
        cfg["data"]["frames_per_token"] = 2
        cfg_path = str(tmp_path / "fpt2.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        data, enc = str(tmp_path / "data"), str(tmp_path / "enc.json")
        assert main(["gen-data", "--out", data, "--config", cfg_path]) == 0
        assert main(["train-encoder", "--data", data, "--out", enc, "--config", cfg_path]) == 0
        argv = ["train", "--data", data, "--encoder-a", enc, "--encoder-b", enc,
                "--config", space["config"], "--out", str(tmp_path / "run")]
        with pytest.raises(ConfigurationError, match="frames_per_token"):
            main(argv)
        assert not (tmp_path / "run").exists()

    def test_sample_refuses_a_model_of_another_frames_per_token(self, space, tmp_path):
        model = str(tmp_path / "model.json")
        FlowModel(FlowConfig(n_blocks=3, hidden=32, frames_per_token=2)).save(model)
        argv = ["sample", "--model", model, "--data", space["data"], "--encoder",
                space["enc_a"], "--out", str(tmp_path / "samples.json")]
        with pytest.raises(ConfigurationError, match="frames_per_token"):
            main(argv)

    def test_analyze_reproduces_the_final_eval_row(self, space):
        # no --config: the run's report.json says how it was evaluated
        argv = ["analyze", "--run", space["run"], "--data", space["data"], "--encoder-a",
                space["enc_a"], "--encoder-b", space["enc_b"]]
        assert main(argv) == 0
        run = Path(space["run"])
        doc = json.loads((run / "analysis.json").read_text())
        rep = json.loads((run / "report.json").read_text())
        final = {"sim_a": rep["final_sim_a"], "sim_b": rep["final_sim_b"]}
        final.update({key: rep[key] for key in ("layer_cknna_a", "layer_cknna_b")})
        assert doc == final

    def test_analyze_refuses_a_run_that_records_no_config(self, space, tmp_path):
        rep = json.loads((Path(space["run"]) / "report.json").read_text())
        del rep["config"]
        (tmp_path / "report.json").write_text(json.dumps(rep))
        argv = ["analyze", "--run", str(tmp_path), "--data", space["data"], "--encoder-a",
                space["enc_a"], "--encoder-b", space["enc_b"]]
        with pytest.raises(IntegrityError, match="records no config"):
            main(argv)

    def test_analyze_refuses_a_run_of_another_manifest(self, space, other):
        # the encoders match --data; the run itself was trained on space["data"]
        argv = ["analyze", "--run", space["run"], "--data", other["data"], *other["encoders"]]
        with pytest.raises(IntegrityError, match="run .* was trained on dataset"):
            main(argv)

    def test_train_without_data_checks_encoders(self, space, other):
        ws = Workspace(ExperimentConfig.load(space["config"]))
        ws.ensure_dataset()
        assert ws.dataset_hash == read_manifest(space["data"])[1]
        with pytest.raises(IntegrityError):
            main(["train", *other["encoders"], "--config", space["config"]])

    def test_unknown_mode_rejected(self, space):
        with pytest.raises(SystemExit):
            main(["train", "--mode", "bogus"])


def documented_commands(path):
    """Every ``flowalign ...`` command line in a file, continuations joined."""
    commands, pending = [], None
    for line in path.read_text().splitlines():
        line = line.strip()
        if pending is None and not line.startswith("flowalign "):
            continue
        pending = line if pending is None else pending + " " + line
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        commands.append(pending)
        pending = None
    return commands


def test_documented_commands_parse(capsys):
    failed = []
    for name in DOCUMENTED:
        commands = documented_commands(ROOT / name)
        assert commands, f"no flowalign commands found in {name}"
        for command in commands:
            try:
                build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                failed.append(f"{name}: {command}\n  {capsys.readouterr().err.strip()}")
    assert not failed, "\n".join(failed)
