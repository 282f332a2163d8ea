"""End-to-end command-line lifecycle on a micro configuration."""

import json
import shlex
from pathlib import Path

import pytest

from flowalign.cli import build_parser, main
from flowalign.errors import IntegrityError
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

    def test_analyze_writes_heatmap_and_scores(self, space):
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
            "--config",
            space["config"],
        ]
        assert main(args) == 0
        run = space["root"] / "run0"
        doc = json.loads((run / "analysis.json").read_text())
        assert len(doc["layer_cknna_a"]) == 3
        assert "heatmap_tv_from_initial" in doc
        assert (run / "heatmap_analysis.csv").exists()

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

    def test_encoder_of_another_manifest_refused(self, space, tmp_path):
        other = str(tmp_path / "other")
        assert main(["gen-data", "--out", other, "--config", space["config"], "--seed", "14"]) == 0
        assert read_manifest(other)[1] != read_manifest(space["data"])[1]
        encoders = ["--encoder-a", space["enc_a"], "--encoder-b", space["enc_b"]]
        commands = [
            ["train", "--data", other, *encoders, "--config", space["config"]],
            ["sample", "--model", space["run"] + "/model.json", "--data", other,
             "--encoder", space["enc_a"], "--out", str(tmp_path / "samples.json")],
            ["analyze", "--run", space["run"], "--data", other, *encoders,
             "--config", space["config"]],
        ]
        for argv in commands:
            with pytest.raises(IntegrityError):
                main(argv)

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
