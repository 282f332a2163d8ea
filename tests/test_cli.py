"""End-to-end command-line lifecycle on a micro configuration."""

import json
import shlex
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from flowalign.cli import build_parser, main
from flowalign.encoder import SpeakerEncoder
from flowalign.errors import ConfigurationError, IntegrityError
from flowalign.flow import FlowConfig, FlowModel
from flowalign.harness import ExperimentConfig, Workspace, train_run
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
        exp = replace(
            exp,
            data=read_manifest(space["data"])[0].config,
            encoder_a=SpeakerEncoder.load(space["enc_a"]).config,
            encoder_b=SpeakerEncoder.load(space["enc_b"]).config,
            align=replace(exp.align, mode="layer_time"),
            train=replace(exp.train, seed=0),
        )
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

    def test_analyze_refuses_encoders_the_run_did_not_use(self, space, tmp_path):
        # same manifest, another seed: the manifest check alone accepts it
        cfg = json.loads(Path(space["config"]).read_text())
        cfg["encoder_a"]["seed"] = 12
        cfg_path = str(tmp_path / "seed12.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        enc = str(tmp_path / "enc_a12.json")
        argv = ["train-encoder", "--data", space["data"], "--out", enc, "--config", cfg_path]
        assert main(argv) == 0
        for encoders in (["--encoder-a", enc, "--encoder-b", space["enc_b"]],
                         ["--encoder-a", space["enc_a"], "--encoder-b", space["enc_a"]]):
            argv = ["analyze", "--run", space["run"], "--data", space["data"], *encoders]
            with pytest.raises(IntegrityError, match="encoder-. was trained with another config"):
                main(argv)

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

    def test_library_run_records_its_manifest(self, space, other, tmp_path):
        # train_run called without a dataset_hash hashes the dataset it is given
        ds, ds_hash = read_manifest(space["data"])
        exp = ExperimentConfig.load(space["config"])
        run = tmp_path / "run_lib"
        train_run(ds, SpeakerEncoder.load(space["enc_a"]), SpeakerEncoder.load(space["enc_b"]),
                  exp.flow, exp.align, exp.train, out_dir=run)
        assert json.loads((run / "report.json").read_text())["dataset_hash"] == ds_hash
        argv = ["analyze", "--run", str(run), "--data", other["data"], *other["encoders"]]
        with pytest.raises(IntegrityError, match="run .* was trained on dataset"):
            main(argv)

    def test_analyze_refuses_a_run_that_records_no_dataset(self, space, tmp_path):
        rep = json.loads((Path(space["run"]) / "report.json").read_text())
        rep["dataset_hash"] = None
        (tmp_path / "report.json").write_text(json.dumps(rep))
        argv = ["analyze", "--run", str(tmp_path), "--data", space["data"], "--encoder-a",
                space["enc_a"], "--encoder-b", space["enc_b"]]
        with pytest.raises(IntegrityError, match="trained on dataset None"):
            main(argv)

    def test_sample_checks_dimensions_only(self, space, tmp_path):
        # 8 test utterances are too few for the default train section's CKNNA k,
        # which sampling does not use; training still refuses the config
        cfg = json.loads(Path(space["config"]).read_text())
        cfg["data"]["test_utterances"] = 8
        del cfg["train"]
        cfg_path = str(tmp_path / "exp8.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        data, enc = str(tmp_path / "data"), str(tmp_path / "enc_a.json")
        assert main(["gen-data", "--out", data, "--config", cfg_path]) == 0
        assert main(["train-encoder", "--data", data, "--out", enc, "--config", cfg_path]) == 0
        model = str(tmp_path / "model.json")
        FlowModel(FlowConfig(**cfg["flow"])).save(model)
        out = tmp_path / "samples.json"
        argv = ["sample", "--model", model, "--data", data, "--encoder", enc, "--out", str(out),
                "--count", "8", "--ode-steps", "2"]
        assert main(argv) == 0
        assert len(json.loads(out.read_text())["samples"]) == 8
        argv = ["train", "--data", data, "--encoder-a", enc, "--encoder-b", enc,
                "--config", cfg_path, "--out", str(tmp_path / "run")]
        with pytest.raises(ConfigurationError, match="cknna_k=10"):
            main(argv)

    def test_train_without_data_checks_encoders(self, space, other):
        ws = Workspace(ExperimentConfig.load(space["config"]))
        ws.ensure_dataset()
        assert ws.dataset_hash == read_manifest(space["data"])[1]
        with pytest.raises(IntegrityError):
            main(["train", *other["encoders"], "--config", space["config"]])

    def test_train_takes_mode_and_seed_from_the_config_unless_flagged(self, space, tmp_path):
        cfg = json.loads(Path(space["config"]).read_text())
        cfg["align"], cfg["train"]["seed"] = {"mode": "baseline"}, 2
        cfg_path = tmp_path / "baseline2.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["train", "--data", space["data"], "--encoder-a", space["enc_a"],
                "--encoder-b", space["enc_b"], "--config", str(cfg_path)]
        for flags, seed in (([], 2), (["--seed", "5"], 5)):
            out = tmp_path / f"run{seed}"
            assert main(argv + flags + ["--out", str(out)]) == 0
            rep = json.loads((out / "report.json").read_text())
            assert (rep["mode"], rep["seed"]) == ("baseline", seed)
            assert rep["config"]["align"]["mode"] == "baseline"
            assert rep["config"]["train"]["seed"] == seed

    def test_unknown_mode_rejected(self, space):
        with pytest.raises(SystemExit):
            main(["train", "--mode", "bogus"])

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda rep: json.dumps(rep)[:-40],  # truncated
            lambda rep: json.dumps([rep]),
            lambda rep: json.dumps({k: v for k, v in rep.items() if k != "mode"}),
            lambda rep: json.dumps({**rep, "final_sim_a": "0.9"}),
        ],
        ids=["truncated", "array", "no_mode", "string_score"],
    )
    def test_report_refuses_a_malformed_report(self, space, tmp_path, tamper):
        rep = json.loads((Path(space["run"]) / "report.json").read_text())
        (tmp_path / "report.json").write_text(tamper(rep))
        with pytest.raises(IntegrityError):
            main(["report", str(tmp_path)])

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda rep: json.dumps(rep)[:-40],  # truncated
            lambda rep: json.dumps({**rep, "config": {**rep["config"], "sandwich": {}}}),
            lambda rep: json.dumps({**rep, "config": {"train": {"steps": "600", "cknna_k": 0}}}),
            lambda rep: json.dumps({**rep, "config": {"flow": {"n_blocks": 0}}}),
        ],
        ids=["truncated", "unknown_section", "string_steps", "invalid_flow"],
    )
    def test_analyze_refuses_a_malformed_report(self, space, tmp_path, tamper):
        rep = json.loads((Path(space["run"]) / "report.json").read_text())
        (tmp_path / "report.json").write_text(tamper(rep))
        argv = ["analyze", "--run", str(tmp_path), "--data", space["data"], "--encoder-a",
                space["enc_a"], "--encoder-b", space["enc_b"]]
        with pytest.raises(IntegrityError):
            main(argv)


MALFORMED_CONFIGS = {
    "string_for_number": '{"train": {"steps": "10"}}',
    "bool_for_number": '{"align": {"lam": true}}',
    "null": '{"data": {"seed": null}}',
    "eval_steps_number": '{"train": {"eval_steps": 5}}',
    "eval_steps_strings": '{"train": {"eval_steps": ["5", "10"]}}',
    "section_not_object": '{"flow": [3, 32]}',
    "top_level_array": '[{"train": {"steps": 10}}]',
    "not_json": '{"train": {"steps": 10}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_refused(name, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(MALFORMED_CONFIGS[name])
    with pytest.raises(ConfigurationError):
        ExperimentConfig.load(path)
    with pytest.raises(ConfigurationError):
        main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


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
