"""Command-line front end.

Subcommands mirror the experiment lifecycle: gen-data, train-encoder,
train, sample, analyze, report. Every command reads and writes plain
files (JSON, JSONL, CSV) so runs can be scripted and diffed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .alignment import MODES
from .encoder import SpeakerEncoder, train_encoder
from .errors import IntegrityError
from .flow import FlowModel, sample as ode_sample
from .harness import (
    ExperimentConfig,
    Workspace,
    ablation_table,
    eval_inputs,
    evaluate,
    paired_one_sided_p,
)
from .synth import generate_dataset, make_eval_batch, read_manifest, write_manifest


def _load_exp(args) -> ExperimentConfig:
    if args.config:
        return ExperimentConfig.load(args.config)
    return ExperimentConfig()


def cmd_gen_data(args) -> int:
    exp = _load_exp(args)
    if args.seed is not None:
        exp.data.seed = args.seed
    ds = generate_dataset(exp.data)
    h = write_manifest(ds, args.out)
    print(f"wrote {len(ds.train)} train / {len(ds.test)} test utterances to {args.out}")
    print(f"dataset_hash {h}")
    return 0


def cmd_train_encoder(args) -> int:
    ds, ds_hash = read_manifest(args.data)
    exp = _load_exp(args)
    cfg = exp.encoder_a if args.variant == "a" else exp.encoder_b
    enc, report = train_encoder(ds, cfg)
    enc.dataset_hash = ds_hash
    enc.save(args.out)
    print(f"dataset_hash {ds_hash}")
    print(f"holdout_accuracy {report['holdout_accuracy']:.4f}")
    print(f"params_hash {report['params_hash']}")
    print(f"saved {args.out}")
    return 0


def _load_encoder(path, dataset_hash) -> SpeakerEncoder:
    """Load an encoder; refuse one that records no manifest or another than ``dataset_hash``."""
    enc = SpeakerEncoder.load(path)
    if enc.dataset_hash != dataset_hash:
        raise IntegrityError(
            f"encoder {path} was trained on dataset {enc.dataset_hash}, not on {dataset_hash}"
        )
    return enc


def cmd_train(args) -> int:
    exp = _load_exp(args)
    ws = Workspace(exp)
    if args.data:
        ws.load_dataset(args.data)
    else:
        ws.ensure_dataset()  # hashes the corpus, so the encoders' manifests can be checked
    if args.encoder_a:
        ws.encoder_a = _load_encoder(args.encoder_a, ws.dataset_hash)
    if args.encoder_b:
        ws.encoder_b = _load_encoder(args.encoder_b, ws.dataset_hash)
    result = ws.run(args.mode, args.seed, out_dir=args.out)
    print(f"mode {result.mode} seed {result.seed}")
    print(f"final cfm {result.loss_rows[-1][1]:.6f} total {result.loss_rows[-1][3]:.6f}")
    print(f"sim_a {result.final_sim_a:.4f} sim_b {result.final_sim_b:.4f}")
    print(f"trunk_hash {result.trunk_hash}")
    print(f"wall_seconds {result.wall_seconds:.1f}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_sample(args) -> int:
    model = FlowModel.load(args.model)
    ds, ds_hash = read_manifest(args.data)
    enc = _load_encoder(args.encoder, ds_hash)
    ExperimentConfig(data=ds.config, encoder_a=enc.config, flow=model.config).validate()
    utts = ds.test[: args.count]
    batch = make_eval_batch(utts, enc, args.mask_fraction)
    gen = ode_sample(model, batch, args.ode_steps, args.seed)
    rows = []
    for b in range(len(utts)):
        s, e = batch.span[b]
        rows.append(
            {
                "speaker_id": int(batch.speaker_ids[b]),
                "span": [int(s), int(e)],
                "generated": gen[b, s:e].tolist(),
            }
        )
    Path(args.out).write_text(json.dumps({"samples": rows}, indent=2) + "\n")
    print(f"wrote {len(rows)} continuations to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    run = Path(args.run)
    report = json.loads((run / "report.json").read_text())
    if "config" not in report:
        raise IntegrityError(f"run {run} records no config")
    ds, ds_hash = read_manifest(args.data)
    if report["dataset_hash"] not in (None, ds_hash):
        raise IntegrityError(
            f"run {run} was trained on dataset {report['dataset_hash']}, not on {ds_hash}"
        )
    model = FlowModel.load(run / "model.json")
    enc_a = _load_encoder(args.encoder_a, ds_hash)
    enc_b = _load_encoder(args.encoder_b, ds_hash)
    tc = ExperimentConfig.from_dict(report["config"]).train
    row = evaluate(model, eval_inputs(ds, enc_a, tc), {"a": enc_a, "b": enc_b}, tc, tc.steps)
    out = {key: row[key] for key in ("sim_a", "sim_b")}
    for key in ("layer_cknna_a", "layer_cknna_b"):
        out[key] = [float(v) for v in row[key]]
    (run / "analysis.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in out.items() if not k.startswith("layer_")}, indent=2))
    print(f"wrote {run / 'analysis.json'}")
    return 0


def cmd_report(args) -> int:
    by_mode: dict[str, list] = {}
    for d in args.runs:
        # report.json holds a run's RunResult fields by name
        rep = SimpleNamespace(**json.loads((Path(d) / "report.json").read_text()))
        by_mode.setdefault(rep.mode, []).append(rep)
    for mode in by_mode:
        by_mode[mode].sort(key=lambda r: r.seed)
    table = ablation_table(by_mode)
    print(f"{'mode':<12} {'sim_a':>8} {'sim_b':>8}  seeds")
    for mode in MODES:
        if mode not in table:
            continue
        row = table[mode]
        print(
            f"{mode:<12} {row['sim_a_mean']:>8.4f} {row['sim_b_mean']:>8.4f}  {row['seeds']}"
        )
    if "baseline" in table and "layer_time" in table:
        base, full = table["baseline"], table["layer_time"]
        if base["seeds"] == full["seeds"] and len(base["seeds"]) >= 2:
            pa = paired_one_sided_p(full["sim_a"], base["sim_a"])
            pb = paired_one_sided_p(full["sim_b"], base["sim_b"])
            print(f"paired one-sided p (layer_time > baseline): a={pa:.4f} b={pb:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flowalign",
        description="Masked flow matching with time-adaptive per-layer identity supervision.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-encoder", help="train and freeze an identity encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=("a", "b"), default="a")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_train_encoder)

    p = sub.add_parser("train", help="train the flow model in one mode")
    p.add_argument("--mode", choices=MODES, default="layer_time")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data")
    p.add_argument("--encoder-a")
    p.add_argument("--encoder-b")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="generate continuations from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--ode-steps", type=int, default=32)
    p.add_argument("--mask-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("analyze", help="layer alignment and gate analysis of a run")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--encoder-a", required=True)
    p.add_argument("--encoder-b", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("report", help="aggregate run reports into a table")
    p.add_argument("runs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
