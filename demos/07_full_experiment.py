"""The orchestrated experiment: modes, seeds, checkpoints, and reports.

Runs the ablation the package exists for, at a scale that finishes in
a couple of minutes: baseline and adaptive modes over paired seeds,
checkpointed evaluation on one run, and the summary table with a
paired test. The command-line interface wraps exactly this lifecycle:

    flowalign gen-data --config exp.json --out data/
    flowalign train-encoder --config exp.json --data data/ --variant a --out enc_a.json
    flowalign train-encoder --config exp.json --data data/ --variant b --out enc_b.json
    flowalign train --config exp.json --data data/ --encoder-a enc_a.json \
        --encoder-b enc_b.json --mode layer_time --seed 0 --out runs/lt0
    flowalign analyze --config exp.json --run runs/lt0 --data data/ \
        --encoder-a enc_a.json --encoder-b enc_b.json
    flowalign report runs/*/ --out table.json
"""

import tempfile
from pathlib import Path

import numpy as np

from flowalign.encoder import EncoderConfig
from flowalign.flow import FlowConfig
from flowalign.harness import (
    AlignConfig,
    ExperimentConfig,
    TrainConfig,
    Workspace,
    ablation_table,
    paired_one_sided_p,
    run_ablation,
    spearman,
)
from flowalign.synth import DatasetConfig


def main():
    exp = ExperimentConfig(
        data=DatasetConfig(
            speakers=24,
            test_speakers=6,
            train_utterances=140,
            test_utterances=36,
            tokens_min=6,
            tokens_max=12,
            seed=5,
        ),
        encoder_a=EncoderConfig(steps=200, batch_size=64),
        encoder_b=EncoderConfig(
            hidden=96, embed_dim=24, seed=23, steps=200, batch_size=64, name="encoder-b"
        ),
        flow=FlowConfig(n_blocks=4, hidden=32),
        align=AlignConfig(),
        train=TrainConfig(
            steps=200,
            batch_size=8,
            adapter_lr_mult=10.0,
            eval_steps=(10, 25, 50, 100, 150),
            eval_utterances=24,
            eval_ode_steps=8,
            cknna_k=5,
        ),
    )
    ws = Workspace(exp)
    print("== dataset and frozen encoders")
    with tempfile.TemporaryDirectory() as tmp:
        ds_hash = ws.save_dataset(Path(tmp) / "data")
    print(f"dataset hash {ds_hash[:16]}..., "
          f"{len(ws.dataset.train)} train / {len(ws.dataset.test)} test utterances")
    ws.ensure_encoders(min_accuracy=0.9)
    print(f"encoder holdout accuracy: "
          f"A {ws.encoder_reports['a']['holdout_accuracy']:.2f}, "
          f"B {ws.encoder_reports['b']['holdout_accuracy']:.2f}")

    print()
    print("== the ablation: two modes, three paired seeds")
    results = run_ablation(ws, seeds=(0, 1, 2), modes=("baseline", "layer_time"))
    table = ablation_table(results)
    for mode, row in table.items():
        sims = " ".join(f"{v:.3f}" for v in row["sim_a"])
        print(f"{mode:<11s} encoder-A per seed: {sims} | mean {row['sim_a_mean']:.3f} "
              f"(encoder-B mean {row['sim_b_mean']:.3f})")
    p = paired_one_sided_p(table["layer_time"]["sim_a"], table["baseline"]["sim_a"])
    print(f"one-sided paired p (adaptive > baseline): {p:.3f}")
    print("(the conditioning already carries the identity here, so the")
    print(" adaptive mode reshapes representations rather than outputs)")

    print()
    print("== checkpoints of one run: alignment tracks similarity")
    rows = results["baseline"][0].eval_rows
    sims = [r["sim_a"] for r in rows]
    scores = [r["cknna_a_mean"] for r in rows]
    for r in rows:
        print(f"step {r['step']:4d}: similarity {r['sim_a']:.3f}, "
              f"mean alignment {r['cknna_a_mean']:.3f}")
    print(f"Spearman correlation across checkpoints: {spearman(sims, scores):.3f}")

    print()
    print("== where the adaptive run put its weight")
    run = results["layer_time"][0]
    grid = np.linspace(0.0, 1.0, 5)
    for t_val, row in zip(grid, run.head.heatmap(grid)):
        print(f"t={t_val:.2f}: " + " ".join(f"{v:.2f}" for v in row))


if __name__ == "__main__":
    main()
