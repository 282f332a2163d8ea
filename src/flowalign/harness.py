"""Experiment orchestration: training loops, evaluation, ablations, reports.

A run is fully determined by (dataset config, encoder configs, flow
config, alignment config, train config). Random state is split into
named streams per concern (batch order, mask spans, path noise, time
draws, evaluation) so that runs differing only in the auxiliary loss
consume identical randomness for everything they share. Loss CSVs are
written with repr() float formatting and fixed newlines so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import tensor as tz
from .alignment import AlignConfig, AlignmentHead
from .encoder import EncoderConfig, SpeakerEncoder, similarity_score, train_encoder
from .errors import ConfigurationError, IntegrityError, TrainingDiagnosticsError
from .flow import FlowConfig, FlowModel, _length_chunks, make_interpolant, cfm_loss, sample
from .cknna import layer_alignment
from .optim import AdamW, cosine_warmup_lr
from .serialize import config_from_json, params_hash
from .synth import (
    DatasetConfig,
    SynthDataset,
    generate_dataset,
    make_batch,
    make_eval_batch,
    manifest_hash,
    pad_stack,
    read_manifest,
    write_manifest,
)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 600
    batch_size: int = 16
    time_gate_lr_mult: float = 10.0
    adapter_lr_mult: float = 1.0
    seed: int = 0
    eval_steps: tuple = ()  # checkpoints before the last step, which is always evaluated
    eval_utterances: int = 500
    eval_ode_steps: int = 32
    cknna_k: int = 10
    # the same in every run, so no config sets them; an instance reads them like fields
    lr: ClassVar[float] = 3e-3
    final_lr_frac: ClassVar[float] = 0.1
    warmup_steps: ClassVar[int] = 40
    weight_decay: ClassVar[float] = 1e-4
    eval_mask_fraction: ClassVar[float] = 0.5
    eval_probe_t: ClassVar[float] = 0.5
    heatmap_points: ClassVar[int] = 21
    loss_blowup: ClassVar[float] = 1e4

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigurationError("steps and batch_size must be positive")
        if self.eval_ode_steps < 1:
            raise ConfigurationError("eval_ode_steps must be >= 1")
        if any(s < 1 or s > self.steps for s in self.eval_steps):
            raise ConfigurationError("eval_steps entries must lie in [1, steps]")


@dataclass
class RunResult:
    mode: str
    seed: int
    loss_rows: list  # (step, cfm, aux, total)
    eval_rows: list  # dicts
    final_sim_a: float
    final_sim_b: float
    layer_cknna_a: np.ndarray
    layer_cknna_b: np.ndarray
    heatmap_initial: np.ndarray
    heatmap_final: np.ndarray
    trunk_hash: str
    wall_seconds: float
    config: ExperimentConfig  # the run's inputs, as validated by train_run
    dataset_hash: str | None = None
    model: object = None
    head: object = None


def _f(x) -> str:
    return repr(float(x))


def _csv_bytes(header: list, rows) -> bytes:
    """CSV of string cells: the header, then each row, every line ending in a newline."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows]).encode("utf-8")


def losses_csv_bytes(loss_rows) -> bytes:
    return _csv_bytes(
        ["step", "cfm", "aux", "total"],
        ([str(step), _f(c), _f(a), _f(t)] for step, c, a, t in loss_rows),
    )


def eval_csv_bytes(eval_rows) -> bytes:
    cols = ["step", "sim_a", "sim_b", "cknna_a_mean", "cknna_b_mean"]
    return _csv_bytes(cols, ([str(r["step"])] + [_f(r[c]) for c in cols[1:]] for r in eval_rows))


def heatmap_csv_bytes(t_grid, heatmap) -> bytes:
    header = ["t"] + [f"layer{i}" for i in range(heatmap.shape[1])]
    return _csv_bytes(header, ([_f(t)] + [_f(v) for v in row] for t, row in zip(t_grid, heatmap)))


# -- evaluation ----------------------------------------------------------------


def layer_representations(model, batch, t_value: float, noise: np.ndarray) -> list[np.ndarray]:
    """Frame-pooled hidden state of every block at one flow time.

    The probe state is the training interpolant built from a fixed noise
    draw, so the representation depends only on the parameters. The trunk
    is per-frame, so the items run in chunks: each chunk builds its own
    interpolant from its slice of the batch and the noise, and the taps
    of ``FlowModel.taps``, read without grad, pool each block's rows per
    item as the block returns, so neither a padded tap nor all twelve
    blocks' rows are ever held. The interpolant is elementwise, and the
    result equals ``mean_pool_time`` of the full padded batch's taps bit
    for bit.
    """
    t = np.full(batch.x1.shape[0], float(t_value))
    lens = np.asarray(batch.valid_len)
    chunks = _length_chunks(lens)
    pooled = []
    with tz.no_grad():
        for idx, L in chunks:
            mask = batch.mask[idx, :L]
            x_t, _ = make_interpolant(batch.x1[idx, :L], mask, t[idx], noise[idx, :L])
            means = model.taps(
                x_t, t[idx], batch.cond[idx], batch.cond_tokens[idx], mask, lens[idx]
            ).item_means()
            pooled.append([m.data for m in means])
    back = np.argsort(np.concatenate([idx for idx, _ in chunks]))
    return [np.concatenate(layer)[back] for layer in zip(*pooled)]


def cknna_eval(model, batch, encoders, t_value, noise, k) -> dict:
    reps = layer_representations(model, batch, t_value, noise)
    out = {}
    for name, enc in encoders.items():
        ref = np.asarray(enc.embed(batch.x1, batch.valid_len).data)
        out[name] = layer_alignment(reps, ref, k=k)
    return out


def _streams(seed: int) -> list:
    """The run's random streams: batch order, mask spans, path noise, flow times, evaluation."""
    return np.random.SeedSequence([seed, 70919]).spawn(5)


def eval_inputs(dataset: SynthDataset, encoder_a: SpeakerEncoder, cfg: TrainConfig) -> tuple:
    """The run's eval batch, CKNNA probe noise and sampler seed, from its evaluation stream."""
    probe_seed, sample_seed = _streams(cfg.seed)[4].spawn(2)
    batch = make_eval_batch(dataset.test[: cfg.eval_utterances], encoder_a, cfg.eval_mask_fraction)
    noise = np.random.default_rng(probe_seed).standard_normal(batch.x1.shape)
    return batch, noise, sample_seed


def evaluate(model, inputs, encoders, cfg: TrainConfig, step: int) -> dict:
    """One eval row from ``eval_inputs``: per encoder, the similarity of each
    generated span to its prompt and the CKNNA of every layer."""
    batch, noise, sample_seed = inputs
    gen = sample(model, batch, cfg.eval_ode_steps, sample_seed)
    parts = [gen[b, s:e] for b, (s, e) in enumerate(batch.span)]
    gen_feats = pad_stack(parts)
    gen_lens = np.array([p.shape[0] for p in parts], dtype=np.int64)
    scores = cknna_eval(model, batch, encoders, cfg.eval_probe_t, noise, cfg.cknna_k)
    row = {"step": step}
    for name, enc in encoders.items():
        row[f"sim_{name}"] = similarity_score(
            enc, gen_feats, gen_lens, batch.prompt_features, batch.prompt_len
        )
        row[f"cknna_{name}_mean"] = float(scores[name].mean())
        row[f"layer_cknna_{name}"] = scores[name]
    return row


# -- the training loop ---------------------------------------------------------


def train_run(
    dataset: SynthDataset,
    encoder_a: SpeakerEncoder,
    encoder_b: SpeakerEncoder,
    flow_cfg: FlowConfig,
    align_cfg: AlignConfig,
    train_cfg: TrainConfig,
    out_dir=None,
    dataset_hash: str | None = None,
) -> RunResult:
    """One full training run of the configured mode.

    The auxiliary pass is skipped whenever it cannot contribute (baseline
    mode or lam == 0), which leaves the trunk's gradients, optimizer
    state, and loss trajectory identical to a run without the head.
    Without ``dataset_hash`` the run hashes ``dataset`` itself, so every
    run records the manifest it was trained on; an encoder that records
    another manifest is refused.
    """
    config = ExperimentConfig(
        dataset.config, encoder_a.config, encoder_b.config, flow_cfg, align_cfg, train_cfg
    )
    config.validate()
    encoder_a.check_frozen()
    encoder_b.check_frozen()
    t0 = time.monotonic()
    if dataset_hash is None:
        dataset_hash = manifest_hash(dataset)
    for name, enc in (("a", encoder_a), ("b", encoder_b)):
        if enc.dataset_hash not in (None, dataset_hash):
            raise IntegrityError(
                f"encoder-{name} was trained on dataset {enc.dataset_hash}, not on {dataset_hash}"
            )

    model = FlowModel(flow_cfg)
    aux_active = align_cfg.mode != "baseline" and align_cfg.lam > 0.0
    head = None
    params = dict(model.params)
    if align_cfg.mode != "baseline":
        head = AlignmentHead(
            align_cfg, model.n_taps, flow_cfg.hidden, encoder_a.config.embed_dim
        )
        overlap = set(params) & set(head.params)
        if overlap:
            raise ConfigurationError(f"parameter name collision: {sorted(overlap)}")
        params.update(head.params)

    opt = AdamW(
        params,
        lr=train_cfg.lr,
        weight_decay=train_cfg.weight_decay,
        lr_scale={
            "tg_": train_cfg.time_gate_lr_mult,
            "ad": train_cfg.adapter_lr_mult,
        },
    )

    streams = _streams(train_cfg.seed)[:4]  # the fifth is eval_inputs'
    order_rng, span_rng, noise_rng, t_rng = (np.random.default_rng(s) for s in streams)

    inputs = eval_inputs(dataset, encoder_a, train_cfg)
    encoders = {"a": encoder_a, "b": encoder_b}
    t_grid = np.linspace(0.0, 1.0, train_cfg.heatmap_points)
    heat0 = head.heatmap(t_grid) if head is not None else None

    n_train = len(dataset.train)
    eval_set = set(train_cfg.eval_steps)
    loss_rows = []
    eval_rows = []
    for step in range(train_cfg.steps):
        idx = order_rng.integers(0, n_train, size=train_cfg.batch_size)
        batch = make_batch([dataset.train[i] for i in idx], encoder_a, span_rng)
        t = t_rng.uniform(0.0, 1.0, size=train_cfg.batch_size)
        noise = noise_rng.standard_normal(batch.x1.shape)
        x_t, target = make_interpolant(batch.x1, batch.mask, t, noise)

        v, taps = model.forward(
            x_t, t, batch.cond, batch.cond_tokens, batch.mask, batch.valid_len
        )
        loss_cfm = cfm_loss(v, target, batch.mask)
        if aux_active:
            loss_aux, _ = head.loss(taps, batch.valid_len, batch.cond, t)
            total = loss_cfm + align_cfg.lam * loss_aux
            aux_val = float(loss_aux.data)
        else:
            total = loss_cfm
            aux_val = 0.0

        total_val = float(total.data)
        loss_rows.append((step, float(loss_cfm.data), aux_val, total_val))
        # checked before the update, so a diverged loss never reaches the parameters
        if not np.isfinite(total_val) or total_val > train_cfg.loss_blowup:
            raise TrainingDiagnosticsError(
                f"loss diverged at step {step}: {total_val}",
                loss_trace=[row[3] for row in loss_rows[-20:]],
            )

        opt.zero_grad()
        total.backward()
        opt.step(
            lr=cosine_warmup_lr(
                step,
                train_cfg.steps,
                train_cfg.lr,
                train_cfg.lr * train_cfg.final_lr_frac,
                train_cfg.warmup_steps,
            )
        )

        if (step + 1) in eval_set:
            eval_rows.append(evaluate(model, inputs, encoders, train_cfg, step + 1))

    if not eval_rows or eval_rows[-1]["step"] != train_cfg.steps:
        eval_rows.append(evaluate(model, inputs, encoders, train_cfg, train_cfg.steps))

    encoder_a.check_frozen()
    encoder_b.check_frozen()

    heat1 = head.heatmap(t_grid) if head is not None else None
    last = eval_rows[-1]
    result = RunResult(
        mode=align_cfg.mode,
        seed=train_cfg.seed,
        loss_rows=loss_rows,
        eval_rows=eval_rows,
        final_sim_a=last["sim_a"],
        final_sim_b=last["sim_b"],
        layer_cknna_a=last["layer_cknna_a"],
        layer_cknna_b=last["layer_cknna_b"],
        heatmap_initial=heat0,
        heatmap_final=heat1,
        trunk_hash=params_hash(model.params),
        wall_seconds=time.monotonic() - t0,
        config=config,
        dataset_hash=dataset_hash,
        model=model,
        head=head,
    )
    if out_dir is not None:
        _write_run(result, t_grid, out_dir)
    return result


def _write_run(result: RunResult, t_grid, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "losses.csv").write_bytes(losses_csv_bytes(result.loss_rows))
    (out / "eval.csv").write_bytes(eval_csv_bytes(result.eval_rows))
    result.model.save(out / "model.json")
    report = {
        "config": asdict(result.config),
        "mode": result.mode,
        "seed": result.seed,
        "trunk_hash": result.trunk_hash,
        "dataset_hash": result.dataset_hash,
        "wall_seconds": result.wall_seconds,
        "final_sim_a": result.final_sim_a,
        "final_sim_b": result.final_sim_b,
        "layer_cknna_a": [float(v) for v in result.layer_cknna_a],
        "layer_cknna_b": [float(v) for v in result.layer_cknna_b],
        "final_losses": {
            "cfm": result.loss_rows[-1][1],
            "aux": result.loss_rows[-1][2],
            "total": result.loss_rows[-1][3],
        },
    }
    if result.head is not None:
        result.head.save(out / "head.json")
        h0, h1 = result.heatmap_initial, result.heatmap_final
        (out / "heatmap_initial.csv").write_bytes(heatmap_csv_bytes(t_grid, h0))
        (out / "heatmap_final.csv").write_bytes(heatmap_csv_bytes(t_grid, h1))
        report["heatmap_tv_from_initial"] = heatmap_tv(h0, h1)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# -- analysis helpers -----------------------------------------------------------


def heatmap_tv(h0: np.ndarray, h1: np.ndarray) -> float:
    """Mean over time rows of the total-variation distance between gates."""
    if h0.shape != h1.shape:
        raise ConfigurationError(f"heatmap shapes differ: {h0.shape} vs {h1.shape}")
    return float(np.mean(0.5 * np.abs(h0 - h1).sum(axis=1)))


def paired_one_sided_p(a, b) -> float:
    """p-value for mean(a) > mean(b) under a paired t test."""
    from scipy import stats

    res = stats.ttest_rel(a, b, alternative="greater")
    return float(res.pvalue)


def spearman(a, b) -> float:
    from scipy import stats

    return float(stats.spearmanr(a, b).statistic)


# -- end-to-end experiment -------------------------------------------------------


def check_dimensions(data: DatasetConfig, encoder_a: EncoderConfig, flow: FlowConfig):
    """The checks that the data, encoder-a and flow sections agree in shape."""
    if flow.feat_dim != data.feat_dim:
        raise ConfigurationError("flow feat_dim must match dataset feat_dim")
    if flow.cond_dim != encoder_a.embed_dim:
        raise ConfigurationError("flow cond_dim must match encoder-a embed_dim")
    if flow.vocab != data.vocab:
        raise ConfigurationError("flow vocab must match dataset vocab")
    if flow.frames_per_token != data.frames_per_token:
        raise ConfigurationError("frames_per_token must match dataset")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every section of a run. Each section checks itself when it is made;
    ``validate`` checks that the sections agree, where a run needs them to."""

    data: DatasetConfig = field(default_factory=DatasetConfig)
    encoder_a: EncoderConfig = field(default_factory=EncoderConfig.variant_a)
    encoder_b: EncoderConfig = field(default_factory=EncoderConfig.variant_b)
    flow: FlowConfig = field(default_factory=FlowConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        check_dimensions(self.data, self.encoder_a, self.flow)
        n_eval = min(self.train.eval_utterances, self.data.test_utterances)
        if not 1 <= self.train.cknna_k < n_eval:
            raise ConfigurationError(f"cknna_k={self.train.cknna_k} outside [1, {n_eval - 1}]")

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        """The default config with the sections and fields that ``obj`` sets."""
        return config_from_json(ExperimentConfig(), obj, "config")

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            obj = json.loads(Path(path).read_bytes())
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigurationError(f"{path} is not a JSON config: {e}") from e
        return ExperimentConfig.from_dict(obj)


class Workspace:
    """Caches the dataset and frozen encoders shared by a set of runs."""

    def __init__(self, exp: ExperimentConfig):
        exp.validate()
        self.exp = exp
        self.dataset: SynthDataset | None = None
        self.dataset_hash: str | None = None
        self.encoder_a: SpeakerEncoder | None = None
        self.encoder_b: SpeakerEncoder | None = None
        self.encoder_reports: dict = {}

    def ensure_dataset(self) -> SynthDataset:
        if self.dataset is None:
            self.dataset = generate_dataset(self.exp.data)
            self.dataset_hash = manifest_hash(self.dataset)
        return self.dataset

    def ensure_encoders(self, min_accuracy: float = 0.95):
        ds = self.ensure_dataset()
        for which in ("a", "b"):
            attr = f"encoder_{which}"
            if getattr(self, attr) is None:
                enc, rep = train_encoder(ds, getattr(self.exp, attr))
                enc.dataset_hash = self.dataset_hash
                setattr(self, attr, enc)
                self.encoder_reports[which] = rep
                if rep["holdout_accuracy"] < min_accuracy:
                    raise TrainingDiagnosticsError(
                        f"encoder-{which} holdout accuracy {rep['holdout_accuracy']:.3f}"
                        f" < {min_accuracy}"
                    )
        return self.encoder_a, self.encoder_b

    def save_dataset(self, out_dir) -> str:
        self.dataset_hash = write_manifest(self.ensure_dataset(), out_dir)
        return self.dataset_hash

    def load_dataset(self, in_dir):
        self.dataset, self.dataset_hash = read_manifest(in_dir)

    def run(self, mode: str, seed: int, out_dir=None) -> RunResult:
        enc_a, enc_b = self.ensure_encoders()
        return train_run(
            self.ensure_dataset(),
            enc_a,
            enc_b,
            self.exp.flow,
            replace(self.exp.align, mode=mode),
            replace(self.exp.train, seed=seed),
            out_dir=out_dir,
            dataset_hash=self.dataset_hash,
        )


def run_ablation(
    workspace: Workspace,
    seeds,
    modes=("baseline", "layer_only", "layer_time"),
    out_root=None,
) -> dict:
    """Train every (mode, seed) pair and assemble the comparison table."""
    results = {mode: [] for mode in modes}
    for seed in seeds:
        for mode in modes:
            out = None
            if out_root is not None:
                out = Path(out_root) / f"{mode}_seed{seed}"
            results[mode].append(workspace.run(mode, seed, out_dir=out))
    return results


def ablation_table(results: dict) -> dict:
    """Per-mode mean and per-seed similarity for both encoders."""
    table = {}
    for mode, runs in results.items():
        table[mode] = {
            "sim_a": [r.final_sim_a for r in runs],
            "sim_b": [r.final_sim_b for r in runs],
            "sim_a_mean": float(np.mean([r.final_sim_a for r in runs])),
            "sim_b_mean": float(np.mean([r.final_sim_b for r in runs])),
            "seeds": [r.seed for r in runs],
        }
    return table
