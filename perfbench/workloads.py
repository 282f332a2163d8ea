"""The benchmark's workloads, built from the package's public calls.

``harness.train_run`` is the package's own lifecycle, but the benchmark
rebuilds the same lifecycle from the layers' public calls so that it
can time each step and place a span around each call:

- set-up: ``synth.generate_dataset``, ``encoder.train_encoder`` for
  encoder-a and encoder-b, and the ``FlowModel``;
- training step: ``synth.make_batch`` -> ``flow.make_interpolant`` ->
  ``FlowModel.forward`` -> ``flow.cfm_loss`` (+ ``AlignmentHead.loss``)
  -> ``Tensor.backward`` -> ``AdamW.step``;
- evaluation: ``synth.make_eval_batch`` -> ``flow.sample`` ->
  ``encoder.similarity_score`` under both encoders ->
  ``harness.cknna_eval``.

Random streams are split exactly as ``train_run`` splits them, so a
round consumes the same randomness a run of the package would.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flowalign import flow, harness, synth
from flowalign import tensor as tz
from flowalign.alignment import AlignConfig, AlignmentHead
from flowalign.cknna import cknna
from flowalign.encoder import EncoderConfig, similarity_score, train_encoder
from flowalign.flow import FlowConfig, FlowModel
from flowalign.optim import AdamW, cosine_warmup_lr
from flowalign.synth import DatasetConfig

import checks
from spans import Tracer

MODE = "layer_time"  # the paper's method; the only training mode measured
SETUPS = 3  # set-ups per run; setup_s is their median
# A train round ends with this many identical small evaluations, so that a
# run of several rounds has a dozen or more to take eval_s's median over.
SMALL_EVALS = 3


@dataclass
class Sizes:
    """Inputs of a run. ``smoke`` shrinks every size for the self-tests.

    The corpus is the same for every seed (``DatasetConfig``'s own seed),
    as a lab trains on one corpus: a seeded corpus would change how many
    frames the first 64 test utterances mask by up to 7%, and so the
    sampling throughput of ``train`` from seed to seed. The run's seed
    drives everything else.
    """

    data: dict = field(default_factory=dict)
    enc_a: EncoderConfig = field(default_factory=EncoderConfig.variant_a)
    enc_b: EncoderConfig = field(default_factory=EncoderConfig.variant_b)
    flow: dict = field(default_factory=dict)
    min_accuracy: float = 0.95
    warmup_steps: int = 10
    timed_steps: int = 80  # a run measures several rounds, pooled for p50 and p90
    small_eval: tuple = (64, 4)  # utterances, ODE steps: as the repo's tests
    full_eval: tuple = (500, 32)  # the acceptance settings
    cknna_k: int = 10

    @staticmethod
    def smoke() -> "Sizes":
        return Sizes(
            data=dict(speakers=16, test_speakers=4, train_utterances=80, test_utterances=24,
                      tokens_min=6, tokens_max=10),
            enc_a=EncoderConfig(steps=150, batch_size=64),
            enc_b=EncoderConfig(hidden=96, embed_dim=24, seed=23, steps=150, batch_size=64,
                                name="encoder-b"),
            flow=dict(n_blocks=3, hidden=32),
            min_accuracy=0.9,
            warmup_steps=2,
            timed_steps=40,
            small_eval=(16, 2),
            full_eval=(24, 2),
            cknna_k=5,
        )


@dataclass
class Context:
    sizes: Sizes
    seed: int
    tr: Tracer
    out_dir: Path
    dataset: object = None
    encoders: dict = None
    model: FlowModel = None

    @property
    def flow_cfg(self) -> FlowConfig:
        return FlowConfig(seed=self.seed, **self.sizes.flow)


def set_up(ctx: Context) -> dict:
    """Builds the dataset, both encoders and the model; returns holdout accuracies."""
    tr = ctx.tr
    with tr.span("synth.generate_dataset"):
        ds = synth.generate_dataset(DatasetConfig(**ctx.sizes.data))
    encoders, accuracy = {}, {}
    for key, cfg in (("a", ctx.sizes.enc_a), ("b", ctx.sizes.enc_b)):
        with tr.span("encoder.train_encoder"):
            encoders[key], report = train_encoder(ds, cfg)
        accuracy[key] = report["holdout_accuracy"]
    with tr.span("flow.FlowModel"):
        model = FlowModel(ctx.flow_cfg)
    ctx.dataset, ctx.encoders, ctx.model = ds, encoders, model
    return accuracy


# -- training ------------------------------------------------------------------


class Trainer:
    """The body of ``harness.train_run``'s loop, one step at a time."""

    def __init__(self, ctx: Context, model: FlowModel, tr: Tracer):
        sz = ctx.sizes
        self.ctx, self.model, self.tr = ctx, model, tr
        self.cfg = harness.TrainConfig(steps=sz.warmup_steps + sz.timed_steps, seed=ctx.seed)
        self.align = AlignConfig(mode=MODE, seed=ctx.seed)
        self.head = AlignmentHead(self.align, model.n_taps, model.config.hidden,
                                  ctx.encoders["a"].config.embed_dim)
        self.params = {**model.params, **self.head.params}
        self.lr_scale = {"tg_": self.cfg.time_gate_lr_mult, "ad": self.cfg.adapter_lr_mult}
        self.opt = AdamW(self.params, lr=self.cfg.lr, weight_decay=self.cfg.weight_decay,
                         lr_scale=self.lr_scale)
        ss = np.random.SeedSequence([self.cfg.seed, 70919])
        order, span, noise, t, _ = ss.spawn(5)
        self.order_rng = np.random.default_rng(order)
        self.span_rng = np.random.default_rng(span)
        self.noise_rng = np.random.default_rng(noise)
        self.t_rng = np.random.default_rng(t)

    def inputs(self):
        c, tr, ds = self.cfg, self.tr, self.ctx.dataset
        idx = self.order_rng.integers(0, len(ds.train), size=c.batch_size)
        with tr.span("synth.make_batch"):
            batch = synth.make_batch([ds.train[i] for i in idx], self.ctx.encoders["a"],
                                     self.span_rng)
        t = self.t_rng.uniform(0.0, 1.0, size=c.batch_size)
        noise = self.noise_rng.standard_normal(batch.x1.shape)
        with tr.span("flow.make_interpolant"):
            x_t, target = flow.make_interpolant(batch.x1, batch.mask, t, noise)
        return batch, t, x_t, target

    def objective(self, batch, t, x_t, target):
        """(total, cfm, aux, taps)."""
        tr = self.tr
        with tr.span("flow.forward"):
            v, taps = self.model.forward(x_t, t, batch.cond, batch.cond_tokens, batch.mask,
                                         batch.valid_len)
        with tr.span("flow.cfm_loss"):
            loss_cfm = flow.cfm_loss(v, target, batch.mask)
        with tr.span("alignment.loss"):
            loss_aux, _ = self.head.loss(taps, batch.valid_len, batch.cond, t)
        return loss_cfm + self.align.lam * loss_aux, loss_cfm, loss_aux, taps

    def lr(self, step):
        c = self.cfg
        return cosine_warmup_lr(step, c.steps, c.lr, c.lr * c.final_lr_frac, c.warmup_steps)

    def step(self, step, before_update=None):
        """One training step; returns the CFM loss value."""
        tr = self.tr
        inputs = self.inputs()
        total, loss_cfm, loss_aux, taps = self.objective(*inputs)
        with tr.span("optim.zero_grad"):
            self.opt.zero_grad()
        with tr.span("tensor.backward"):
            total.backward()
        if before_update is not None:
            before_update(inputs, total, loss_aux, taps)
        with tr.span("optim.step"):
            self.opt.step(lr=self.lr(step))
        return float(loss_cfm.data)


def check_training(ctx: Context):
    """Two steps of the check model, compared with the references.

    Step 0: central differences of the total loss agree with ``.grad`` on
    about a dozen entries, and the aux loss equals the mean layer
    distance - alpha ln N, because the gate starts uniform. Both steps:
    the AdamW update equals the reference update.
    """
    trainer = Trainer(ctx, ctx.model, Tracer(False))
    ref_opt = RefOptimizer(trainer)
    n = ctx.model.n_taps
    groups = ["in_w", "tok_table", "tok_w", "blk0_w1", f"blk{n // 2}_uc", f"blk{n - 1}_w2",
              "out_w", "out_b", "ad0_w1", f"ad{n - 1}_b2", "tg_w1", "tg_w2"]

    def at_step0(inputs, total, loss_aux, taps):
        grads = {k: p.grad.copy() for k, p in trainer.params.items()}
        arrays = {k: p.data for k, p in trainer.params.items()}

        def value():
            with tz.no_grad():
                return float(trainer.objective(*inputs)[0].data)

        checks.expect_close("loss recomputed without gradients", value(), float(total.data),
                            rtol=1e-13)
        picks = [(g, checks.largest_grad_entry(grads[g])) for g in groups]
        checks.fd_probe(value, arrays, grads, picks)
        batch = inputs[0]
        adapters = [tuple(trainer.params[f"ad{i}_{k}"].data for k in ("w1", "b1", "w2", "b2"))
                    for i in range(n)]
        want = checks.ref_aux_at_uniform_gate([tp.data for tp in taps], batch.valid_len,
                                              batch.cond, adapters, trainer.align.alpha)
        checks.expect_close("step-0 aux loss at the uniform gate", float(loss_aux.data), want,
                            rtol=1e-11, atol=1e-13)
        ref_opt.snapshot(0)

    trainer.step(0, at_step0)
    ref_opt.compare()
    trainer.step(1, lambda *a: ref_opt.snapshot(1))
    ref_opt.compare()


class RefOptimizer:
    """Runs ``checks.RefAdamW`` beside the trainer's AdamW."""

    def __init__(self, trainer: Trainer):
        c = trainer.cfg
        self.trainer = trainer
        self.ref = checks.RefAdamW(trainer.lr_scale, weight_decay=c.weight_decay)
        self.want = None

    def snapshot(self, step):
        params = self.trainer.params
        values = {k: p.data.copy() for k, p in params.items()}
        grads = {k: None if p.grad is None else p.grad.copy() for k, p in params.items()}
        self.want = self.ref.step(values, grads, self.trainer.lr(step))

    def compare(self):
        for k, p in self.trainer.params.items():
            checks.expect_close(f"AdamW update of {k}", p.data, self.want[k], rtol=1e-12, atol=1e-15)


def train_round(ctx: Context, res: dict):
    """One training run from a fresh model, small evaluations, a checkpoint."""
    sz, tr = ctx.sizes, ctx.tr
    with tr.span("flow.FlowModel"):
        model = FlowModel(ctx.flow_cfg)
    trainer = Trainer(ctx, model, tr)
    losses = []
    for step in range(trainer.cfg.steps):
        tr.op = f"step{step}"
        t0 = time.perf_counter()
        with tr.span("bench.train_step"):
            losses.append(trainer.step(step))
        if step >= sz.warmup_steps:
            res["step_s"].append(time.perf_counter() - t0)
        res["attempted"] += 1
    res["checks"].append(lambda: checks.expect(
        f"mean CFM loss of the last 20 steps {np.mean(losses[-20:]):.4f} is below "
        f"the first 20 {np.mean(losses[:20]):.4f}",
        np.mean(losses[-20:]) < np.mean(losses[:20])))
    for _ in range(SMALL_EVALS):
        evaluate(ctx, model, *sz.small_eval, res)
    tr.op = "checkpoint"
    with tr.span("serialize.save_checkpoint"):
        model.save(ctx.out_dir / "model.json")
        trainer.head.save(ctx.out_dir / "head.json")
    res["attempted"] += 1


# -- evaluation ------------------------------------------------------------------


class TimedModel:
    """Hands ``flow.sample`` the model and times each network evaluation."""

    def __init__(self, model: FlowModel, tr: Tracer):
        self.model, self.tr = model, tr
        self.config = model.config
        self.forward_s = []

    def forward(self, x_t, t, cond, cond_tokens, mask, valid_len):
        self.tr.count("flow.sample.valid_frames", float(np.sum(valid_len)))
        self.tr.count("flow.sample.padded_frames", float(np.size(mask)))
        t0 = time.perf_counter()
        with self.tr.span("flow.sample_forward"):
            out = self.model.forward(x_t, t, cond, cond_tokens, mask, valid_len)
        self.forward_s.append(time.perf_counter() - t0)
        return out


@contextmanager
def spans_inside(tr: Tracer, module, names: dict):
    """While tracing, wraps ``module``'s functions ``names`` in spans."""
    if not tr.enabled:
        yield
        return
    saved = {attr: getattr(module, attr) for attr in names}

    def wrap(fn, label):
        def traced(*args, **kwargs):
            with tr.span(label):
                return fn(*args, **kwargs)
        return traced

    try:
        for attr, label in names.items():
            setattr(module, attr, wrap(saved[attr], label))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def evaluate(ctx: Context, model: FlowModel, n_utts: int, ode_steps: int, res: dict):
    """One evaluation pass as ``train_run`` makes it, timed; checks deferred."""
    tr = ctx.tr
    cfg = harness.TrainConfig(seed=ctx.seed, eval_utterances=n_utts, eval_ode_steps=ode_steps,
                              cknna_k=ctx.sizes.cknna_k)
    eval_ss = np.random.SeedSequence([cfg.seed, 70919]).spawn(5)[4].spawn(2)
    encoders = ctx.encoders
    tr.op = "eval"
    with tr.span("synth.make_eval_batch"):
        batch = synth.make_eval_batch(ctx.dataset.test[:n_utts], encoders["a"],
                                      cfg.eval_mask_fraction)
    noise = np.random.default_rng(eval_ss[0]).standard_normal(batch.x1.shape)
    timed = TimedModel(model, tr)
    t0 = time.perf_counter()
    with tr.span("bench.eval"):
        with tr.span("flow.sample"):
            gen = flow.sample(timed, batch, ode_steps, eval_ss[1])
        sample_s = time.perf_counter() - t0
        parts = [gen[b, s:e] for b, (s, e) in enumerate(batch.span)]
        gen_feats = synth.pad_stack(parts)
        gen_lens = np.array([p.shape[0] for p in parts], dtype=np.int64)
        sims = {}
        for key, enc in encoders.items():
            with tr.span("encoder.similarity_score"):
                sims[key] = similarity_score(enc, gen_feats, gen_lens, batch.prompt_features,
                                             batch.prompt_len)
        with tr.span("harness.cknna_eval"), spans_inside(tr, harness, {
            "layer_representations": "harness.layer_representations",
            "layer_alignment": "cknna.layer_alignment",
        }):
            scores = harness.cknna_eval(model, batch, encoders, cfg.eval_probe_t, noise, cfg.cknna_k)
    res["eval_s"].append(time.perf_counter() - t0)
    res["sample_frames_per_s"].append(float(batch.mask.sum()) * ode_steps / sample_s)
    res["sample_step_s"].extend(timed.forward_s)
    res["attempted"] += 1
    res["checks"].append(lambda: check_eval(ctx, model, batch, noise, cfg, gen, gen_feats,
                                            gen_lens, sims, scores))


def check_eval(ctx, model, batch, noise, cfg, gen, gen_feats, gen_lens, sims, scores):
    """Sampled frames, similarity and CKNNA against the references."""
    checks.check_sample(gen, batch.x1, batch.mask, batch.valid_len)
    reps = harness.layer_representations(model, batch, cfg.eval_probe_t, noise)
    for key, enc in ctx.encoders.items():
        w = tuple(enc.params[k].data for k in ("w1", "b1", "w2", "b2"))
        want = checks.ref_similarity(w, gen_feats, gen_lens, batch.prompt_features,
                                     batch.prompt_len)
        checks.expect_close(f"similarity under encoder-{key}", sims[key], want, rtol=0, atol=1e-9)
        ref = checks.ref_embed(batch.x1, batch.valid_len, *w)
        want = [checks.ref_cknna(r, ref, cfg.cknna_k) for r in reps]
        checks.expect_close(f"CKNNA per layer under encoder-{key}", scores[key], want,
                            rtol=0, atol=1e-9)
    checks.expect_close("CKNNA(x, x)", cknna(reps[0], reps[0], k=cfg.cknna_k), 1.0,
                        rtol=0, atol=1e-12)


# -- one run ---------------------------------------------------------------------


def new_results() -> dict:
    keys = ("setup_s", "run_s", "step_s", "eval_s", "sample_frames_per_s", "sample_step_s")
    return {**{k: [] for k in keys}, "attempted": 0, "checks": [], "failures": []}


def run_checks(res: dict):
    """Runs the pending checks, records each failure, and drops the outputs they held."""
    for check in res["checks"]:
        try:
            check()
        except checks.CheckError as err:
            res["failures"].append(str(err))
    res["checks"].clear()


def run(workload: str, ctx: Context, seconds: float, log) -> dict:
    """Set up, then measure whole rounds for at most ``seconds``, at least one.

    A round starts only when a round of the median length so far would
    still end within ``seconds`` of measured time, so a run never
    overshoots by a round and its length stays bounded on a slow machine.
    The checks of each round run after it, untimed, so that no round's
    outputs are kept for later and memory does not grow with the number
    of rounds.
    """
    res = new_results()
    for _ in range(SETUPS):
        ctx.tr.op = "setup"
        t0 = time.perf_counter()
        accuracy = set_up(ctx)
        res["setup_s"].append(time.perf_counter() - t0)
        res["attempted"] += 1
    floor = ctx.sizes.min_accuracy
    for key, acc in accuracy.items():
        res["checks"].append(lambda key=key, acc=acc: checks.expect(
            f"encoder-{key} holdout accuracy {acc:.3f} >= {floor}", acc >= floor))
    if workload == "train":
        # the check model is ctx.model, which the measured rounds never touch
        res["checks"].append(lambda: check_training(ctx))
    run_checks(res)

    while True:
        t0 = time.perf_counter()
        if workload == "eval":
            evaluate(ctx, ctx.model, *ctx.sizes.full_eval, res)
        else:
            train_round(ctx, res)
        res["run_s"].append(time.perf_counter() - t0)
        log(f"round {len(res['run_s'])}: {res['run_s'][-1]:.3f} s")
        run_checks(res)
        if sum(res["run_s"]) + statistics.median(res["run_s"]) > seconds:
            break
    return res
