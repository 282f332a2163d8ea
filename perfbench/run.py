"""Benchmark of the flowalign lab: one workload per run.

    python3 perfbench/run.py --workload train --seed 0 --seconds 40 --trace 0

Run it from the root of a source tree; it imports the package from
``src/`` of that tree and fails when there is none. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
run. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results and
traces go to ``perfbench/out/``. See README.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# 2 threads, or fewer on fewer CPUs: no less steady than 1 between runs on
# a 2-core machine and about 1.3x faster in sampling, which keeps an eval
# run under a minute.
BLAS_THREADS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "eval_s": "s",
    "sample_frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (span, scale from seconds, unit); the span's median self time per call
PER_LAYER = {
    "synth.generate_dataset_s": ("synth.generate_dataset", 1.0, "s"),
    "encoder.train_encoder_s": ("encoder.train_encoder", 1.0, "s"),
    "flow.model_init_ms": ("flow.FlowModel", 1e3, "ms"),
    "synth.make_batch_ms": ("synth.make_batch", 1e3, "ms"),
    "flow.make_interpolant_ms": ("flow.make_interpolant", 1e3, "ms"),
    "flow.forward_ms": ("flow.forward", 1e3, "ms"),
    "flow.cfm_loss_ms": ("flow.cfm_loss", 1e3, "ms"),
    "alignment.loss_ms": ("alignment.loss", 1e3, "ms"),
    "optim.zero_grad_ms": ("optim.zero_grad", 1e3, "ms"),
    "tensor.backward_ms": ("tensor.backward", 1e3, "ms"),
    "optim.step_ms": ("optim.step", 1e3, "ms"),
    "synth.make_eval_batch_s": ("synth.make_eval_batch", 1.0, "s"),
    "flow.sample_s": ("flow.sample", 1.0, "s"),
    "flow.sample_forward_ms": ("flow.sample_forward", 1e3, "ms"),
    "encoder.similarity_score_ms": ("encoder.similarity_score", 1e3, "ms"),
    "harness.layer_representations_s": ("harness.layer_representations", 1.0, "s"),
    "cknna.layer_alignment_s": ("cknna.layer_alignment", 1.0, "s"),
    "serialize.save_checkpoint_ms": ("serialize.save_checkpoint", 1e3, "ms"),
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    return ap.parse_args(argv)


def environment(found_env: dict, nproc: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_at_start": found_env,
        "blas_threads_used": threads,
    }


def end_to_end(res: dict) -> dict:
    import numpy as np

    med = statistics.median
    # the workload's step: a training step, or on eval a sampler step
    step_ms = 1e3 * np.asarray(res["step_s"] or res["sample_step_s"])
    return {
        "setup_s": med(res["setup_s"]),
        "run_s": med(res["run_s"]),
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "eval_s": med(res["eval_s"]),
        "sample_frames_per_s": med(res["sample_frames_per_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(res: dict, tr, span_cost_s: float) -> dict:
    times = tr.self_times()
    out = {
        name: scale * statistics.median(times[span]) if span in times else 0.0
        for name, (span, scale, _) in PER_LAYER.items()
    }
    padded = tr.counters.get("flow.sample.padded_frames", 0.0)
    out["flow.sample_valid_frame_ratio"] = (
        tr.counters["flow.sample.valid_frames"] / padded if padded else 0.0
    )
    # the tracer's own cost: spans recorded times what one span costs, as a
    # share of the traced set-ups and rounds that recorded them
    traced_s = sum(res["setup_s"]) + sum(res["run_s"])
    out["trace.overhead_pct"] = 100.0 * len(tr.spans) * span_cost_s / traced_s
    return out


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "flowalign" / "__init__.py").is_file():
        print(f"no flowalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    found_env = {k: os.environ.get(k) for k in THREAD_VARS}
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for k in THREAD_VARS:
        os.environ[k] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    import flowalign
    import checks
    import workloads
    from spans import Tracer, span_cost

    if Path(flowalign.__file__).resolve().parent != ROOT / "src" / "flowalign":
        print(f"imported flowalign from {flowalign.__file__}, not from this tree", file=sys.stderr)
        return 2

    env = environment(found_env, nproc, threads)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    checks.self_test()

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = workloads.Sizes.smoke() if args.smoke else workloads.Sizes()
    tracer = Tracer(bool(args.trace))
    ctx = workloads.Context(sizes, args.seed, tracer, out_dir)

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr, flush=True)

    t0 = time.perf_counter()
    try:
        res = workloads.run(args.workload, ctx, args.seconds, log)
    except Exception:
        # an operation that raises ends the run without a result
        traceback.print_exc()
        return 1
    metrics = per_layer(res, tracer, span_cost()) if args.trace else end_to_end(res)

    correct = not res["failures"]
    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    units = {name: unit for name, (_, _, unit) in PER_LAYER.items()}
    units.update({"flow.sample_valid_frame_ratio": "ratio", "trace.overhead_pct": "%", **END_TO_END})
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "args": vars(args),
        "environment": env,
        "wall_s": time.perf_counter() - t0,
        "samples": {k: v for k, v in res.items() if isinstance(v, list) and k != "checks"},
        "result": result,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(out_dir / "trace.json", {"args": vars(args), "environment": env})
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
