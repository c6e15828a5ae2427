"""delaes benchmark: one workload per invocation, end-to-end or traced.

    python3 bench/run.py --workload train_paper --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the last stdout line is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric, from a run that first repeats the untraced workload and then runs
the same operations traced, so the difference is the tracing overhead.  A
result record with machine facts goes to ``bench/runs/``, spans of a traced
run beside it.  Exit status: 0 when every output check passed, 1 when a
check or an operation failed, 2 when the package cannot be imported.
See bench/METRICS.md for what each number means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

RUN_SECONDS = 15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_WHY = {
    "train_paper": "delaes train at the paper config on 200-800-token essays: "
                   "backward pass and large GEMMs dominate, text-embedding parse "
                   "dominates setup",
    "score_paper": "delaes predict on a paper-config artifact, mixed 20-800-token "
                   "essays in file order: forward only, no embedding parse, "
                   "padding waste visible",
    "cv_micro": "one 10-fold CV round at a reduced config: thousands of small "
                "calls, so per-call overhead, per-tensor RMSProp and per-epoch "
                "QWK matter",
}

#: (name, unit, better, bound); bound is the share by which the median may
#: worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("train_essays_per_s", "1/s", "higher", 0.25),
    ("train_step_s", "s", "lower", 0.25),
    ("score_essays_per_s", "1/s", "higher", 0.25),
    ("cv_round_s", "s", "lower", 0.25),
    ("cv_pooled_qwk", "kappa", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: Span labels, named after the module that defines the function.
LAYERS = [
    "corpus.load_dataset", "corpus.load_unscored", "corpus.build_vocabulary",
    "embedding.load_embeddings", "embedding.build_embedding_matrix",
    "network.init_parameters", "network.forward_batch", "network.forward",
    "training.train", "training.make_batches", "training.backward",
    "training.rmsprop_step", "training.predict_normalized",
    "training.evaluate_qwk", "metrics.qwk", "harness.run_cv",
    "artifact.save_model", "artifact.load_model",
]

DERIVED = [
    ("network.tokens_per_s", "1/s", "higher"),
    ("network.real_token_ratio", "ratio", "higher"),
    ("embedding.lines_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

PER_LAYER = [(f"{label}{suffix}", unit, "lower") for label in LAYERS
             for suffix, unit in (("_s", "s"), ("_calls", "count"),
                                  ("_self_s", "s"))] + DERIVED


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def pin_blas_threads() -> int:
    """Run BLAS and OpenMP single-threaded; return the CPUs available.

    One thread stays within nproc everywhere and measured steadier than two
    on a shared 2-vCPU machine.  Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def import_program():
    """Import delaes from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import delaes
    if not Path(delaes.__file__).resolve().is_relative_to(src):
        raise ImportError(f"delaes imported from {delaes.__file__}, not {src}")
    return delaes


def machine_facts(nproc: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_pass(wl, tracer, full: bool, seconds: float, reps: int, ops: int | None = None):
    """Set up ``reps`` times, then operate until ``seconds`` have passed (at
    least once), or exactly ``ops`` times; then check the outputs."""
    import workloads
    from spans import instrument
    clock = time.perf_counter
    with instrument(tracer, workloads.targets(tracer, full, wl.lines_by_path)):
        start = clock()
        setups = []
        for _ in range(reps):
            t0 = clock()
            state = wl.setup()
            setups.append(clock() - t0)
        durations, outputs = [], []
        t_ops = clock()
        while (len(outputs) < ops) if ops is not None else \
                (not outputs or clock() - t_ops < seconds):
            t0 = clock()
            outputs.append(wl.operate(state, len(outputs)))
            durations.append(clock() - t0)
        checks = wl.check(state, outputs, tracer)
        wall = clock() - start
    return {"setups": setups, "durations": durations, "outputs": outputs,
            "checks": checks, "wall": wall, "tracer": tracer}


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    import workloads
    layers = tracer.layers()
    out = {}
    for label in LAYERS:
        row = layers.get(label, {"s": 0.0, "calls": 0, "self_s": 0.0})
        out[f"{label}_s"] = row["s"]
        out[f"{label}_calls"] = row["calls"]
        out[f"{label}_self_s"] = row["self_s"]

    ratio = workloads.ratio
    real = tracer.total("network.real_tokens")
    out["network.tokens_per_s"] = ratio(real, out["network.forward_batch_s"])
    out["network.real_token_ratio"] = ratio(real, tracer.total("network.padded_tokens"))
    out["embedding.lines_per_s"] = ratio(tracer.total("embedding.lines"),
                                         out["embedding.load_embeddings_s"])
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return out


def timing_summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (absent below eleven samples)."""
    out = {"median": statistics.median(values), "samples": len(values),
           "values": values}
    if len(values) >= 11:
        q = 1.0 - 10.0 / len(values)
        out[f"p{100 * q:.0f}"] = sorted(values)[int(q * (len(values) - 1))]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 shapes: dict, workdir: Path) -> dict:
    """Run one workload; return the record (metrics, checks, samples)."""
    import workloads
    from spans import Tracer
    shape = shapes[name]
    wl = workloads.WORKLOADS[name](shape, seed, workdir)
    # A traced run sets up once per pass: it is after spans, not set-up medians.
    reps = 1 if trace else shape["setup_reps"]
    passes, checks, attempted = {}, [], 0
    if not trace and name != "cv_micro":
        # The canary: one cv_micro round, run first so that it always starts
        # from a fresh process, whatever the main phase leaves behind.  It
        # supplies the metrics the main phase lacks (see METRICS.md).
        canary_dir = workdir / "canary"
        canary_dir.mkdir()
        canary = workloads.CvMicro(shapes["cv_micro"], seed, canary_dir)
        passes["canary"] = run_pass(canary, Tracer(), False, 0, 1, ops=1)
        checks += [(f"canary.{n}", ok, d) for n, ok, d in passes["canary"]["checks"]]
        attempted += 2 + len(passes["canary"]["checks"])
    first = passes["untraced"] = run_pass(wl, Tracer(), False, seconds, reps)
    checks += first["checks"]
    attempted += len(first["setups"]) + len(first["durations"]) + len(first["checks"])
    if not trace:
        metrics = {"setup_s": statistics.median(first["setups"]),
                   **wl.metrics(first["tracer"], first["durations"], first["outputs"])}
        if "canary" in passes:
            extra = passes["canary"]
            found = canary.metrics(extra["tracer"], extra["durations"], extra["outputs"])
            for key, value in found.items():
                metrics.setdefault(key, value)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        traced = passes["traced"] = run_pass(wl, Tracer(), True, seconds, reps,
                                             ops=len(first["durations"]))
        checks += traced["checks"]
        attempted += len(traced["setups"]) + len(traced["durations"]) + len(traced["checks"])
        metrics = layer_metrics(traced["tracer"], traced["wall"], first["wall"])
        units = {n: u for n, u, _ in PER_LAYER}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "generator": {"shape": shape, "cv_micro_shape": shapes["cv_micro"]},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "attempted": attempted,
        "failed": sum(not ok for _, ok, _ in checks),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "timings": {
            key: {"wall_s": p["wall"], "setup": timing_summary(p["setups"]),
                  "operation": timing_summary(p["durations"]),
                  "calls": {label: row["calls"]
                            for label, row in p["tracer"].layers().items()}}
            for key, p in passes.items()},
        "spans": passes["traced"]["tracer"].spans if trace else None,
    }


def print_report(record: dict) -> None:
    for check in record["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    if not record["metrics"]:
        return
    if record["trace"]:
        wall = record["timings"]["traced"]["wall_s"]
        m = {k: v["value"] for k, v in record["metrics"].items()}
        print(f"{'layer':36} {'calls':>7} {'total s':>10} {'self s':>10} {'self share':>10}")
        for label in sorted(LAYERS, key=lambda lb: -m[f"{lb}_self_s"]):
            if m[f"{label}_calls"]:
                print(f"{label:36} {m[label + '_calls']:7d} {m[label + '_s']:10.4f} "
                      f"{m[label + '_self_s']:10.4f} {m[label + '_self_s'] / wall:10.1%}")
        print(f"traced wall {wall:.3f} s, untraced wall "
              f"{record['timings']['untraced']['wall_s']:.3f} s, overhead "
              f"{m['trace.overhead_ratio']:+.2%}")
    else:
        for name, metric in record["metrics"].items():
            print(f"{name:24} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None, shapes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n",
                                            encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    nproc = pin_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the delaes package: {exc}", file=sys.stderr)
        return 2
    import workloads
    shapes = shapes or workloads.PAPER

    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), shapes, workdir)
    except Exception as exc:  # any failure of the program is a failed operation
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "checks": [{"name": "completed", "ok": False, "detail": repr(exc)}],
                  "attempted": 1, "failed": 1, "metrics": {}, "spans": None}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine_facts(nproc)
    spans = record.pop("spans")
    if spans is not None:
        (RUNS / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans]),
            encoding="utf-8")
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n",
                                       encoding="utf-8")
    print_report(record)
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
