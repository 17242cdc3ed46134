"""The three benchmark workloads, their traced runs and correctness gates.

Every workload takes the workload seed, builds its inputs from it and hands
the package only those inputs.  A timed run repeats the workload's
operation until ``seconds`` have passed (at least ``MIN_OPS`` times)
and reports the end-to-end metrics in ``END_TO_END``; a traced run
alternates untraced and traced passes of the same operation and reports the
per-layer metrics in ``PER_LAYER``.  A failed operation or a failed gate is
counted, never raised, so that it shows in ``ok_frac``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from olivenet import cli, data, evaluation, nn, quality, stats, synth
from olivenet.data import PARAMETER_ORDER, ParameterId
from olivenet.seeding import derive_rng

from spans import MODULES, Tracer

EXCITATION_NM = 395
PARAMETER = ParameterId.ACIDITY
#: Training seed of every workload, as in acceptance criteria 5 and 6.  The
#: workload seed draws the spectra and the request order; keeping network
#: initialization fixed makes mae_val a property of the engine rather than
#: of one lucky or unlucky initialization.
TRAIN_SEED = 7
#: Engine contract: batched and single-sample predictions agree to 1e-10.
FORWARD_TOL = 1e-10
#: Criterion 6 trains 500 epochs; the paper's full scale is 10000.
CRITERION6_EPOCHS = 500
PAPER_EPOCHS = 10000
#: A timed run makes at least this many operations, so that the
#: repeat-identity gates always have something to compare.
MIN_OPS = 2
#: cli-pipeline's two ``loocv`` steps: one epoch each, two worker processes.
CLI_EPOCHS = 1
CLI_JOBS = 2
#: The traced run alternates this many untraced and traced passes.
TRACE_PAIRS = 2
#: loocv-train's ``mae_val`` may deviate this much from ``Scale.mae_val_ref``.
MAE_VAL_REL_TOL = 0.3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "train_samples_per_s": "1/s",
    "mae_val": "%",
}

PER_LAYER = {
    "nn.train_s": "s",
    "nn.train_calls": "count",
    "nn.train_epoch_ms_p50": "ms",
    "nn.train_epoch_ms_p90": "ms",
    "nn.train_samples": "count",
    "nn.adam_steps": "count",
    "nn.forward_calls": "count",
    "nn.forward_s": "s",
    "nn.self_s": "s",
    "nn.self_share": "fraction",
    "nn.flop_per_sample": "flop",
    "nn.forward_b1_us": "us",
    "nn.forward_b64_ms": "ms",
    "nn.adam_step_us": "us",
    "nn.load_network_ms": "ms",
    "evaluation.loocv_s": "s",
    "evaluation.self_s": "s",
    "evaluation.folds": "count",
    "data.save_spectra_s": "s",
    "data.load_spectra_s": "s",
    "data.spectra_csv_bytes": "bytes",
    "data.normalize_calls": "count",
    "data.normalize_us": "us",
    "data.self_s": "s",
    "synth.generate_dataset_s": "s",
    "synth.self_s": "s",
    "quality.classify_calls": "count",
    "quality.classify_us": "us",
    "quality.self_s": "s",
    "stats.compare_configs_ms": "ms",
    "stats.self_s": "s",
    "cli.startup_s": "s",
    "cli.generate_s": "s",
    "cli.loocv_a_s": "s",
    "cli.loocv_b_s": "s",
    "cli.report_s": "s",
    "cli.classify_s": "s",
    "cli.compare_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_us": "us",
    "extrap.criterion6_s": "s",
    "extrap.paper_scale_s": "s",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``DEFAULT`` is the benchmark, ``TINY`` the smoke test."""

    n_oils: int            # taken from the head of the bundled 22-oil table
    repetitions: int       # spectra per oil
    pixels: int
    loocv_epochs: int      # loocv-train
    grade_epochs: int      # grade-one set-up training
    setup_repeats: int     # each set-up runs at least this often ...
    setup_seconds: float   # ... and until this much time has passed
    trace_requests: int
    mae_val_ref: float | None  # loocv-train's reference mae_val; None: not gated


#: DEFAULT's mae_val_ref is the median selected-checkpoint <MAE_V> over
#: workload seeds 1-20 (training seed 7); the largest deviation over those
#: seeds was 20.6 %, which MAE_VAL_REL_TOL covers with room to spare.
DEFAULT = Scale(n_oils=22, repetitions=20, pixels=1024, loocv_epochs=8, grade_epochs=3,
                setup_repeats=5, setup_seconds=1.5, trace_requests=2000,
                mae_val_ref=0.10988787586849683)
TINY = Scale(n_oils=4, repetitions=3, pixels=256, loocv_epochs=1, grade_epochs=1,
             setup_repeats=1, setup_seconds=0.0, trace_requests=20, mae_val_ref=None)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> {"value", "unit"}
    samples: dict = field(default_factory=dict)   # name -> sample count
    details: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, n: int | None = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if n is not None:
            self.samples[name] = n

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        print(f"gate failed: {what}", file=sys.stderr)


@dataclass
class Context:
    root: Path       # checkout root; src/ holds the package
    seed: int
    seconds: float
    scale: Scale = DEFAULT

    def workdir(self, name: str) -> Path:
        path = self.root / ".bench_work" / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def child_env(self) -> dict:
        """This process's environment, thread pin included, with the checkout's src."""
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def records(scale: Scale):
    return data.load_bundled_labels()[:scale.n_oils]


def make_dataset(scale: Scale, seed: int, repetitions: int) -> data.Dataset:
    return synth.generate_dataset(
        records(scale), EXCITATION_NM, repetitions,
        synth.default_generator_config(seed=seed), data.default_grid(scale.pixels))


def design(dataset: data.Dataset, parameter: ParameterId):
    """Normalized (N, P) inputs and targets, through public functions only."""
    x = np.stack([data.normalize(s).intensities for s in dataset.spectra])
    y = np.array([dataset.record_for(s.oil_id).value_of(parameter) for s in dataset.spectra])
    return x, y


def loocv_sample_epochs(n_oil: int, repetitions: int, epochs: int) -> int:
    """Forward+backward sample-epochs one LOOCV trains: every fold, every epoch."""
    return n_oil * (n_oil - 1) * repetitions * epochs


def flop_per_sample(hp: nn.HyperParams, pixels: int) -> int:
    """Computed forward+backward flop per sample for direct convolution.

    The backward pass is counted as twice the forward (weight and input
    gradients).  Computed from ``network_shapes``, not measured.
    """
    s = nn.network_shapes(hp, pixels)
    forward = (2 * hp.filters1 * hp.ksize1 * s["conv1"]
               + 2 * hp.filters2 * hp.filters1 * hp.ksize2 * s["conv2"]
               + 2 * (s["flatten"] * s["dense1"] + s["dense1"] * s["dense2"] + s["dense2"]))
    return 3 * forward


def repeat_setup(fn, scale: Scale, times: list):
    """Run a set-up ``fn`` at least ``setup_repeats`` times and for at least
    ``setup_seconds``, appending each wall time to ``times``.

    Returns the last output of ``fn`` and the seconds spent.  Workloads whose
    operations take seconds call this again after every operation, so that
    ``setup_s`` samples the whole run, as the operation times do, and not
    only its first seconds: on a shared machine the speed drifts over tens
    of seconds.
    """
    start = time.perf_counter()
    first = len(times)
    while len(times) - first < scale.setup_repeats or \
            time.perf_counter() < start + scale.setup_seconds:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, time.perf_counter() - start


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def finish(res: Result, setups, op_times, train_rates, mae_val: float) -> Result:
    """Fill the end-to-end metrics shared by every workload."""
    res.put("setup_s", statistics.median(setups), "s", len(setups))
    res.put("peak_rss_mb", peak_rss_mb(), "MiB")
    res.put("ok_frac", (res.attempted - res.failed) / max(res.attempted, 1), "fraction",
            res.attempted)
    if op_times:
        res.put("op_p50_ms", 1e3 * statistics.median(op_times), "ms", len(op_times))
        res.put("op_p90_ms", 1e3 * percentile(op_times, 90), "ms", len(op_times))
    if train_rates:
        res.put("train_samples_per_s", statistics.median(train_rates), "1/s", len(train_rates))
    res.put("mae_val", mae_val, "%")
    res.details["failed_frac"] = res.failed / max(res.attempted, 1)
    return res


# ---------------------------------------------------------------------------
# loocv-train
# ---------------------------------------------------------------------------

def _loocv_setup(ctx: Context) -> data.Dataset:
    return data.filter_for_parameter(
        make_dataset(ctx.scale, ctx.seed, ctx.scale.repetitions), PARAMETER)


def _check_reference(ctx: Context, res: Result, mae_val: float) -> None:
    """The selected ⟨MAE_V⟩ must stay near the reference of the scale."""
    ref = ctx.scale.mae_val_ref
    if ref is None:
        return
    dev = abs(mae_val - ref) / ref
    res.details["reference"] = {"mae_val": ref, "rel_tol": MAE_VAL_REL_TOL, "rel_dev": dev}
    if not dev <= MAE_VAL_REL_TOL:
        res.fail(f"mae_val {mae_val!r} is {dev:.1%} from the reference {ref!r}",
                 res.attempted - res.failed)


def loocv_train(ctx: Context) -> Result:
    setups = []
    ds, _ = repeat_setup(lambda: _loocv_setup(ctx), ctx.scale, setups)
    hp = nn.HyperParams(epochs=ctx.scale.loocv_epochs)
    work = loocv_sample_epochs(ds.n_oil, ds.repetitions_per_oil, hp.epochs)
    res = Result()
    times, first = [], None
    deadline = time.perf_counter() + ctx.seconds
    while res.attempted < MIN_OPS or time.perf_counter() < deadline:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            summary = evaluation.loocv(ds, PARAMETER, hp, TRAIN_SEED, jobs=1)
        except Exception:
            traceback.print_exc()
            res.fail("loocv raised")
            continue
        times.append(time.perf_counter() - t0)
        text = evaluation.summary_to_json(summary)
        if first is None:
            first = (text, summary.mean_mae_val)
        elif text != first[0]:
            res.fail("loocv summary differs between repeated runs")
        deadline += repeat_setup(lambda: _loocv_setup(ctx), ctx.scale, setups)[1]
    mae_val = first[1] if first else float("nan")
    _check_reference(ctx, res, mae_val)
    res.details.update(sample_epochs_per_op=work, epochs=hp.epochs, batch=hp.batch,
                       pixels=ctx.scale.pixels, jobs=1)
    return finish(res, setups, times, [work / t for t in times], mae_val)


def loocv_train_traced(ctx: Context) -> Result:
    ds = _loocv_setup(ctx)
    hp = nn.HyperParams(epochs=ctx.scale.loocv_epochs)
    probes = run_probes(ctx, ds)

    def op(tracer):
        with tracer.span("bench.op") if tracer else contextlib.nullcontext():
            summary = evaluation.loocv(ds, PARAMETER, hp, TRAIN_SEED, jobs=1)
        return [evaluation.summary_to_json(summary)]

    return traced_run(op, probes)


# ---------------------------------------------------------------------------
# grade-one
# ---------------------------------------------------------------------------

def _grade_setup(ctx: Context, workdir: Path, log: list):
    """Train the five per-parameter networks briefly and round-trip them.

    Repetitions 1..R train; repetitions R+1..2R, unseen by training, are the
    request pool.  Returns (nets, pool) and appends (train rate, number of
    parameters the round trip changed) to ``log``.
    """
    scale = ctx.scale
    r = scale.repetitions
    hp = nn.HyperParams(epochs=scale.grade_epochs)
    pool = make_dataset(scale, ctx.seed, 2 * r)
    train_ds = replace(pool, spectra=tuple(s for s in pool.spectra if s.repetition <= r),
                       repetitions_per_oil=r)
    nets, work, train_s, changed = {}, 0, 0.0, 0
    for p in PARAMETER_ORDER:
        x, y = design(data.filter_for_parameter(train_ds, p), p)
        rng = derive_rng(TRAIN_SEED, "grade-one", p.value)
        net = nn.build_network(hp, scale.pixels, rng)
        t1 = time.perf_counter()
        nn.train(net, x, y, hp, rng)
        train_s += time.perf_counter() - t1
        work += len(y) * hp.epochs
        path = workdir / f"{p.value}.ocnn"
        nn.save_network(net, path)
        nets[p] = nn.load_network(path)
        changed += sum(not np.array_equal(nets[p].parameters()[k], v)
                       for k, v in net.parameters().items())
    log.append((work / train_s, changed))
    return nets, pool


def _request_pool(ctx: Context, pool: data.Dataset):
    """The spectra training never saw, and their acidity labels."""
    requests = [s for s in pool.spectra if s.repetition > ctx.scale.repetitions]
    labels = np.array([pool.record_for(s.oil_id).value_of(PARAMETER) for s in requests])
    return requests, labels


def grade(nets, spectrum, thresholds):
    """One request: raw spectrum -> normalize -> five B=1 forwards -> classify."""
    z = data.normalize(spectrum).intensities
    values = {p: nn.forward(nets[p], z) for p in PARAMETER_ORDER}
    return values, quality.classify(values, thresholds).grade


def _check_against_batch(res: Result, nets, requests, served, counts, thresholds):
    """Batched forward over the whole pool must reproduce every served answer.

    Returns the batched acidity predictions for the pool, or None when the
    batched forward itself fails.
    """
    try:
        x = np.stack([data.normalize(s).intensities for s in requests])
        batch = {p: nn.forward(nets[p], x) for p in PARAMETER_ORDER}
    except Exception:
        traceback.print_exc()
        res.fail("batched forward raised", int(counts.sum()))
        return None
    for i, (values, grade_) in served.items():
        ref = {p: float(batch[p][i]) for p in PARAMETER_ORDER}
        close = all(abs(values[p] - ref[p]) <= FORWARD_TOL * max(1.0, abs(ref[p]))
                    for p in PARAMETER_ORDER)
        if not close:
            res.fail(f"request {i}: B=1 prediction differs from batched forward", int(counts[i]))
        elif quality.classify(ref, thresholds).grade is not grade_:
            res.fail(f"request {i}: grade differs from classify of batched values", int(counts[i]))
    return batch[PARAMETER]


def grade_one(ctx: Context) -> Result:
    workdir = ctx.workdir("grade-one")
    log, setups = [], []
    (nets, pool), _ = repeat_setup(lambda: _grade_setup(ctx, workdir, log), ctx.scale, setups)
    requests, labels = _request_pool(ctx, pool)
    thresholds = quality.default_thresholds()
    order = np.random.default_rng(ctx.seed).permutation(len(requests))
    res = Result()
    served, counts, latencies = {}, np.zeros(len(requests), dtype=int), []
    deadline = time.perf_counter() + ctx.seconds
    while res.attempted < MIN_OPS or time.perf_counter() < deadline:
        i = int(order[res.attempted % len(order)])
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            answer = grade(nets, requests[i], thresholds)
        except Exception:
            traceback.print_exc()
            res.fail("grade request raised")
            continue
        latencies.append(time.perf_counter() - t0)
        counts[i] += 1
        if i not in served:
            served[i] = answer
        elif served[i] != answer:
            res.fail(f"request {i}: answer changed on repeat")
    acidity = _check_against_batch(res, nets, requests, served, counts, thresholds)
    changed = sum(c for _, c in log)
    if changed:
        res.fail(f"checkpoint round trips changed {changed} parameter array(s)",
                 res.attempted - res.failed)
    shutil.rmtree(workdir, ignore_errors=True)
    mae_val = float(np.mean(np.abs(acidity - labels))) if acidity is not None else float("nan")
    res.details.update(closed_loop_clients=1, pool=len(requests), batch=1,
                       networks=len(nets), jobs=1)
    if latencies:
        res.details.update(grade_p50_ms=1e3 * statistics.median(latencies),
                           grade_p99_ms=1e3 * percentile(latencies, 99))
    return finish(res, setups, latencies, [rate for rate, _ in log], mae_val)


def grade_one_traced(ctx: Context) -> Result:
    workdir = ctx.workdir("grade-one")
    nets, pool = _grade_setup(ctx, workdir, [])
    requests, _ = _request_pool(ctx, pool)
    thresholds = quality.default_thresholds()
    order = np.random.default_rng(ctx.seed).permutation(len(requests))
    picks = [int(order[k % len(order)]) for k in range(ctx.scale.trace_requests)]
    probes = run_probes(ctx, None)

    def op(tracer):
        answers = []
        for i in picks:
            with tracer.span("bench.request") if tracer else contextlib.nullcontext():
                answers.append(grade(nets, requests[i], thresholds))
        return answers

    shutil.rmtree(workdir, ignore_errors=True)
    return traced_run(op, probes)


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

#: Numerical output files of each step; they must be byte-identical across runs.
STEP_OUTPUTS = {
    "generate": ("data/spectra.csv", "data/grid.txt", "data/labels.csv", "data/generator.cfg"),
    "loocv_a": ("run_a/summary.json", "run_a/folds.csv", "run_a/scatter.csv"),
    "loocv_b": ("run_b/summary.json", "run_b/folds.csv", "run_b/scatter.csv"),
    "report": ("report/table.txt", "report/scatter_all.csv", "report/predictions.csv"),
    "classify": ("verdicts/verdicts.csv",),
    "compare": ("compare/ttest.txt",),
}


def cli_steps(ctx: Context, jobs: int) -> list[tuple[str, list[str]]]:
    """The chain, with paths relative to the fixed working directory."""
    s = ctx.scale
    loocv = ["loocv", "--data", "data", "--parameter", PARAMETER.value,
             "--epochs", str(CLI_EPOCHS), "--jobs", str(jobs), "--seed", str(TRAIN_SEED)]
    return [
        ("generate", ["generate", "--labels", "labels.csv", "--seed", str(ctx.seed),
                      "--pixels", str(s.pixels), "--repetitions", str(s.repetitions),
                      "--excitation", str(EXCITATION_NM), "--out", "data"]),
        ("loocv_a", loocv + ["--out", "run_a"]),
        ("loocv_b", loocv + ["--filters1", "4", "--out", "run_b"]),
        ("report", ["report", "run_a", "run_b", "--out", "report"]),
        ("classify", ["classify", "--input", "report/predictions.csv", "--out", "verdicts"]),
        ("compare", ["compare", "--run1", "run_a", "--run2", "run_b", "--out", "compare"]),
    ]


def _clear_outputs(workdir: Path) -> None:
    for d in ("data", "run_a", "run_b", "report", "verdicts", "compare"):
        shutil.rmtree(workdir / d, ignore_errors=True)


def _step_digest(workdir: Path, step: str) -> str | None:
    h = hashlib.sha256()
    for rel in STEP_OUTPUTS[step]:
        path = workdir / rel
        if not path.is_file():
            return None
        h.update(rel.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _recommendation(workdir: Path) -> str | None:
    path = workdir / "compare" / "ttest.txt"
    if not path.is_file():
        return None
    lines = [l for l in path.read_text(encoding="utf-8").splitlines()
             if l.startswith("recommendation = ")]
    return lines[-1] if lines else None


def _cli_setup(ctx: Context, workdir: Path) -> int:
    """Write the label table and start the CLI once, from the working directory.

    Returns the exit code of ``olivenet.cli --version``.
    """
    data.save_labels(records(ctx.scale), workdir / "labels.csv")
    return subprocess.run([sys.executable, "-m", "olivenet.cli", "--version"],
                          cwd=workdir, env=ctx.child_env(), capture_output=True,
                          timeout=120).returncode


def cli_pipeline(ctx: Context) -> Result:
    workdir = ctx.workdir("cli-pipeline")
    codes, setups = [], []

    def setup():
        codes.append(_cli_setup(ctx, workdir))

    repeat_setup(setup, ctx.scale, setups)
    steps = cli_steps(ctx, CLI_JOBS)
    n_oil = sum(r.has(PARAMETER) for r in records(ctx.scale))
    work = 2 * loocv_sample_epochs(n_oil, ctx.scale.repetitions, CLI_EPOCHS)
    res = Result()
    chains, rates, step_times = [], [], {name: [] for name, _ in steps}
    first_digests, first_rec, mae_val = None, None, float("nan")
    deadline = time.perf_counter() + ctx.seconds
    while len(chains) < MIN_OPS or time.perf_counter() < deadline:
        _clear_outputs(workdir)
        total, digests, loocv_s = 0.0, {}, 0.0
        for name, argv in steps:
            res.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "olivenet.cli", *argv], cwd=workdir,
                                  env=ctx.child_env(), capture_output=True, text=True,
                                  timeout=170)
            dt = time.perf_counter() - t0
            total += dt
            step_times[name].append(dt)
            if name.startswith("loocv"):
                loocv_s += dt
            digests[name] = _step_digest(workdir, name)
            if proc.returncode != 0:
                res.fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            elif digests[name] is None:
                res.fail(f"{name} left an output file missing")
            elif first_digests is not None and digests[name] != first_digests[name]:
                res.fail(f"{name} outputs differ from the first run")
        rec = _recommendation(workdir)
        if first_digests is None:
            first_digests, first_rec = digests, rec
            summary = workdir / "run_a" / "summary.json"
            if summary.is_file():
                mae_val = json.loads(summary.read_text(encoding="utf-8"))["mean_mae_val"]
        elif rec != first_rec:
            res.fail(f"compare recommendation changed: {rec!r} vs {first_rec!r}")
        chains.append(total)
        rates.append(work / loocv_s)
        deadline += repeat_setup(setup, ctx.scale, setups)[1]
    if any(codes):
        res.fail(f"olivenet CLI --version exited {max(codes)}", res.attempted - res.failed)
    res.details.update(pipeline_s=statistics.median(chains), jobs=CLI_JOBS,
                       epochs=CLI_EPOCHS, recommendation=first_rec,
                       step_p50_s={k: statistics.median(v) for k, v in step_times.items()})
    shutil.rmtree(workdir, ignore_errors=True)
    return finish(res, setups, chains, rates, mae_val)


def cli_pipeline_traced(ctx: Context) -> Result:
    """The chain in-process through ``cli.main(argv)``, with ``--jobs 1``."""
    workdir = ctx.workdir("cli-pipeline")
    _cli_setup(ctx, workdir)
    steps = cli_steps(ctx, jobs=1)
    probes = run_probes(ctx, None)

    def op(tracer):
        _clear_outputs(workdir)
        units = []
        here = os.getcwd()
        os.chdir(workdir)
        try:
            for name, argv in steps:
                with (tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                digest = _step_digest(workdir, name)
                units.append((name, code, digest) if code == 0 and digest else None)
        finally:
            os.chdir(here)
        return units

    res = traced_run(op, probes)
    csv_path = workdir / "data" / "spectra.csv"
    res.put("data.spectra_csv_bytes", csv_path.stat().st_size if csv_path.is_file() else 0,
            "bytes")
    shutil.rmtree(workdir, ignore_errors=True)
    return res


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(op, probes: dict) -> Result:
    """Alternate untraced and traced passes of ``op`` and collect its spans.

    ``op(tracer)`` runs one pass (``tracer`` is None when untraced) and
    returns a list of per-unit outputs; ``None`` marks a unit that failed.
    Every pass must reproduce the first, so tracing cannot change an output.
    The overhead is the fastest traced pass minus the fastest untraced one.
    """
    res = Result()
    times = {False: [], True: []}
    first, tracer = None, None
    for _ in range(TRACE_PAIRS):
        for traced in (False, True):
            tracer = Tracer() if traced else None
            t0 = time.perf_counter()
            with tracer.installed() if tracer else contextlib.nullcontext():
                units = op(tracer)
            times[traced].append(time.perf_counter() - t0)
            if tracer:
                tracer.wall_s = times[True][-1]
            first = units if first is None else first
            res.attempted += len(units)
            bad = sum(u is None or u != f for u, f in zip(units, first))
            if bad:
                res.fail(f"{bad} unit(s) failed or differ from the first pass "
                         f"({'traced' if traced else 'untraced'})", bad)
    res.details["jobs"] = 1
    return layer_metrics(res, tracer, min(times[False]), min(times[True]), probes)


def run_probes(ctx: Context, dataset: data.Dataset | None) -> dict[str, float]:
    """Public calls at default shapes, timed from outside; medians."""
    scale = ctx.scale
    if dataset is None:
        dataset = make_dataset(scale, ctx.seed, scale.repetitions)
    x, _ = design(dataset, PARAMETER)
    b64 = x[np.arange(64) % len(x)]
    hp = nn.HyperParams()
    rng = np.random.default_rng(ctx.seed)
    net = nn.build_network(hp, scale.pixels, rng)
    grads = {k: 1e-3 * rng.standard_normal(v.shape) for k, v in net.parameters().items()}
    opt = nn.Adam(net.copy_parameters(), hp.learning_rate)
    path = ctx.workdir("probe") / "probe.ocnn"
    nn.save_network(net, path)
    spectrum = dataset.spectra[0]
    values = {p: 0.1 for p in PARAMETER_ORDER}
    thresholds = quality.default_thresholds()
    maes = rng.uniform(0.1, 0.4, (2, 22))
    startup = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import olivenet.cli"], env=ctx.child_env(),
                       cwd=ctx.root, check=True, timeout=120)
        startup.append(time.perf_counter() - t0)
    probes = {
        "nn.forward_b1_us": 1e6 * median_time(lambda: nn.forward(net, x[0]), 200),
        "nn.forward_b64_ms": 1e3 * median_time(lambda: nn.forward(net, b64), 20),
        "nn.adam_step_us": 1e6 * median_time(lambda: opt.step(grads), 200),
        "nn.load_network_ms": 1e3 * median_time(lambda: nn.load_network(path), 20),
        "nn.flop_per_sample": flop_per_sample(hp, scale.pixels),
        "data.normalize_us": 1e6 * median_time(lambda: data.normalize(spectrum), 500),
        "quality.classify_us": 1e6 * median_time(lambda: quality.classify(values, thresholds), 500),
        "stats.compare_configs_ms": 1e3 * median_time(
            lambda: stats.compare_configs(maes[0], maes[1]), 50),
        "cli.startup_s": statistics.median(startup),
        "trace.span_us": span_cost_us(),
    }
    shutil.rmtree(path.parent, ignore_errors=True)
    return probes


def span_cost_us() -> float:
    """Cost of one recorded span: a wrapped no-op call minus a plain one."""
    calls = 20000
    def noop():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    wrapped = Tracer().wrap(noop, "bench.noop")
    return 1e6 * (median_time(lambda: loop(wrapped), 3) - median_time(lambda: loop(noop), 3)) / calls


def layer_metrics(res: Result, tracer: Tracer, untraced: float, traced: float,
                  probes: dict) -> Result:
    """Every ``PER_LAYER`` metric; 0 where the traced pass never entered a layer."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(probes)
    self_s = tracer.self_times()
    wall = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    values["bench.self_s"] = self_s["bench"] + max(tracer.wall_s - wall, 0.0)
    for m in MODULES[:-1]:
        values[f"{m}.self_s"] = self_s[m]
    values["nn.self_share"] = self_s["nn"] / tracer.wall_s
    epoch_s = [e for e, _ in tracer.epochs]
    if epoch_s:
        values["nn.train_epoch_ms_p50"] = 1e3 * statistics.median(epoch_s)
        values["nn.train_epoch_ms_p90"] = 1e3 * percentile(epoch_s, 90)
    values["nn.train_samples"] = sum(n for _, n in tracer.epochs)
    values["nn.train_s"] = tracer.total("nn.train")
    values["nn.train_calls"] = tracer.count("nn.train")
    values["nn.adam_steps"] = tracer.count("nn.adam_step")
    values["nn.forward_calls"] = tracer.count("nn.forward")
    values["nn.forward_s"] = tracer.total("nn.forward")
    values["evaluation.loocv_s"] = tracer.total("evaluation.loocv")
    values["evaluation.folds"] = tracer.count_under("nn.train", "evaluation.loocv")
    values["data.save_spectra_s"] = tracer.total("data.save_spectra")
    values["data.load_spectra_s"] = tracer.total("data.load_spectra")
    values["data.normalize_calls"] = tracer.count("data.normalize")
    values["synth.generate_dataset_s"] = tracer.total("synth.generate_dataset")
    values["quality.classify_calls"] = tracer.count("quality.classify")
    for step in ("generate", "loocv_a", "loocv_b", "report", "classify", "compare"):
        values[f"cli.{step}_s"] = tracer.total(f"cli.{step}")
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.spans"] = len(tracer.spans)

    # Extrapolated, not measured: one LOOCV at 500 and at 10000 epochs, from
    # the median epoch plus the per-LOOCV work that does not scale with epochs.
    loocvs = tracer.count("evaluation.loocv")
    if epoch_s and loocvs:
        folds = values["evaluation.folds"] / loocvs
        fixed = (values["evaluation.loocv_s"] - values["nn.train_s"]) / loocvs
        epoch = statistics.median(epoch_s)
        values["extrap.criterion6_s"] = folds * CRITERION6_EPOCHS * epoch + fixed
        values["extrap.paper_scale_s"] = folds * PAPER_EPOCHS * epoch + fixed
    for name, value in values.items():
        res.put(name, value, PER_LAYER[name])
    return res


WORKLOADS = {
    "loocv-train": (loocv_train, loocv_train_traced),
    "grade-one": (grade_one, grade_one_traced),
    "cli-pipeline": (cli_pipeline, cli_pipeline_traced),
}
