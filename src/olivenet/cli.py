"""Command-line entry points tying the pipeline into reproducible runs.

Subcommands: generate, train, loocv, compare, classify, report.  Every
output directory receives a manifest: the parsed command line, each option
under its argparse ``dest``, and a SHA-256 of every file the outputs depend
on.  The options and those files are all that decide a command's outputs, so
rerunning a command with the same inputs reproduces the numerical output
files byte for byte (the manifest itself carries a timestamp and is excluded
from that guarantee).

Exit codes: 0 success, 1 internal error, 2 input error, 3 empty result,
4 training diverged (a non-finite loss, MAE, parameter or prediction; lower
the learning rate).  A diverged ``train`` writes no model.

The type of the exception alone decides the code: ``EmptyResultError`` exits
3, ``nn.DivergenceError`` 4, ``ValueError`` and ``OSError`` 2, and anything
else 1.  Every input check raises a plain ``ValueError``, as does every
``float()``, ``int()`` or ``json.loads`` of a bad file.  A program fault
raises something else: ``nn.ShapeError`` (a ``RuntimeError``) for arrays
that do not fit, and a ``RuntimeError`` naming the fold for any failure
inside a LOOCV fold.  A ``ValueError`` that numpy raises from a bug outside
a fold still exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import data as dmod
from . import evaluation as emod
from . import nn
from . import quality as qmod
from . import stats as smod
from . import synth
from .seeding import derive_rng

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_DIVERGED = 4


class EmptyResultError(Exception):
    """Nothing to report; maps to exit code 3."""


def file_sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, args: argparse.Namespace, inputs: dict[str, Path]) -> None:
    """Write ``manifest.json``: every parsed option and a hash of each input file."""
    manifest = {k: v for k, v in vars(args).items() if k != "func"}
    manifest.update(
        artifact_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
        dataset_fingerprint={name: file_sha256(p) for name, p in inputs.items()},
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise ValueError(f"{what} not found: {path}")
    return path


def _out_dir(arg: str) -> Path:
    p = Path(arg)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _named(path: Path, load, *args):
    """``load(path, *args)``, with ``path`` prefixed to any input error it raises."""
    try:
        return load(path, *args)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _load_dataset_dir(args) -> tuple[dmod.ParameterId, dmod.Dataset, dict[str, Path]]:
    """``--parameter``, the ``--data`` dataset filtered to it, and its three files."""
    parameter = dmod.ParameterId(args.parameter)
    files = {name: _require(Path(args.data) / name, what) for name, what in (
        ("labels.csv", "labels file"), ("spectra.csv", "spectra file"), ("grid.txt", "grid file"))}
    records = _named(files["labels.csv"], dmod.load_labels)
    # load_grid names its own file: check it here, outside the spectra file's prefix
    dmod.load_grid(files["grid.txt"])
    dataset = _named(files["spectra.csv"], dmod.load_spectra, files["grid.txt"], records)
    return parameter, dmod.filter_for_parameter(dataset, parameter), files


#: Help text of the hyperparameter flags that have one.
_HP_HELP = {"epochs": f"default {nn.HyperParams.epochs} runs at desk scale; "
                      "the full-scale reference value is 10000"}


def _hp_from_args(args) -> nn.HyperParams:
    return nn.HyperParams(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(nn.HyperParams)})


def _add_hp_flags(p: argparse.ArgumentParser) -> None:
    """One flag per ``HyperParams`` field, with its default."""
    g = p.add_argument_group("hyperparameters")
    for f in dataclasses.fields(nn.HyperParams):
        g.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                       help=_HP_HELP.get(f.name))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    labels_path = Path(args.labels) if args.labels else dmod.bundled_labels_path()
    records = _named(_require(labels_path, "labels file"), dmod.load_labels)
    if args.gen_config:
        config = synth.load_generator_config(_require(Path(args.gen_config), "generator config"),
                                             args.seed)
    else:
        config = synth.default_generator_config(seed=args.seed)
    grid = dmod.default_grid(args.pixels, args.grid_start, args.grid_stop)
    dataset = synth.generate_dataset(records, args.excitation, args.repetitions, config, grid)

    out = _out_dir(args.out)
    dmod.save_spectra(dataset, out / "spectra.csv")
    dmod.save_grid(grid, out / "grid.txt")
    dmod.save_labels(records, out / "labels.csv")
    synth.save_generator_config(config, out / "generator.cfg")
    write_manifest(out, args, {name: out / name for name in (
        "spectra.csv", "grid.txt", "labels.csv", "generator.cfg")})
    print(f"generated {dataset.n_spectra} spectra for {dataset.n_oil} oils "
          f"at {args.excitation} nm -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    parameter, dataset, files = _load_dataset_dir(args)
    hp = _hp_from_args(args)
    x, y, _ = emod.design_matrices(dataset, parameter)

    rng = derive_rng(args.seed, "train", parameter.value)
    net = nn.build_network(hp, x.shape[1], rng)
    trace = nn.train(net, x, y, hp, rng)
    # the last batch's loss is taken before its update, so a finite trace
    # does not prove a usable model: score the training spectra as well
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(nn.forward(net, x)).all() and all(
            np.isfinite(v).all() for v in net.parameters().values())
    if not finite:
        raise nn.DivergenceError("non-finite parameters or predictions after training")

    out = _out_dir(args.out)
    nn.save_network(net, out / "model.ocnn")
    nn.save_trace(trace, out / "trace.csv")
    write_manifest(out, args, files)
    final = trace[-1].train_mse if trace else float("nan")
    print(f"trained {parameter.value} model on {dataset.n_spectra} spectra "
          f"({hp.epochs} epochs, final train MSE {final:.6g}) -> {out}")
    return EXIT_OK


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_loocv(args) -> int:
    parameter, dataset, files = _load_dataset_dir(args)
    hp = _hp_from_args(args)
    jobs = args.jobs or _usable_cores()

    summary = emod.loocv(dataset, parameter, hp, args.seed, jobs=jobs)

    input_len = len(dataset.grid)
    num_parameters = nn.build_network(hp, input_len, np.random.default_rng(0)).num_parameters()
    out = _out_dir(args.out)
    emod.save_summary(summary, out / "summary.json",
                      num_parameters=num_parameters, input_len=input_len)
    emod.save_fold_csv(summary, out / "folds.csv")
    emod.save_scatter_csv([summary], out / "scatter.csv")
    write_manifest(out, args, files)
    print(f"loocv {parameter.value}: {summary.n_oil} folds, "
          f"checkpoint {summary.checkpoint}, "
          f"<MAE_T>={summary.mean_mae_train:.4g} <MAE_V>={summary.mean_mae_val:.4g} "
          f"-> {out}")
    if summary.leakage_ratio() > emod.LEAKAGE_LIMIT:
        print(f"warning: <MAE_V> exceeds {emod.LEAKAGE_LIMIT:g}x <MAE_T>; "
              "possible leave-one-out leakage",
              file=sys.stderr)
    return EXIT_OK


def _read_run(run: Path) -> tuple[emod.CvSummary, int | None]:
    """A ``loocv`` run's summary, rebuilt from its folds, and its network size."""
    path = _require(run / "summary.json", "run summary")
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
        summary = emod.summary_from_dict(d)
        n = d.get("num_parameters")
        if n is not None and type(n) is not int:
            raise ValueError(f"num_parameters {n!r} is not an integer")
    except ValueError as e:
        raise ValueError(f"{run}: {e}") from e
    return summary, n


def cmd_compare(args) -> int:
    dir1, dir2 = Path(args.run1), Path(args.run2)
    (s1, n1), (s2, n2) = _read_run(dir1), _read_run(dir2)
    if s1.parameter != s2.parameter:
        raise ValueError(f"runs target different parameters: "
                         f"{s1.parameter.value} vs {s2.parameter.value}")
    maes1, maes2 = ({f.held_out_oil: f.mae_val for f in s.per_fold} for s in (s1, s2))
    if set(maes1) != set(maes2):
        raise ValueError("runs cover different oil sets; comparison undefined")
    oils = sorted(maes1)
    runs = [("run1", dir1, [maes1[o] for o in oils]), ("run2", dir2, [maes2[o] for o in oils])]
    # The one-sided test asks whether sample 1 has the higher mean MAE, so the
    # higher-mean run goes first, whatever the argument order.
    worse, better = sorted(runs, key=lambda run: -np.mean(run[2]))
    report = smod.compare_configs(worse[2], better[2],
                                  alpha=args.alpha, two_sided=args.two_sided)

    text = (f"sample_1 = {worse[0]} {worse[1]} (higher mean MAE)\n"
            f"sample_2 = {better[0]} {better[1]}\n") + smod.report_text(report)
    if report.reject_equal_means:
        text += f"recommendation = {better[0]} (significantly lower mean MAE)\n"
    elif n1 is not None and n2 is not None and n1 != n2:
        rec = "run1" if n1 < n2 else "run2"
        text += (f"recommendation = {rec} (means not significantly different; "
                 f"fewer parameters: {min(n1, n2)} vs {max(n1, n2)})\n")
    else:
        text += "recommendation = either (means not significantly different)\n"
    print(text, end="")
    if args.out:
        out = _out_dir(args.out)
        (out / "ttest.txt").write_text(text, encoding="utf-8")
        write_manifest(out, args, {"summary1.json": dir1 / "summary.json",
                                   "summary2.json": dir2 / "summary.json"})
    return EXIT_OK


def cmd_classify(args) -> int:
    path = _require(Path(args.input), "input table")
    table = _named(path, lambda p: list(dmod.read_oil_table(p)))
    if not table:
        raise ValueError(f"{path}: no data rows")
    thresholds = (qmod.load_thresholds(_require(Path(args.thresholds), "thresholds file"))
                  if args.thresholds else qmod.default_thresholds())
    out_rows = []
    for _, oil_id, values, _ in table:
        verdict = qmod.classify(dict(zip(dmod.PARAMETER_ORDER, values)), thresholds)
        failing = ";".join(f"{p.value}={v:g}>{lim:g}" for p, v, lim in verdict.failing_parameters)
        unevaluated = ";".join(p.value for p in verdict.unevaluated)
        out_rows.append((oil_id, verdict.grade.value, failing, unevaluated))
    text = dmod.write_csv_text(("oil_id", "grade", "failing", "unevaluated"), out_rows)
    if args.out:
        out = _out_dir(args.out)
        (out / "verdicts.csv").write_text(text, encoding="utf-8")
        inputs = {"input.csv": Path(args.input)}
        if args.thresholds:
            inputs["thresholds.cfg"] = Path(args.thresholds)
        write_manifest(out, args, inputs)
        print(f"classified {len(out_rows)} oils (chemical parameters only; "
              f"no organoleptic assessment) -> {out}")
    else:
        print(text, end="")
        print("note: verdicts use chemical parameters only; no organoleptic "
              "assessment", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    completed = []  # each run directory as given on the command line
    for run in args.runs:
        if (Path(run) / "summary.json").exists():
            completed.append(run)
        else:
            print(f"warning: skipping incomplete run dir {run}", file=sys.stderr)
    if not completed:
        raise EmptyResultError("no completed run directories")

    summaries = [_read_run(Path(r))[0] for r in completed]

    header = (f"{'parameter':<14}{'<MAE_T>':>10}{'sd(MAE_T)':>11}{'<MAE_V>':>10}"
              f"{'sd(MAE_V)':>11}{'avg err %':>11}  run")
    lines = [header, "-" * len(header)]
    for run, s in zip(completed, summaries):
        pct = "-" if s.average_error_pct is None else f"{s.average_error_pct:.3g}"
        lines.append(
            f"{s.parameter.value:<14}{s.mean_mae_train:>10.3g}{s.sd_mae_train:>11.3g}"
            f"{s.mean_mae_val:>10.3g}{s.sd_mae_val:>11.3g}{pct:>11}  {run}")
        if s.leakage_ratio() > emod.LEAKAGE_LIMIT:
            lines.append(f"  ^ warning: leakage guard tripped "
                         f"(<MAE_V>/<MAE_T> = {s.leakage_ratio():.2f})")
    table = "\n".join(lines) + "\n"
    print(table, end="")

    if args.out:
        # consolidated per-oil predictions (mean across repetitions) per parameter;
        # a later run of the same parameter replaces an earlier one's
        preds: dict[str, dict[str, float]] = {}
        taken: dict[dmod.ParameterId, str] = {}
        for run, s in zip(completed, summaries):
            if s.parameter in taken:
                print(f"warning: {taken[s.parameter]} and {run} both hold "
                      f"{s.parameter.value}; predictions.csv takes {run}", file=sys.stderr)
            taken[s.parameter] = run
            for f in s.per_fold:
                preds.setdefault(f.held_out_oil, {})[s.parameter.value] = float(
                    np.mean(f.predictions))

        out = _out_dir(args.out)
        (out / "table.txt").write_text(table, encoding="utf-8")
        emod.save_scatter_csv(summaries, out / "scatter_all.csv")
        names = [p.value for p in dmod.PARAMETER_ORDER]
        (out / "predictions.csv").write_text(dmod.write_csv_text(
            ["oil_id"] + names,
            ([oil_id] + [preds[oil_id].get(n, "-") for n in names] for oil_id in sorted(preds))),
            encoding="utf-8")
        write_manifest(out, args, {f"summary{i}.json": Path(r) / "summary.json"
                                   for i, r in enumerate(completed)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="olivenet",
        description="1D-CNN regression of olive oil quality parameters "
                    "from fluorescence spectra")
    p.add_argument("--version", action="version", version=f"olivenet {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a spectra dataset from labels")
    g.add_argument("--labels", help="labels CSV (default: bundled 22-oil table)")
    g.add_argument("--gen-config", help="generator config file (default: bundled)")
    g.add_argument("--excitation", type=int, default=395, choices=dmod.SUPPORTED_EXCITATIONS)
    g.add_argument("--repetitions", type=int, default=20)
    g.add_argument("--pixels", type=int, default=1024)
    g.add_argument("--grid-start", type=float, default=350.0)
    g.add_argument("--grid-stop", type=float, default=850.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train one network on a full dataset")
    t.add_argument("--data", required=True, help="directory from 'generate'")
    t.add_argument("--parameter", required=True,
                   choices=[q.value for q in dmod.ParameterId])
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    _add_hp_flags(t)
    t.set_defaults(func=cmd_train)

    l = sub.add_parser("loocv", help="leave-one-oil-out cross-validation")
    l.add_argument("--data", required=True, help="directory from 'generate'")
    l.add_argument("--parameter", required=True,
                   choices=[q.value for q in dmod.ParameterId])
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--jobs", type=int, default=0,
                   help="parallel folds; 0 = all usable cores (results identical)")
    l.add_argument("--out", required=True)
    _add_hp_flags(l)
    l.set_defaults(func=cmd_loocv)

    c = sub.add_parser("compare", help="t-test two loocv runs")
    c.add_argument("--run1", required=True)
    c.add_argument("--run2", required=True)
    c.add_argument("--alpha", type=float, default=0.05)
    c.add_argument("--two-sided", action="store_true")
    c.add_argument("--out")
    c.set_defaults(func=cmd_compare)

    q = sub.add_parser("classify", help="grade oils from labels or predictions")
    q.add_argument("--input", required=True, help="labels or predictions CSV")
    q.add_argument("--thresholds", help="thresholds file (default: bundled)")
    q.add_argument("--out")
    q.set_defaults(func=cmd_classify)

    r = sub.add_parser("report", help="consolidate loocv runs into a table")
    r.add_argument("runs", nargs="+", help="loocv output directories")
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyResultError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EMPTY
    except nn.DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # genuinely unexpected
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
