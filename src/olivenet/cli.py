"""Command-line entry points tying the pipeline into reproducible runs.

Subcommands: generate, train, loocv, compare, classify, report.  Every
output directory receives a manifest recording the command, seed, resolved
configuration and input fingerprints; rerunning a command with the same
inputs reproduces the numerical output files byte for byte (the manifest
itself carries timestamps and is excluded from that guarantee).

Exit codes: 0 success, 1 internal error, 2 input error, 3 empty result,
4 training diverged (a non-finite loss, MAE, parameter or prediction; lower
the learning rate).  A diverged ``train`` writes no model.
"""

from __future__ import annotations

import argparse
import csv
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


class InputError(Exception):
    """User-correctable problem; maps to exit code 2."""


class EmptyResultError(Exception):
    """Nothing to report; maps to exit code 3."""


class DivergedModelError(Exception):
    """A trained model has non-finite parameters or predictions; exit code 4."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(out_dir: Path, command: str, seed, config_paths: dict,
                   hyperparams: dict | None, inputs: dict[str, Path]) -> None:
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "created_utc": _utc_now(),
        "seed": seed,
        "config_paths": {k: str(v) for k, v in config_paths.items()},
        "hyperparams": hyperparams,
        "dataset_fingerprint": {
            name: _sha256(p) for name, p in sorted(inputs.items()) if p.exists()
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise InputError(f"{what} not found: {path}")
    return path


def _out_dir(arg: str) -> Path:
    p = Path(arg)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _load_dataset_dir(dataset_dir: Path) -> dmod.Dataset:
    labels = dmod.load_labels(_require(dataset_dir / "labels.csv", "labels file"))
    return dmod.load_spectra(
        _require(dataset_dir / "spectra.csv", "spectra file"),
        _require(dataset_dir / "grid.txt", "grid file"),
        labels,
    )


#: Help text of the hyperparameter flags that have one.
_HP_HELP = {"epochs": f"default {nn.HyperParams.epochs} runs at desk scale; "
                      "the full-scale reference value is 10000"}


def _hp_flags():
    """(name, default) of each hyperparameter flag; dense_sizes gives two."""
    for f in dataclasses.fields(nn.HyperParams):
        if f.name == "dense_sizes":
            yield from zip(("dense1", "dense2"), f.default)
        else:
            yield f.name, f.default


def _hp_from_args(args) -> nn.HyperParams:
    values = {name: getattr(args, name) for name, _ in _hp_flags()}
    values["dense_sizes"] = (values.pop("dense1"), values.pop("dense2"))
    return nn.HyperParams(**values)


def _add_hp_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("hyperparameters")
    for name, default in _hp_flags():
        g.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                       help=_HP_HELP.get(name))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    labels_path = Path(args.labels) if args.labels else dmod.bundled_labels_path()
    records = dmod.load_labels(_require(labels_path, "labels file"))
    if args.gen_config:
        config = synth.load_generator_config(_require(Path(args.gen_config), "generator config"),
                                             seed=args.seed)
    else:
        config = synth.default_generator_config(seed=args.seed)
    grid = dmod.default_grid(args.pixels, args.grid_start, args.grid_stop)
    dataset = synth.generate_dataset(records, args.excitation, args.repetitions, config, grid)

    out = _out_dir(args.out)
    dmod.save_spectra(dataset, out / "spectra.csv")
    dmod.save_grid(grid, out / "grid.txt")
    dmod.save_labels(records, out / "labels.csv")
    synth.save_generator_config(config, out / "generator.cfg")
    write_manifest(
        out, "generate", args.seed,
        {"labels": labels_path, "gen_config": args.gen_config or "<bundled>"},
        None,
        {"spectra.csv": out / "spectra.csv", "grid.txt": out / "grid.txt",
         "labels.csv": out / "labels.csv"},
    )
    print(f"generated {dataset.n_spectra} spectra for {dataset.n_oil} oils "
          f"at {args.excitation} nm -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    dataset_dir = _require(Path(args.data), "dataset directory")
    parameter = dmod.ParameterId(args.parameter)
    hp = _hp_from_args(args)
    dataset = dmod.filter_for_parameter(_load_dataset_dir(dataset_dir), parameter)
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
        raise DivergedModelError("non-finite parameters or predictions after training")

    out = _out_dir(args.out)
    nn.save_network(net, out / "model.ocnn")
    nn.save_trace(trace, out / "trace.csv")
    write_manifest(out, "train", args.seed, {"data": dataset_dir}, hp.to_dict(),
                   {"spectra.csv": dataset_dir / "spectra.csv",
                    "grid.txt": dataset_dir / "grid.txt",
                    "labels.csv": dataset_dir / "labels.csv"})
    final = trace[-1].train_mse if trace else float("nan")
    print(f"trained {parameter.value} model on {dataset.n_spectra} spectra "
          f"({hp.epochs} epochs, final train MSE {final:.6g}) -> {out}")
    return EXIT_OK


def cmd_loocv(args) -> int:
    dataset_dir = _require(Path(args.data), "dataset directory")
    parameter = dmod.ParameterId(args.parameter)
    hp = _hp_from_args(args)
    dataset = dmod.filter_for_parameter(_load_dataset_dir(dataset_dir), parameter)
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)

    summary = emod.loocv(dataset, parameter, hp, args.seed,
                         val_every=args.val_every, jobs=jobs)

    input_len = len(dataset.grid)
    num_parameters = nn.build_network(hp, input_len, np.random.default_rng(0)).num_parameters()
    out = _out_dir(args.out)
    emod.save_summary(summary, out / "summary.json",
                      num_parameters=num_parameters, input_len=input_len)
    emod.save_fold_csv(summary, out / "folds.csv")
    emod.save_scatter_csv(summary, dataset.records, out / "scatter.csv")
    write_manifest(out, "loocv", args.seed, {"data": dataset_dir}, hp.to_dict(),
                   {"spectra.csv": dataset_dir / "spectra.csv",
                    "grid.txt": dataset_dir / "grid.txt",
                    "labels.csv": dataset_dir / "labels.csv"})
    print(f"loocv {parameter.value}: {summary.n_oil} folds, "
          f"checkpoint {summary.checkpoint}, "
          f"<MAE_T>={summary.mean_mae_train:.4g} <MAE_V>={summary.mean_mae_val:.4g} "
          f"-> {out}")
    if summary.leakage_ratio() > 3.0:
        print("warning: <MAE_V> exceeds 3x <MAE_T>; possible leave-one-out leakage",
              file=sys.stderr)
    return EXIT_OK


def _read_fold_csv(run_dir: Path) -> tuple[str, dict[str, float]]:
    path = _require(run_dir / "folds.csv", "per-fold CSV")
    by_oil: dict[str, float] = {}
    parameter = None
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            parameter = row["parameter"]
            by_oil[row["held_out_oil"]] = float(row["mae_val"])
    if not by_oil:
        raise InputError(f"{path} holds no folds")
    return parameter, by_oil


def _run_param_count(run_dir: Path) -> int | None:
    """The network size ``loocv`` recorded in the run's summary, if any."""
    summary = run_dir / "summary.json"
    if not summary.exists():
        return None
    return json.loads(summary.read_text(encoding="utf-8")).get("num_parameters")


def cmd_compare(args) -> int:
    dir1, dir2 = Path(args.run1), Path(args.run2)
    param1, maes1 = _read_fold_csv(dir1)
    param2, maes2 = _read_fold_csv(dir2)
    if param1 != param2:
        raise InputError(f"runs target different parameters: {param1} vs {param2}")
    if set(maes1) != set(maes2):
        raise InputError("runs cover different oil sets; comparison undefined")
    oils = sorted(maes1)
    runs = [("run1", dir1, [maes1[o] for o in oils]), ("run2", dir2, [maes2[o] for o in oils])]
    # The one-sided test asks whether sample 1 has the higher mean MAE, so the
    # higher-mean run goes first, whatever the argument order.
    worse, better = sorted(runs, key=lambda run: -np.mean(run[2]))
    report = smod.compare_configs(worse[2], better[2],
                                  alpha=args.alpha, two_sided=args.two_sided)

    text = (f"sample_1 = {worse[0]} {worse[1]} (higher mean MAE)\n"
            f"sample_2 = {better[0]} {better[1]}\n") + smod.report_text(report)
    n1, n2 = _run_param_count(dir1), _run_param_count(dir2)
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
        write_manifest(out, "compare", None, {"run1": dir1, "run2": dir2}, None,
                       {"folds1.csv": dir1 / "folds.csv", "folds2.csv": dir2 / "folds.csv"})
    return EXIT_OK


def _read_parameter_table(path: Path) -> list[tuple[str, dict]]:
    """Read oil_id plus the five parameter columns; quality/exp_error optional."""
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        need = ["oil_id"] + [p.value for p in dmod.PARAMETER_ORDER]
        missing = [c for c in need if c not in (reader.fieldnames or [])]
        if missing:
            raise InputError(f"{path}: missing columns {missing}")
        for row in reader:
            values = {}
            for p in dmod.PARAMETER_ORDER:
                cell = (row[p.value] or "").strip()
                values[p] = None if cell in ("", "-") else float(cell)
            rows.append((row["oil_id"], values))
    if not rows:
        raise InputError(f"{path}: no data rows")
    return rows


def cmd_classify(args) -> int:
    table = _read_parameter_table(_require(Path(args.input), "input table"))
    thresholds = (qmod.load_thresholds(_require(Path(args.thresholds), "thresholds file"))
                  if args.thresholds else qmod.default_thresholds())
    out_rows = []
    for oil_id, values in table:
        verdict = qmod.classify(values, thresholds)
        failing = ";".join(f"{p.value}={v:g}>{lim:g}" for p, v, lim in verdict.failing_parameters)
        unevaluated = ";".join(p.value for p in verdict.unevaluated)
        out_rows.append((oil_id, verdict.grade.value, failing, unevaluated))
    lines = ["oil_id,grade,failing,unevaluated"]
    lines += [",".join(r) for r in out_rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_dir(args.out)
        (out / "verdicts.csv").write_text(text, encoding="utf-8")
        write_manifest(out, "classify", None,
                       {"input": Path(args.input),
                        "thresholds": args.thresholds or "<bundled>"},
                       None, {"input.csv": Path(args.input)})
        print(f"classified {len(out_rows)} oils (chemical parameters only; "
              f"no organoleptic assessment) -> {out}")
    else:
        print(text, end="")
        print("note: verdicts use chemical parameters only; no organoleptic "
              "assessment", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    completed = []
    for d in args.runs:
        run = Path(d)
        if (run / "summary.json").exists() and (run / "scatter.csv").exists():
            completed.append(run)
        else:
            print(f"warning: skipping incomplete run dir {run}", file=sys.stderr)
    if not completed:
        raise EmptyResultError("no completed run directories")

    summaries = [json.loads((r / "summary.json").read_text(encoding="utf-8"))
                 for r in completed]

    def cell(v, spec="{:.3g}"):
        return "-" if v is None else spec.format(v)

    header = (f"{'parameter':<14}{'<MAE_T>':>10}{'sd(MAE_T)':>11}{'<MAE_V>':>10}"
              f"{'sd(MAE_V)':>11}{'avg err %':>11}{'label err %':>13}")
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s['parameter']:<14}{s['mean_mae_train']:>10.3g}{s['sd_mae_train']:>11.3g}"
            f"{s['mean_mae_val']:>10.3g}{s['sd_mae_val']:>11.3g}"
            f"{cell(s['average_error_pct']):>11}{cell(s['label_error_pct']):>13}")
        if s["leakage_ratio"] > 3.0:
            lines.append(f"  ^ warning: leakage guard tripped "
                         f"(<MAE_V>/<MAE_T> = {s['leakage_ratio']:.2f})")
    table = "\n".join(lines) + "\n"
    print(table, end="")

    # consolidated per-oil predictions (mean across repetitions) per parameter
    preds: dict[str, dict[str, float]] = {}
    for s in summaries:
        for f in s["folds"]:
            preds.setdefault(f["held_out_oil"], {})[s["parameter"]] = float(
                np.mean(f["predictions"]))

    if args.out:
        out = _out_dir(args.out)
        (out / "table.txt").write_text(table, encoding="utf-8")
        with (out / "scatter_all.csv").open("w", encoding="utf-8") as fh:
            for i, r in enumerate(completed):
                body = (r / "scatter.csv").read_text(encoding="utf-8").splitlines()
                fh.write("\n".join(body if i == 0 else body[1:]) + "\n")
        with (out / "predictions.csv").open("w", encoding="utf-8") as fh:
            fh.write("oil_id," + ",".join(p.value for p in dmod.PARAMETER_ORDER) + "\n")
            for oil_id in sorted(preds):
                row = [oil_id]
                for p in dmod.PARAMETER_ORDER:
                    v = preds[oil_id].get(p.value)
                    row.append("-" if v is None else repr(v))
                fh.write(",".join(row) + "\n")
        write_manifest(out, "report", None,
                       {f"run{i}": r for i, r in enumerate(completed)}, None,
                       {f"summary{i}.json": r / "summary.json"
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
    g.add_argument("--excitation", type=int, default=395, choices=(365, 395))
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
    l.add_argument("--val-every", type=int, default=10)
    l.add_argument("--jobs", type=int, default=0,
                   help="parallel folds; 0 = all cores (results identical)")
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
    except (nn.DivergenceError, emod.FoldDivergedError, DivergedModelError) as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (InputError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # genuinely unexpected
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
