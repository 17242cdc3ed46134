"""Metrics, leave-one-oil-out cross-validation and aggregate reporting.

One fold removes all repetitions of a single oil for validation and trains
on everything else.  During training two parameter snapshots are kept: the
one with the lowest validation loss and the one with the lowest training
loss.  Aggregating each snapshot across folds gives two candidate runs; the
run whose mean train/validation MAE agree best (smallest relative absolute
difference) is selected.  That guards against the classic leave-one-out
failure mode where a network scores well on the held-out oil by memorizing
label structure while train and validation errors drift apart.

The best-training-loss snapshot is taken after the epoch's updates, while
the loss it is ranked by is the sample-weighted mean of the epoch's batch
losses, each measured before its own update.  The snapshot is kept that
way on purpose: scoring the parameters after the last update would cost a
full extra forward pass over the training rows every epoch, and the
checkpoint's train MAE is measured afresh on those very parameters anyway.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import (
    Dataset,
    DimensionMismatchError,
    OilRecord,
    ParameterId,
    normalize,
)
from .nn import (
    DivergenceError,
    EmptyBatchError,
    HyperParams,
    build_network,
    forward,
    train,
)
from .seeding import derive_rng

CHECKPOINT_KINDS = ("best_val_loss", "best_train_loss")


class FoldError(RuntimeError):
    """Training failed inside one fold; carries the held-out oil id."""

    def __init__(self, oil_id: str, cause: BaseException):
        super().__init__(f"fold {oil_id}: {cause}")
        self.oil_id = oil_id
        self.cause = cause

    def __reduce__(self):  # rebuilt from both arguments when sent back by a worker
        return type(self), (self.oil_id, self.cause)


class FoldDivergedError(FoldError):
    """A fold's training loss, MAE or predictions became non-finite."""


@dataclass(frozen=True)
class FoldResult:
    held_out_oil: str
    true_value: float
    mae_train: float
    mae_val: float
    predictions: tuple[float, ...]
    chosen_checkpoint: str

    def __post_init__(self):
        if not (np.isfinite([self.mae_train, self.mae_val]).all()
                and np.isfinite(self.predictions).all()):
            raise FoldDivergedError(self.held_out_oil,
                                    ArithmeticError("non-finite MAE or predictions"))
        if self.mae_train < 0 or self.mae_val < 0:
            raise ValueError("MAE cannot be negative")
        if self.chosen_checkpoint not in CHECKPOINT_KINDS:
            raise ValueError(f"unknown checkpoint kind {self.chosen_checkpoint!r}")


@dataclass(frozen=True)
class CvSummary:
    parameter: ParameterId
    mean_mae_train: float
    sd_mae_train: float
    mean_mae_val: float
    sd_mae_val: float
    var_mae_val: float
    per_fold: tuple[FoldResult, ...]
    average_error_pct: Optional[float] = None
    label_error_pct: Optional[float] = None
    comparability_ratio: Optional[float] = None

    @property
    def n_oil(self) -> int:
        return len(self.per_fold)

    @property
    def checkpoint(self) -> str:
        return self.per_fold[0].chosen_checkpoint

    def fold_maes_val(self) -> np.ndarray:
        return np.array([f.mae_val for f in self.per_fold])

    def leakage_ratio(self) -> float:
        """Validation-to-train mean MAE ratio; large values suggest leakage."""
        if self.mean_mae_train == 0.0:
            return 0.0 if self.mean_mae_val == 0.0 else float("inf")
        return self.mean_mae_val / self.mean_mae_train


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DimensionMismatchError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise EmptyBatchError("MAE of an empty batch")
    return float(np.mean(np.abs(pred - target)))


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def design_matrices(dataset: Dataset, parameter: ParameterId):
    """Normalized (N, P) matrix, per-spectrum targets and oil ids."""
    rows, targets, ids = [], [], []
    for s in dataset.spectra:
        z = s if s.normalized else normalize(s)
        rows.append(z.intensities)
        v = dataset.record_for(s.oil_id).value_of(parameter)
        if v is None:
            raise ValueError(
                f"oil {s.oil_id} lacks {parameter.value}; filter_for_parameter first")
        targets.append(v)
        ids.append(s.oil_id)
    return np.stack(rows), np.array(targets), np.array(ids)


def _run_fold(hold, x_all, y_all, ids, hp, seed, val_every):
    """Train the fold that holds out oil ``hold`` and score both checkpoints.

    The fold's rows are sliced from the full matrices here, when it runs,
    so only the running folds' copies are alive at any time.
    """
    va = ids == hold
    x_tr, y_tr, x_va, y_va = x_all[~va], y_all[~va], x_all[va], y_all[va]
    rng = derive_rng(seed, "fold", hold)
    net = build_network(hp, x_tr.shape[1], rng)

    snapshots = {
        "best_val_loss": [np.inf, net.copy_parameters()],
        "best_train_loss": [np.inf, net.copy_parameters()],
    }

    def keep_best(epoch, train_mse, val_mse, live):
        if train_mse < snapshots["best_train_loss"][0]:
            snapshots["best_train_loss"] = [train_mse, live.copy_parameters()]
        if val_mse is not None and val_mse < snapshots["best_val_loss"][0]:
            snapshots["best_val_loss"] = [val_mse, live.copy_parameters()]

    try:
        train(net, x_tr, y_tr, hp, rng, validation=(x_va, y_va),
              val_every=val_every, callbacks=[keep_best])
    except DivergenceError as e:
        raise FoldDivergedError(hold, e) from e
    except Exception as e:  # annotate with the fold id
        raise FoldError(hold, e) from e

    out = {}
    for kind in CHECKPOINT_KINDS:
        net.set_parameters(snapshots[kind][1])
        with np.errstate(over="ignore", invalid="ignore"):  # FoldResult rejects non-finite
            pred_tr = forward(net, x_tr)
            pred_va = forward(net, x_va)
        out[kind] = FoldResult(
            held_out_oil=hold,
            true_value=float(y_va[0]),
            mae_train=mae(pred_tr, y_tr),
            mae_val=mae(pred_va, y_va),
            predictions=tuple(float(v) for v in pred_va),
            chosen_checkpoint=kind,
        )
    return hold, out


#: A pool worker's ``_run_fold`` arguments after the held-out oil, set once
#: per worker by ``_init_worker``.
_WORKER_ARGS: tuple = ()


def _init_worker(*args) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = args


def _run_worker_fold(hold: str):
    return _run_fold(hold, *_WORKER_ARGS)


def _aggregate(parameter: ParameterId, folds: Sequence[FoldResult]) -> CvSummary:
    tr = np.array([f.mae_train for f in folds])
    va = np.array([f.mae_val for f in folds])
    sd_va = float(va.std(ddof=1))
    return CvSummary(
        parameter=parameter,
        mean_mae_train=float(tr.mean()),
        sd_mae_train=float(tr.std(ddof=1)),
        mean_mae_val=float(va.mean()),
        sd_mae_val=sd_va,
        var_mae_val=sd_va ** 2,
        per_fold=tuple(folds),
    )


def loocv_checkpoint_runs(
    dataset: Dataset,
    parameter: ParameterId,
    hp: HyperParams,
    seed: int,
    *,
    val_every: int = 10,
    jobs: int = 1,
) -> tuple[CvSummary, CvSummary]:
    """Run all folds; returns the (best-val, best-train) checkpoint runs.

    Folds are independent: each derives its own RNG stream from (seed,
    oil id), so results do not depend on execution order or on ``jobs``.
    With ``jobs`` > 1 each worker receives the full matrices once, when it
    starts, and each task carries only the held-out oil id.
    """
    if dataset.n_oil < 3:
        raise ValueError("leave-one-out needs at least 3 oils")
    fold_args = (*design_matrices(dataset, parameter), hp, seed, val_every)
    oils = sorted({r.oil_id for r in dataset.records})

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=fold_args) as pool:
            results = dict(pool.map(_run_worker_fold, oils))
    else:
        results = dict(_run_fold(hold, *fold_args) for hold in oils)

    by_kind = {
        kind: [results[hold][kind] for hold in oils]
        for kind in CHECKPOINT_KINDS
    }
    return (_aggregate(parameter, by_kind["best_val_loss"]),
            _aggregate(parameter, by_kind["best_train_loss"]))


def comparability(summary: CvSummary) -> float:
    """Relative absolute difference between mean train and validation MAE."""
    if summary.mean_mae_train == 0.0:
        return 0.0 if summary.mean_mae_val == 0.0 else float("inf")
    return abs(summary.mean_mae_train - summary.mean_mae_val) / summary.mean_mae_train


def select_checkpoint(best_val_run: CvSummary, best_train_run: CvSummary) -> CvSummary:
    """Pick the run whose train and validation MAE are the most comparable.

    Ties go to the best-validation run.  The winning run is returned with
    its comparability ratio filled in.
    """
    a = {f.held_out_oil for f in best_val_run.per_fold}
    b = {f.held_out_oil for f in best_train_run.per_fold}
    if a != b:
        raise ValueError("checkpoint runs cover different oil sets")
    ra, rb = comparability(best_val_run), comparability(best_train_run)
    chosen, ratio = (best_val_run, ra) if ra <= rb else (best_train_run, rb)
    return replace(chosen, comparability_ratio=ratio)


def error_percentages(
    summary: CvSummary,
    records: Sequence[OilRecord],
) -> tuple[float, Optional[float]]:
    """Average prediction error and average label error, both in percent.

    The first is each fold's validation MAE divided by the oil's true value,
    averaged over oils; the second is the laboratory's experimental error
    divided by the true value, averaged the same way.  Experimental errors
    come from the records' ``exp_error`` field; when any oil lacks one, the
    label error is reported as unavailable (None).
    """
    by_id = {r.oil_id: r for r in records}
    exp_errors = {r.oil_id: r.exp_error for r in records if r.exp_error is not None}

    ratios = []
    skipped = 0
    for f in summary.per_fold:
        label = by_id[f.held_out_oil].value_of(summary.parameter)
        if label == 0:
            skipped += 1
            continue
        ratios.append(f.mae_val / abs(label))
    if skipped:
        warnings.warn(f"{skipped} oil(s) with zero label excluded from average error")
    if not ratios:
        raise ValueError("no nonzero labels to average over")
    average_error_pct = 100.0 * float(np.mean(ratios))

    label_error_pct: Optional[float] = None
    if all(f.held_out_oil in exp_errors for f in summary.per_fold):
        lr = []
        for f in summary.per_fold:
            label = by_id[f.held_out_oil].value_of(summary.parameter)
            if label == 0:
                continue
            lr.append(exp_errors[f.held_out_oil] / abs(label))
        if lr:
            label_error_pct = 100.0 * float(np.mean(lr))
    return average_error_pct, label_error_pct


def loocv(
    dataset: Dataset,
    parameter: ParameterId,
    hp: HyperParams,
    seed: int,
    *,
    val_every: int = 10,
    jobs: int = 1,
) -> CvSummary:
    """Full protocol: both checkpoint runs, selection, error percentages."""
    run_val, run_train = loocv_checkpoint_runs(
        dataset, parameter, hp, seed, val_every=val_every, jobs=jobs)
    chosen = select_checkpoint(run_val, run_train)
    avg_pct, label_pct = error_percentages(chosen, dataset.records)
    return replace(chosen, average_error_pct=avg_pct, label_error_pct=label_pct)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def summary_to_dict(summary: CvSummary) -> dict:
    return {
        "parameter": summary.parameter.value,
        "n_oil": summary.n_oil,
        "checkpoint": summary.checkpoint,
        "mean_mae_train": summary.mean_mae_train,
        "sd_mae_train": summary.sd_mae_train,
        "mean_mae_val": summary.mean_mae_val,
        "sd_mae_val": summary.sd_mae_val,
        "var_mae_val": summary.var_mae_val,
        "average_error_pct": summary.average_error_pct,
        "label_error_pct": summary.label_error_pct,
        "comparability_ratio": summary.comparability_ratio,
        "leakage_ratio": summary.leakage_ratio(),
        "folds": [
            {
                "held_out_oil": f.held_out_oil,
                "true_value": f.true_value,
                "mae_train": f.mae_train,
                "mae_val": f.mae_val,
                "chosen_checkpoint": f.chosen_checkpoint,
                "predictions": list(f.predictions),
            }
            for f in summary.per_fold
        ],
    }


def summary_to_json(summary: CvSummary, **extra) -> str:
    """JSON text of the summary; ``extra`` adds top-level keys."""
    return json.dumps({**summary_to_dict(summary), **extra},
                      sort_keys=True, indent=2) + "\n"


def save_summary(summary: CvSummary, path: str | Path, **extra) -> None:
    Path(path).write_text(summary_to_json(summary, **extra), encoding="utf-8")


def save_fold_csv(summary: CvSummary, path: str | Path) -> None:
    """One row per fold: the inputs the statistical comparison consumes."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("parameter,held_out_oil,true_value,mae_train,mae_val,chosen_checkpoint\n")
        for f in summary.per_fold:
            fh.write(f"{summary.parameter.value},{f.held_out_oil},{f.true_value!r},"
                     f"{f.mae_train!r},{f.mae_val!r},{f.chosen_checkpoint}\n")


def save_scatter_csv(summary: CvSummary, records: Sequence[OilRecord],
                     path: str | Path) -> None:
    """Predicted-vs-true pairs, one row per held-out spectrum."""
    errs = {r.oil_id: r.exp_error for r in records}
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("parameter,oil_id,repetition,true_value,predicted,exp_error\n")
        for f in summary.per_fold:
            band = errs.get(f.held_out_oil)
            btxt = "" if band is None else repr(float(band))
            for rep, p in enumerate(f.predictions, start=1):
                fh.write(f"{summary.parameter.value},{f.held_out_oil},{rep},"
                         f"{f.true_value!r},{p!r},{btxt}\n")
