"""Metrics, leave-one-oil-out cross-validation and aggregate reporting.

One fold removes all repetitions of a single oil for validation and trains
on everything else.  During training two parameter snapshots are kept: the
one with the lowest validation loss and the one with the lowest training
loss.  Each snapshot's folds make a candidate run, a ``CvSummary`` whose
statistics derive from its folds; the run whose mean train/validation MAE
agree best (smallest relative absolute difference) is selected.  That guards
against the classic leave-one-out failure mode where a network scores well
on the held-out oil by memorizing label structure while train and
validation errors drift apart.

A run's error percentage, ``CvSummary.average_error_pct``, is each fold's
validation MAE over the held-out oil's label, averaged over the oils whose
label is nonzero.  No input carries a laboratory uncertainty per parameter,
so no label error is reported beside it.

``summary.json`` is the run that ``report`` and ``compare`` read back through
``summary_from_dict``; ``folds.csv`` and ``scatter.csv`` are exports, and
``report`` writes ``scatter_all.csv`` from the summaries it read.  The
exports go through ``data.write_csv_text``, so an oil id is quoted as
Python's ``csv`` quotes it and every line ends in ``\\n``.

Validation runs every ``nn.VAL_EVERY`` epochs and on the last one.  That
cadence decides which snapshot a run selects, so it is a constant rather
than an argument that a manifest would have to record.

The best-training-loss snapshot is taken after the epoch's updates, while
the loss it is ranked by is the sample-weighted mean of the epoch's batch
losses, each measured before its own update.  The snapshot is kept that
way on purpose: scoring the parameters after the last update would cost a
full extra forward pass over the training rows every epoch, and the
checkpoint's train MAE is measured afresh on those very parameters anyway.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, ParameterId, normalize, write_csv_text
from .nn import (
    DivergenceError,
    HyperParams,
    ShapeError,
    build_network,
    forward,
    train,
)
from .seeding import derive_rng

CHECKPOINT_KINDS = ("best_val_loss", "best_train_loss")

#: ``CvSummary.leakage_ratio`` above which ``loocv`` and ``report`` warn of
#: possible leave-one-out leakage.
LEAKAGE_LIMIT = 3.0


@dataclass(frozen=True)
class FoldResult:
    held_out_oil: str
    true_value: float
    mae_train: float
    mae_val: float
    predictions: tuple[float, ...]

    def __post_init__(self):
        if not (np.isfinite([self.mae_train, self.mae_val]).all()
                and np.isfinite(self.predictions).all()):
            raise DivergenceError(f"fold {self.held_out_oil}: non-finite MAE or predictions")
        if not np.isfinite(self.true_value):
            raise ValueError(f"fold {self.held_out_oil}: non-finite true value")
        if self.mae_train < 0 or self.mae_val < 0:
            raise ValueError("MAE cannot be negative")


@dataclass(frozen=True)
class CvSummary:
    """A LOOCV run: the snapshot kind all its folds were scored at, and the
    folds, from which every statistic derives."""
    parameter: ParameterId
    checkpoint: str
    per_fold: tuple[FoldResult, ...]

    def __post_init__(self):
        if self.checkpoint not in CHECKPOINT_KINDS:
            raise ValueError(f"unknown checkpoint kind {self.checkpoint!r}")

    @property
    def n_oil(self) -> int:
        return len(self.per_fold)

    @property
    def mean_mae_train(self) -> float:
        return float(np.array([f.mae_train for f in self.per_fold]).mean())

    @property
    def sd_mae_train(self) -> float:
        return float(np.array([f.mae_train for f in self.per_fold]).std(ddof=1))

    @property
    def mean_mae_val(self) -> float:
        return float(np.array([f.mae_val for f in self.per_fold]).mean())

    @property
    def sd_mae_val(self) -> float:
        return float(np.array([f.mae_val for f in self.per_fold]).std(ddof=1))

    @property
    def var_mae_val(self) -> float:
        return self.sd_mae_val ** 2

    @property
    def comparability_ratio(self) -> float:
        """Relative absolute difference between mean train and validation MAE."""
        if self.mean_mae_train == 0.0:
            return 0.0 if self.mean_mae_val == 0.0 else float("inf")
        return abs(self.mean_mae_train - self.mean_mae_val) / self.mean_mae_train

    @property
    def average_error_pct(self) -> Optional[float]:
        """Mean of each fold's validation MAE over the oil's true value, in
        percent, over the oils with a nonzero label; None when there are none."""
        ratios = [f.mae_val / abs(f.true_value) for f in self.per_fold if f.true_value != 0]
        return 100.0 * float(np.mean(ratios)) if ratios else None

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
        raise ShapeError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ShapeError("MAE of an empty batch")
    return float(np.mean(np.abs(pred - target)))


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def design_matrices(dataset: Dataset, parameter: ParameterId):
    """Normalized (N, P) matrix, per-spectrum targets and oil ids.

    Each spectrum is normalized straight into its row of the matrix, so no
    second copy of the spectra is built on the way.
    """
    x = np.empty((len(dataset.spectra), len(dataset.grid)))
    targets, ids = [], []
    for row, s in zip(x, dataset.spectra):
        row[:] = normalize(s).intensities
        v = dataset.record_for(s.oil_id).value_of(parameter)
        if v is None:
            raise ValueError(
                f"oil {s.oil_id} lacks {parameter.value}; filter_for_parameter first")
        targets.append(v)
        ids.append(s.oil_id)
    return x, np.array(targets), np.array(ids)


def _run_fold(hold, x_all, y_all, ids, hp, seed):
    """Train the fold that holds out oil ``hold`` and score both checkpoints.

    The fold trains on its training rows through their indices into
    ``x_all``, so no fold copies them: a LOOCV holds one copy of its
    normalized spectra, in the parent and in every worker.  Only the
    held-out oil's few rows are sliced out, for the validation loss.  Each
    distinct snapshot is scored in one pass over all of ``x_all``, whose
    predictions split into the training rows and the held-out ones.
    """
    va = ids == hold
    tr = np.flatnonzero(~va)
    y_va = y_all[va]
    rng = derive_rng(seed, "fold", hold)
    net = build_network(hp, x_all.shape[1], rng)

    # (loss, epoch, parameters) per checkpoint kind; epoch -1 is the untrained net
    snapshots = dict.fromkeys(CHECKPOINT_KINDS, (np.inf, -1, net.copy_parameters()))

    def keep_best(epoch, train_mse, val_mse, live):
        for kind, loss in (("best_val_loss", val_mse), ("best_train_loss", train_mse)):
            if loss is not None and loss < snapshots[kind][0]:
                snapshots[kind] = (loss, epoch, live.copy_parameters())

    try:
        train(net, x_all, y_all, hp, rng, rows=tr, validation=(x_all[va], y_va),
              callbacks=[keep_best])
    except DivergenceError as e:
        raise DivergenceError(f"fold {hold}: {e}") from e
    except Exception as e:  # annotate with the fold id; a fault here is never an input error
        raise RuntimeError(f"fold {hold}: {e}") from e

    # snapshots of the same epoch hold the same parameters: score them once
    scores = {}
    out = {}
    for kind in CHECKPOINT_KINDS:
        _, epoch, params = snapshots[kind]
        if epoch not in scores:
            net.set_parameters(params)
            with np.errstate(over="ignore", invalid="ignore"):  # FoldResult rejects non-finite
                scores[epoch] = forward(net, x_all)
        pred = scores[epoch]
        out[kind] = FoldResult(
            held_out_oil=hold,
            true_value=float(y_va[0]),
            mae_train=mae(pred[tr], y_all[tr]),
            mae_val=mae(pred[va], y_va),
            predictions=tuple(float(v) for v in pred[va]),
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


def loocv_checkpoint_runs(
    dataset: Dataset,
    parameter: ParameterId,
    hp: HyperParams,
    seed: int,
    *,
    jobs: int = 1,
) -> tuple[CvSummary, CvSummary]:
    """Run all folds; returns the (best-val, best-train) checkpoint runs.

    Folds are independent: each derives its own RNG stream from (seed,
    oil id), so results do not depend on execution order or on ``jobs``.
    The normalized spectra are built once, as one matrix, and every fold
    trains through row indices into it and scores it whole.  With ``jobs``
    > 1 each worker receives the full matrices once, when it starts, and
    each task carries only the held-out oil id.  The pool starts all its workers at
    once, so ``jobs`` is capped at the number of oils.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if dataset.n_oil < 3:
        raise ValueError("leave-one-out needs at least 3 oils")
    fold_args = (*design_matrices(dataset, parameter), hp, seed)
    oils = sorted({r.oil_id for r in dataset.records})
    jobs = min(jobs, len(oils))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=fold_args) as pool:
            results = dict(pool.map(_run_worker_fold, oils))
    else:
        results = dict(_run_fold(hold, *fold_args) for hold in oils)

    return tuple(CvSummary(parameter, kind, tuple(results[hold][kind] for hold in oils))
                 for kind in CHECKPOINT_KINDS)


def select_checkpoint(best_val_run: CvSummary, best_train_run: CvSummary) -> CvSummary:
    """Pick the run whose train and validation MAE are the most comparable.

    Ties go to the best-validation run.
    """
    a = {f.held_out_oil for f in best_val_run.per_fold}
    b = {f.held_out_oil for f in best_train_run.per_fold}
    if a != b:
        raise ValueError("checkpoint runs cover different oil sets")
    ra, rb = best_val_run.comparability_ratio, best_train_run.comparability_ratio
    return best_val_run if ra <= rb else best_train_run


def loocv(
    dataset: Dataset,
    parameter: ParameterId,
    hp: HyperParams,
    seed: int,
    *,
    jobs: int = 1,
) -> CvSummary:
    """Full protocol: both checkpoint runs, then selection."""
    return select_checkpoint(*loocv_checkpoint_runs(dataset, parameter, hp, seed, jobs=jobs))


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
        "comparability_ratio": summary.comparability_ratio,
        "leakage_ratio": summary.leakage_ratio(),
        "folds": [
            {
                "held_out_oil": f.held_out_oil,
                "true_value": f.true_value,
                "mae_train": f.mae_train,
                "mae_val": f.mae_val,
                "predictions": list(f.predictions),
            }
            for f in summary.per_fold
        ],
    }


def _fold_from_dict(f: dict) -> FoldResult:
    oil, preds = f["held_out_oil"], f["predictions"]
    if not isinstance(oil, str) or not isinstance(preds, list):
        raise TypeError(f"fold {oil!r}: held_out_oil must be a string, predictions a list")
    return FoldResult(oil, float(f["true_value"]), float(f["mae_train"]), float(f["mae_val"]),
                      tuple(float(v) for v in preds))


def summary_from_dict(d: dict) -> CvSummary:
    """Inverse of ``summary_to_dict``: the run rebuilt from its checkpoint kind and
    its folds, each checked by ``FoldResult``; the stored aggregates and any other
    key are ignored.  Bad input: ``ValueError``."""
    try:
        folds = tuple(_fold_from_dict(f) for f in d["folds"])
        summary = CvSummary(ParameterId(d["parameter"]), d["checkpoint"], folds)
    except (KeyError, TypeError, OverflowError, DivergenceError) as e:
        raise ValueError(f"malformed summary ({type(e).__name__}: {e})") from e
    if len({f.held_out_oil for f in folds}) < max(3, len(folds)):
        raise ValueError("summary folds must hold out at least 3 distinct oils")
    return summary


def summary_to_json(summary: CvSummary, **extra) -> str:
    """JSON text of the summary; ``extra`` adds top-level keys."""
    return json.dumps({**summary_to_dict(summary), **extra},
                      sort_keys=True, indent=2) + "\n"


def save_summary(summary: CvSummary, path: str | Path, **extra) -> None:
    Path(path).write_text(summary_to_json(summary, **extra), encoding="utf-8")


def save_fold_csv(summary: CvSummary, path: str | Path) -> None:
    """One row per fold, for spreadsheets; ``summary.json`` holds the same values."""
    Path(path).write_text(write_csv_text(
        ("parameter", "held_out_oil", "true_value", "mae_train", "mae_val", "chosen_checkpoint"),
        ((summary.parameter.value, f.held_out_oil, f.true_value, f.mae_train, f.mae_val,
          summary.checkpoint) for f in summary.per_fold)), encoding="utf-8")


def save_scatter_csv(summaries: Sequence[CvSummary], path: str | Path) -> None:
    """Predicted-vs-true pairs, one row per held-out spectrum of each run."""
    Path(path).write_text(write_csv_text(
        ("parameter", "oil_id", "repetition", "true_value", "predicted"),
        ((s.parameter.value, f.held_out_oil, rep, f.true_value, p)
         for s in summaries for f in s.per_fold
         for rep, p in enumerate(f.predictions, start=1))), encoding="utf-8")
