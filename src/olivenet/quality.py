"""Regulatory quality grading from the five chemical parameters.

The decision sequence checks acidity, peroxide value, K270, K232 and ethyl
esters in that order against per-grade upper limits: pass every EVOO limit
and the oil is extra virgin; otherwise pass every VOO limit and it is
virgin; otherwise it is lampante.  Organoleptic (panel) criteria are out of
scope, so verdicts are chemical-parameters-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .data import OilRecord, ParameterId, PARAMETER_ORDER, Quality
from . import kvconfig


#: How to treat a missing parameter that has a limit at the grade being
#: checked.  ``strict``: the grade cannot be awarded (an unmeasured
#: parameter cannot certify compliance).  ``cap_voo``: skip the check but
#: never award better than VOO.
MISSING_POLICIES = ("strict", "cap_voo")


@dataclass(frozen=True)
class ThresholdSet:
    """Upper limits per grade; ``None`` means no limit for that parameter."""

    evoo: dict[ParameterId, Optional[float]]
    voo: dict[ParameterId, Optional[float]]
    missing_policy: str = "strict"

    def __post_init__(self):
        if self.missing_policy not in MISSING_POLICIES:
            raise ValueError(f"missing_policy must be one of {MISSING_POLICIES}")
        for p in PARAMETER_ORDER:
            e, v = self.evoo.get(p), self.voo.get(p)
            if e is not None and e <= 0 or v is not None and v <= 0:
                raise ValueError(f"limits must be positive ({p.value})")
            if e is not None and v is not None and e > v:
                raise ValueError(f"EVOO limit above VOO limit for {p.value}")

    def limit(self, grade: Quality, parameter: ParameterId) -> Optional[float]:
        table = self.evoo if grade is Quality.EVOO else self.voo
        return table.get(parameter)


@dataclass(frozen=True)
class QualityVerdict:
    grade: Quality
    failing_parameters: tuple[tuple[ParameterId, float, float], ...]
    unevaluated: tuple[ParameterId, ...] = ()

    def __post_init__(self):
        # EVOO is by construction only reachable with an empty failing list
        if self.grade is Quality.EVOO and self.failing_parameters:
            raise ValueError("EVOO verdict cannot carry failures")


def _check_grade(values: dict[ParameterId, Optional[float]],
                 thresholds: ThresholdSet,
                 grade: Quality):
    """Return (failures, hit_missing) for one grade level."""
    failures = []
    hit_missing = False
    for p in PARAMETER_ORDER:
        limit = thresholds.limit(grade, p)
        if limit is None:
            continue
        v = values.get(p)
        if v is None:
            hit_missing = True
        elif not v <= limit:  # a NaN value fails too
            failures.append((p, v, limit))
    return failures, hit_missing


def classify(record: OilRecord | dict[ParameterId, Optional[float]],
             thresholds: ThresholdSet) -> QualityVerdict:
    """Grade an oil (laboratory record or predicted parameter set)."""
    if isinstance(record, OilRecord):
        values = {p: record.value_of(p) for p in PARAMETER_ORDER}
    else:
        values = {p: record.get(p) for p in PARAMETER_ORDER}
    if all(v is None for v in values.values()):
        raise ValueError("no parameter values to grade")
    if values[ParameterId.ACIDITY] is None:
        raise ValueError("acidity is required for grading")

    unevaluated = tuple(p for p in PARAMETER_ORDER if values[p] is None)
    strict = thresholds.missing_policy == "strict"

    evoo_fail, evoo_missing = _check_grade(values, thresholds, Quality.EVOO)
    evoo_blocked = evoo_missing  # either policy: missing data never certifies EVOO
    if not evoo_fail and not evoo_blocked:
        return QualityVerdict(Quality.EVOO, (), unevaluated)

    voo_fail, voo_missing = _check_grade(values, thresholds, Quality.VOO)
    voo_blocked = voo_missing and strict
    if not voo_fail and not voo_blocked:
        return QualityVerdict(Quality.VOO, tuple(evoo_fail), unevaluated)

    return QualityVerdict(Quality.LOO, tuple(voo_fail or evoo_fail), unevaluated)


# ---------------------------------------------------------------------------
# config file binding
# ---------------------------------------------------------------------------

def thresholds_from_entries(entries: dict[str, str]) -> ThresholdSet:
    kvconfig.check_keys(entries, optional=["missing_policy"] + [
        f"{grade}.{p.value}" for grade in ("evoo", "voo") for p in PARAMETER_ORDER])

    def table(prefix: str) -> dict[ParameterId, Optional[float]]:
        out: dict[ParameterId, Optional[float]] = {}
        for p in PARAMETER_ORDER:
            key = f"{prefix}.{p.value}"
            if key in entries:
                out[p] = float(entries[key])
        return out

    return ThresholdSet(
        evoo=table("evoo"),
        voo=table("voo"),
        missing_policy=entries.get("missing_policy", ThresholdSet.missing_policy),
    )


def load_thresholds(path: str | Path) -> ThresholdSet:
    return thresholds_from_entries(kvconfig.load_kv(path))


def default_thresholds() -> ThresholdSet:
    """Limits shipped with the package; see thresholds_default.cfg."""
    path = Path(resources.files("olivenet") / "_resources" / "thresholds_default.cfg")
    return load_thresholds(path)
