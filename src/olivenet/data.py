"""Domain types and dataset handling for fluorescence spectra of olive oil.

A dataset couples a shared wavelength grid, a set of measured (or synthetic)
emission spectra and the laboratory reference values of the five chemical
quality parameters.  All types are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

SUPPORTED_EXCITATIONS = (365, 395)

#: Tolerance on the mean/std invariants of a normalized spectrum.
NORMALIZED_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Array lengths do not agree."""


class DegenerateSpectrumError(ValueError):
    """Spectrum has zero variance and cannot be normalized."""


class LabelParseError(ValueError):
    """A labels CSV row is malformed; carries the 1-based file line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateOilError(ValueError):
    """Two label rows share the same oil id."""


class EmptyDatasetError(ValueError):
    """An operation produced or received a dataset with no oils."""


class Quality(Enum):
    """Regulatory quality grades, best to worst."""

    EVOO = "EVOO"
    VOO = "VOO"
    LOO = "LOO"


class ParameterId(Enum):
    """The five chemical quality parameters, in regulatory check order."""

    ACIDITY = "acidity"
    PEROXIDE = "peroxide"
    K270 = "k270"
    K232 = "k232"
    ETHYL_ESTERS = "ethyl_esters"


#: Check order used by the quality decision sequence and the CSV layout.
PARAMETER_ORDER = (
    ParameterId.ACIDITY,
    ParameterId.PEROXIDE,
    ParameterId.K270,
    ParameterId.K232,
    ParameterId.ETHYL_ESTERS,
)

LABELS_HEADER = ("oil_id", "acidity", "peroxide", "k270", "k232", "ethyl_esters", "quality")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WavelengthGrid:
    """Strictly increasing wavelength axis in nm, shared by all spectra."""

    values: np.ndarray

    def __post_init__(self):
        v = _readonly(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size < 2:
            raise ValueError("wavelength grid needs at least two pixels")
        if not np.all(np.diff(v) > 0):
            raise ValueError("wavelength grid must be strictly increasing")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, WavelengthGrid) and np.array_equal(self.values, other.values)


def default_grid(pixels: int = 1024, start_nm: float = 350.0, stop_nm: float = 850.0) -> WavelengthGrid:
    """Default spectrometer axis: 1024 pixels over 350-850 nm.

    The instrument's true pixel count and span are configuration; this span
    keeps the fluorescence region (525-750 nm) far from the array edges.
    """
    return WavelengthGrid(np.linspace(start_nm, stop_nm, pixels))


@dataclass(frozen=True)
class Spectrum:
    """One fluorescence measurement on a shared wavelength grid."""

    grid: WavelengthGrid
    intensities: np.ndarray
    excitation_nm: int
    oil_id: str
    repetition: int
    normalized: bool = False

    def __post_init__(self):
        x = _readonly(np.asarray(self.intensities, dtype=float))
        if x.ndim != 1 or x.size != len(self.grid):
            raise DimensionMismatchError(
                f"intensities length {x.size} != grid length {len(self.grid)}"
            )
        if self.excitation_nm not in SUPPORTED_EXCITATIONS:
            raise ValueError(f"excitation must be one of {SUPPORTED_EXCITATIONS}")
        if self.repetition < 1:
            raise ValueError("repetition is 1-based")
        if self.normalized:
            if abs(float(x.mean())) > NORMALIZED_TOL or abs(float(x.std()) - 1.0) > NORMALIZED_TOL:
                raise ValueError("spectrum flagged normalized but mean/std are off")
        object.__setattr__(self, "intensities", x)


@dataclass(frozen=True)
class OilRecord:
    """Laboratory reference values for one oil; absent values are None."""

    oil_id: str
    acidity: Optional[float]
    peroxide: Optional[float]
    k270: Optional[float]
    k232: Optional[float]
    ethyl_esters: Optional[float]
    quality: Quality
    exp_error: Optional[float] = None

    def __post_init__(self):
        for p in PARAMETER_ORDER:
            v = self.value_of(p)
            if v is not None and v < 0:
                raise ValueError(f"{self.oil_id}: {p.value} must be nonnegative")

    def value_of(self, parameter: ParameterId) -> Optional[float]:
        return getattr(self, parameter.value)

    def has(self, parameter: ParameterId) -> bool:
        return self.value_of(parameter) is not None


@dataclass(frozen=True)
class Dataset:
    """Spectra plus labels for a set of oils at a single excitation.

    Invariants: every spectrum's oil id has a label record, each oil carries
    exactly ``repetitions_per_oil`` spectra, all spectra share the grid and
    the excitation wavelength (merging excitations is deliberately not
    supported; it promotes overfitting without adding information).
    """

    grid: WavelengthGrid
    spectra: tuple[Spectrum, ...]
    records: tuple[OilRecord, ...]
    repetitions_per_oil: int = 20

    def __post_init__(self):
        object.__setattr__(self, "spectra", tuple(self.spectra))
        object.__setattr__(self, "records", tuple(self.records))
        ids = [r.oil_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise DuplicateOilError("duplicate oil_id among records")
        known = set(ids)
        counts: dict[str, int] = {i: 0 for i in ids}
        excitations = set()
        for s in self.spectra:
            if s.oil_id not in known:
                raise ValueError(f"spectrum for unknown oil {s.oil_id!r}")
            if s.grid != self.grid:
                raise ValueError("all spectra must share the dataset grid")
            counts[s.oil_id] += 1
            excitations.add(s.excitation_nm)
        if len(excitations) > 1:
            raise ValueError("dataset must hold a single excitation wavelength")
        bad = {i: c for i, c in counts.items() if c != self.repetitions_per_oil}
        if bad:
            raise ValueError(
                f"each oil needs exactly {self.repetitions_per_oil} spectra, got {bad}"
            )

    @property
    def n_oil(self) -> int:
        return len(self.records)

    @property
    def n_spectra(self) -> int:
        return len(self.spectra)

    @property
    def excitation_nm(self) -> int:
        return self.spectra[0].excitation_nm

    def record_for(self, oil_id: str) -> OilRecord:
        for r in self.records:
            if r.oil_id == oil_id:
                return r
        raise KeyError(oil_id)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def subtract_dark(raw: np.ndarray, dark: np.ndarray) -> np.ndarray:
    """Elementwise dark-frame subtraction; negatives from noise are kept."""
    raw = np.asarray(raw, dtype=float)
    dark = np.asarray(dark, dtype=float)
    if raw.shape != dark.shape:
        raise DimensionMismatchError(f"raw {raw.shape} vs dark {dark.shape}")
    return raw - dark


def normalize(spectrum: Spectrum) -> Spectrum:
    """Z-score a spectrum to mean 0 and population standard deviation 1.

    The transform is affine, (x - mean) / std, so pixel order is preserved
    and re-application is the identity up to rounding.
    """
    x = spectrum.intensities
    std = float(x.std())  # population form; exact for the two-point case
    if std == 0.0:
        raise DegenerateSpectrumError(f"constant spectrum for oil {spectrum.oil_id!r}")
    z = (x - float(x.mean())) / std
    return replace(spectrum, intensities=z, normalized=True)


def normalize_dataset(dataset: Dataset) -> Dataset:
    """Normalize every spectrum that is not already normalized."""
    spectra = tuple(s if s.normalized else normalize(s) for s in dataset.spectra)
    return replace(dataset, spectra=spectra)


def _parse_cell(cell: str, name: str, line: int) -> Optional[float]:
    cell = cell.strip()
    if cell in ("-", ""):
        return None
    try:
        return float(cell)
    except ValueError:
        raise LabelParseError(f"bad {name} value {cell!r}", line) from None


def load_labels(path: str | Path) -> list[OilRecord]:
    """Read an oil labels CSV.

    Layout: ``oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality`` with an
    optional trailing ``exp_error`` column; missing values are ``-`` or empty.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LabelParseError("empty file", 1) from None
        header = [h.strip() for h in header]
        has_err = header == list(LABELS_HEADER) + ["exp_error"]
        if not has_err and header != list(LABELS_HEADER):
            raise LabelParseError(f"unexpected header {header}", 1)
        want = len(LABELS_HEADER) + (1 if has_err else 0)

        records: list[OilRecord] = []
        seen: set[str] = set()
        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != want:
                raise LabelParseError(f"expected {want} fields, got {len(row)}", line)
            oil_id = row[0].strip()
            if not oil_id:
                raise LabelParseError("empty oil_id", line)
            if oil_id in seen:
                raise DuplicateOilError(f"duplicate oil_id {oil_id!r} at line {line}")
            seen.add(oil_id)
            vals = [_parse_cell(row[i], LABELS_HEADER[i], line) for i in range(1, 6)]
            qcell = row[6].strip()
            try:
                quality = Quality(qcell)
            except ValueError:
                raise LabelParseError(f"bad quality {qcell!r}", line) from None
            exp_error = _parse_cell(row[7], "exp_error", line) if has_err else None
            try:
                records.append(OilRecord(oil_id, *vals, quality=quality, exp_error=exp_error))
            except ValueError as e:
                raise LabelParseError(str(e), line) from None
    return records


def bundled_labels_path() -> Path:
    """Path of the label table shipped with the package (22 Spanish oils)."""
    return Path(resources.files("olivenet") / "_resources" / "olive_oils.csv")


def load_bundled_labels() -> list[OilRecord]:
    return load_labels(bundled_labels_path())


def filter_for_parameter(dataset: Dataset, parameter: ParameterId) -> Dataset:
    """Keep only the oils whose record has ``parameter``, with their spectra.

    Oils missing a reference value cannot contribute training targets for it.
    """
    keep = {r.oil_id for r in dataset.records if r.has(parameter)}
    if not keep:
        raise EmptyDatasetError(f"no oil has a value for {parameter.value}")
    return replace(
        dataset,
        records=tuple(r for r in dataset.records if r.oil_id in keep),
        spectra=tuple(s for s in dataset.spectra if s.oil_id in keep),
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    # shortest decimal string that round-trips the float64 exactly
    return repr(float(x))


def save_grid(grid: WavelengthGrid, path: str | Path) -> None:
    Path(path).write_text("".join(_fmt(v) + "\n" for v in grid.values), encoding="utf-8")


def load_grid(path: str | Path) -> WavelengthGrid:
    lines = Path(path).read_text(encoding="utf-8").split()
    return WavelengthGrid(np.array([float(t) for t in lines]))


def save_spectra(dataset: Dataset, path: str | Path) -> None:
    """Write spectra as CSV: ``oil_id,excitation_nm,repetition,i_0..i_{P-1}``."""
    p = len(dataset.grid)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["oil_id", "excitation_nm", "repetition"] + [f"i_{i}" for i in range(p)])
        for s in dataset.spectra:
            writer.writerow([s.oil_id, s.excitation_nm, s.repetition]
                            + [_fmt(v) for v in s.intensities])


def load_spectra(
    spectra_path: str | Path,
    grid_path: str | Path,
    records: Sequence[OilRecord],
    dark: Optional[np.ndarray] = None,
) -> Dataset:
    """Read a spectra CSV plus its companion grid file into a Dataset.

    When a dark frame is given it is subtracted from every spectrum before
    assembly (synthetic data is generated dark-free, so the default is None).
    """
    grid = load_grid(grid_path)
    p = len(grid)
    if dark is not None and len(dark) != p:
        raise DimensionMismatchError("dark frame length != grid length")
    spectra: list[Spectrum] = []
    reps: dict[str, int] = {}
    with Path(spectra_path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LabelParseError("empty spectra file", 1)
        if header[:3] != ["oil_id", "excitation_nm", "repetition"] or len(header) != 3 + p:
            raise LabelParseError("bad spectra header", 1)
        for line, row in enumerate(reader, start=2):
            if len(row) != 3 + p:
                raise LabelParseError(f"expected {3 + p} fields, got {len(row)}", line)
            inten = np.array([float(v) for v in row[3:]])
            if dark is not None:
                inten = subtract_dark(inten, dark)
            spectra.append(Spectrum(
                grid=grid,
                intensities=inten,
                excitation_nm=int(row[1]),
                oil_id=row[0],
                repetition=int(row[2]),
            ))
            reps[row[0]] = reps.get(row[0], 0) + 1
    if not spectra:
        raise EmptyDatasetError("spectra file holds no rows")
    r = max(reps.values())
    present = set(reps)
    return Dataset(
        grid=grid,
        spectra=tuple(spectra),
        records=tuple(rec for rec in records if rec.oil_id in present),
        repetitions_per_oil=r,
    )


def save_labels(records: Iterable[OilRecord], path: str | Path) -> None:
    recs = list(records)
    has_err = any(r.exp_error is not None for r in recs)
    header = list(LABELS_HEADER) + (["exp_error"] if has_err else [])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in recs:
            row = [r.oil_id]
            row += ["-" if r.value_of(p) is None else _fmt(r.value_of(p)) for p in PARAMETER_ORDER]
            row.append(r.quality.value)
            if has_err:
                row.append("-" if r.exp_error is None else _fmt(r.exp_error))
            writer.writerow(row)
