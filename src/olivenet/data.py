"""Domain types and dataset handling for fluorescence spectra of olive oil.

A dataset couples a shared wavelength grid, a set of measured (or synthetic)
emission spectra and the laboratory reference values of the five chemical
quality parameters.  All types are immutable after construction and safe to
share between threads.

Spectra are stored raw and ``normalize`` z-scores them where model inputs
are built.  Loading applies no dark-frame correction: synthetic spectra are
dark-free, and measured ones belong in the CSV already corrected.

Intensities and label values must be finite: ``Spectrum`` and ``OilRecord``
reject a ``nan`` or ``inf``, and the loaders name the line it came from.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

SUPPORTED_EXCITATIONS = (365, 395)


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
        # np.diff of an infinite end is infinite, which the ordering check passes
        if not np.isfinite(v).all():
            raise ValueError("wavelength grid values must be finite")
        if not np.all(np.diff(v) > 0):
            raise ValueError("wavelength grid must be strictly increasing")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        # every spectrum of a dataset usually holds the dataset's own grid
        return other is self or (
            isinstance(other, WavelengthGrid) and np.array_equal(self.values, other.values))


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

    def __post_init__(self):
        x = _readonly(np.asarray(self.intensities, dtype=float))
        if x.ndim != 1 or x.size != len(self.grid):
            raise ValueError(
                f"intensities length {x.size} != grid length {len(self.grid)}"
            )
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite intensity for oil {self.oil_id!r}")
        if self.excitation_nm not in SUPPORTED_EXCITATIONS:
            raise ValueError(f"excitation must be one of {SUPPORTED_EXCITATIONS}")
        if self.repetition < 1:
            raise ValueError("repetition is 1-based")
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

    def __post_init__(self):
        for p in PARAMETER_ORDER:
            v = self.value_of(p)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{self.oil_id}: {p.value} must be finite")
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
            raise ValueError("duplicate oil_id among records")
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

def normalize(spectrum: Spectrum) -> Spectrum:
    """Z-score a spectrum to mean 0 and population standard deviation 1.

    The transform is affine, (x - mean) / std, so pixel order is preserved
    and re-application is the identity up to rounding.
    """
    x = spectrum.intensities
    std = float(x.std())  # population form; exact for the two-point case
    if std == 0.0:
        raise ValueError(f"constant spectrum for oil {spectrum.oil_id!r}")
    z = (x - float(x.mean())) / std
    return replace(spectrum, intensities=z)


def read_oil_table(path: str | Path, header: Optional[Sequence[str]] = None):
    """Yield ``(line, oil_id, values, cells)`` per record of a per-oil CSV table.

    It needs ``oil_id`` and the five parameter columns (``values``, in
    ``PARAMETER_ORDER``, None for ``-`` or empty) and, given ``header``,
    exactly that header.  A record needs the header's width, a new non-empty
    id without a carriage return and finite numbers.  Lines count records,
    the header being line 1.
    """
    names = ["oil_id"] + [p.value for p in PARAMETER_ORDER]
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = [h.strip() for h in next(reader, None) or []]
        if not found:
            raise ValueError("line 1: empty file")
        if header is not None and found != list(header):
            raise ValueError(f"line 1: unexpected header {found}")
        missing = [c for c in names if c not in found]
        if missing:
            raise ValueError(f"line 1: missing columns {missing}")
        id_col, *value_cols = (found.index(c) for c in names)
        seen: set[str] = set()
        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(found):
                raise ValueError(f"line {line}: expected {len(found)} fields, got {len(row)}")
            oil_id = row[id_col].strip()
            if not oil_id:
                raise ValueError(f"line {line}: empty oil_id")
            # csv.writer with "\n" line ends leaves such an id unquoted, so
            # the tables written from it would not read back
            if "\r" in oil_id:
                raise ValueError(f"line {line}: oil_id {oil_id!r} holds a carriage return")
            if oil_id in seen:
                raise ValueError(f"duplicate oil_id {oil_id!r} at line {line}")
            seen.add(oil_id)
            values: list[Optional[float]] = []
            for name, col in zip(names[1:], value_cols):
                cell = row[col].strip()
                try:
                    v = None if cell in ("-", "") else float(cell)
                except ValueError:
                    raise ValueError(f"line {line}: {name} {cell!r} is not a number") from None
                if v is not None and not np.isfinite(v):
                    raise ValueError(f"line {line}: {name} {cell!r} is not finite")
                values.append(v)
            yield line, oil_id, values, row


def write_csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of a table as ``csv.writer`` quotes it, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def load_labels(path: str | Path) -> list[OilRecord]:
    """Read an oil labels CSV, ``oil_id,acidity,peroxide,k270,k232,ethyl_esters,quality``;
    missing values are ``-`` or empty."""
    records: list[OilRecord] = []
    for line, oil_id, values, cells in read_oil_table(path, LABELS_HEADER):
        qcell = cells[6].strip()
        try:
            quality = Quality(qcell)
        except ValueError:
            raise ValueError(f"line {line}: bad quality {qcell!r}") from None
        try:
            records.append(OilRecord(oil_id, *values, quality=quality))
        except ValueError as e:
            raise ValueError(f"line {line}: {e}") from None
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
        raise ValueError(f"no oil has a value for {parameter.value}")
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
    try:
        return WavelengthGrid(np.array([float(t) for t in lines]))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_spectra(dataset: Dataset, path: str | Path) -> None:
    """Write spectra as CSV: ``oil_id,excitation_nm,repetition,i_0..i_{P-1}``.

    Rows are written one at a time.  The id fields go through ``csv`` so an
    oil id is quoted as ``csv.writer`` quotes it; the intensities, which never
    need quoting, are joined in one call, since ``csv.writer``'s handling of
    each of the P cells costs about a third of the write.
    """
    p = len(dataset.grid)
    ids = io.StringIO()
    id_writer = csv.writer(ids)
    eol = id_writer.dialect.lineterminator
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["oil_id", "excitation_nm", "repetition"]
                                + [f"i_{i}" for i in range(p)])
        for s in dataset.spectra:
            ids.seek(0)
            ids.truncate()
            id_writer.writerow([s.oil_id, s.excitation_nm, s.repetition])
            # tolist() gives Python floats, whose repr is _fmt's string
            fh.write(ids.getvalue()[:-len(eol)] + ","
                     + ",".join(map(repr, s.intensities.tolist())) + eol)


def load_spectra(
    spectra_path: str | Path,
    grid_path: str | Path,
    records: Sequence[OilRecord],
) -> Dataset:
    """Read a spectra CSV plus its companion grid file into a Dataset.

    The file is read one record at a time, never whole.
    """
    grid = load_grid(grid_path)
    p = len(grid)
    spectra: list[Spectrum] = []
    reps: dict[str, int] = {}
    with Path(spectra_path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("line 1: empty spectra file")
        if header[:3] != ["oil_id", "excitation_nm", "repetition"] or len(header) != 3 + p:
            raise ValueError("line 1: bad spectra header")
        for line, row in enumerate(reader, start=2):
            if len(row) != 3 + p:
                raise ValueError(f"line {line}: expected {3 + p} fields, got {len(row)}")
            try:
                spectra.append(Spectrum(
                    grid=grid,
                    intensities=np.fromiter(map(float, row[3:]), dtype=float, count=p),
                    excitation_nm=int(row[1]),
                    oil_id=row[0],
                    repetition=int(row[2]),
                ))
            except ValueError as e:
                raise ValueError(f"line {line}: {e}") from None
            reps[row[0]] = reps.get(row[0], 0) + 1
    if not spectra:
        raise ValueError("spectra file holds no rows")
    r = max(reps.values())
    present = set(reps)
    return Dataset(
        grid=grid,
        spectra=tuple(spectra),
        records=tuple(rec for rec in records if rec.oil_id in present),
        repetitions_per_oil=r,
    )


def save_labels(records: Iterable[OilRecord], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_HEADER)
        for r in records:
            row = [r.oil_id]
            row += ["-" if r.value_of(p) is None else _fmt(r.value_of(p)) for p in PARAMETER_ORDER]
            row.append(r.quality.value)
            writer.writerow(row)
