"""Data ingestion, model persistence, and plot-ready exports.

Input tables are CSV with a leading ISO-8601 ``date`` column and numeric
columns after it. Rows containing any missing or non-finite cell are dropped
and counted.
Model files are versioned JSON documents (``format_version: 1``) holding the
spec, the parameter arrays row-major, and provenance (data hash, fit
settings, seed, timestamps). All writes are atomic (temp file + rename), and
floats serialize via ``repr`` so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .exceptions import DataFormatError, ModelFileError
from .model import ModelSpec, MvarParameters, SeriesMatrix, _frozen
from .portfolio import MixtureNormal1D, scalar_mixture_moments
from .risk import mixture_pdf

FORMAT_VERSION = 1
DENSITY_GRID_POINTS = 512
_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


@dataclass(frozen=True)
class PriceTable:
    """Validated table of positive prices with strictly increasing dates."""

    dates: tuple[str, ...]
    names: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        prices = _frozen(self.prices)
        if prices.ndim != 2 or prices.shape != (len(self.dates), len(self.names)):
            raise DataFormatError(
                f"prices shape {prices.shape} does not match {len(self.dates)} dates "
                f"x {len(self.names)} names"
            )
        if not np.all(np.isfinite(prices)):
            raise DataFormatError("price table contains missing or non-finite cells")
        if np.any(prices <= 0.0):
            raise DataFormatError("prices must be strictly positive")
        _check_dates(self.dates)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "names", tuple(self.names))


def _check_dates(dates) -> None:
    parsed = []
    for d in dates:
        try:
            parsed.append(datetime.date.fromisoformat(str(d)))
        except ValueError as exc:
            raise DataFormatError(f"date {d!r} is not ISO-8601") from exc
    for a, b in zip(parsed, parsed[1:]):
        if b <= a:
            raise DataFormatError(f"dates must be strictly increasing, got {a} then {b}")


def returns_from_prices(table: PriceTable) -> SeriesMatrix:
    """Simple returns (P_t - P_{t-1}) / P_{t-1}; output has one row fewer than the table."""
    if table.prices.shape[0] < 2:
        raise DataFormatError("need at least 2 price rows to compute returns")
    p = table.prices
    return SeriesMatrix((p[1:] - p[:-1]) / p[:-1])


def read_csv_table(path) -> tuple[list[str], list[str], np.ndarray, int]:
    """Parse a date-indexed CSV; returns (dates, names, values, dropped_row_count).

    Rows with any missing cell are rejected and counted rather than imputed.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return _read_csv_stream(handle)


def _read_csv_stream(handle) -> tuple[list[str], list[str], np.ndarray, int]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty CSV file") from None
    if len(header) < 2:
        raise DataFormatError("CSV needs a date column plus at least one series column")
    if header[0].strip().lower() != "date":
        raise DataFormatError(f"first column must be named 'date', got {header[0]!r}")
    names = [h.strip() for h in header[1:]]
    dates: list[str] = []
    rows: list[list[float]] = []
    dropped = 0
    for line_no, row in enumerate(reader, start=2):
        if len(row) == len(header):
            try:
                # float() strips surrounding whitespace itself
                rows.append([float(c) for c in row[1:]])
                dates.append(row[0].strip())
                continue
            except ValueError as exc:
                error = exc
        if all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataFormatError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
        if any(c.strip().lower() in _MISSING_TOKENS for c in row[1:]):
            dropped += 1
            continue
        raise DataFormatError(f"line {line_no}: non-numeric cell ({error})") from error
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    # NaN and +/-inf parse as floats: those rows are dropped here, in one pass
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        dropped += int(np.count_nonzero(~finite))
        values = values[finite]
        dates = [date for date, keep in zip(dates, finite) if keep]
    if not dates:
        raise DataFormatError("CSV contains no complete data rows")
    _check_dates(dates)
    return dates, names, values, dropped


def load_series(path, input_kind: str = "returns"):
    """Load a CSV as a return series.

    ``input_kind='prices'`` converts through :func:`returns_from_prices`.
    Returns (series, names, dates, dropped_row_count); for price input the
    dates are those of the return observations (the later of each pair).
    """
    dates, names, values, dropped = read_csv_table(path)
    if input_kind == "returns":
        return SeriesMatrix(values), names, dates, dropped
    if input_kind == "prices":
        table = PriceTable(dates=tuple(dates), names=tuple(names), prices=values)
        return returns_from_prices(table), names, dates[1:], dropped
    raise ValueError(f"input_kind must be 'returns' or 'prices', got {input_kind!r}")


def atomic_write_text(path, text: str) -> None:
    """Write-temp-then-rename so readers never observe a partial file.

    The file gets the mode ``open(path, "w")`` would give a new file: 0o666
    less the process umask.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL: never reuse an existing file or follow a link planted at the name
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def timestamp_utc() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH so pinned runs are byte-identical."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else None
    if t is None:
        now = datetime.datetime.now(tz=datetime.timezone.utc)
    else:
        now = datetime.datetime.fromtimestamp(t, tz=datetime.timezone.utc)
    return now.replace(microsecond=0).isoformat()


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class ModelFile:
    """Persisted model: versioned parameters plus provenance."""

    params: MvarParameters
    provenance: dict
    format_version: int = FORMAT_VERSION


def _spec_to_dict(spec: ModelSpec) -> dict:
    return {"g": spec.g, "m": spec.m, "orders": list(spec.orders)}


def _spec_from_dict(d: dict) -> ModelSpec:
    return ModelSpec(g=int(d["g"]), m=int(d["m"]), orders=tuple(int(o) for o in d["orders"]))


def model_to_dict(mf: ModelFile) -> dict:
    p = mf.params
    return {
        "format_version": mf.format_version,
        "spec": _spec_to_dict(p.spec),
        "parameters": {
            "pi": p.pi.tolist(),
            "theta0": p.theta0.tolist(),
            "theta": p.theta.tolist(),
            "omega": p.omega.tolist(),
        },
        "provenance": mf.provenance,
    }


def model_from_dict(d: dict) -> ModelFile:
    try:
        version = int(d["format_version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"missing or invalid format_version: {exc}") from exc
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported model file version {version}; this build reads version {FORMAT_VERSION}"
        )
    try:
        spec = _spec_from_dict(d["spec"])
        raw = d["parameters"]
        params = MvarParameters(
            spec=spec,
            pi=np.asarray(raw["pi"], dtype=float),
            theta0=np.asarray(raw["theta0"], dtype=float),
            theta=np.asarray(raw["theta"], dtype=float),
            omega=np.asarray(raw["omega"], dtype=float),
        )
    except (KeyError, TypeError) as exc:
        raise ModelFileError(f"invalid model file schema: {exc}") from exc
    return ModelFile(params=params, provenance=dict(d.get("provenance", {})), format_version=version)


def format_json(payload: dict) -> str:
    """JSON text of every document the package writes: two-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_model(path, mf: ModelFile) -> None:
    atomic_write_text(path, format_json(model_to_dict(mf)))


def load_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(payload)


def synthetic_dates(n: int) -> list[str]:
    """Consecutive ISO dates from 2000-01-03 for simulated series (which have no calendar)."""
    base = datetime.date(2000, 1, 3)
    return [(base + datetime.timedelta(days=i)).isoformat() for i in range(n)]


def format_csv(header, rows) -> str:
    """CSV text of a header and rows of string cells, one line each, every line ending in a newline.

    The rows are joined directly: every cell the package writes is a date, a
    column name, an integer or a float ``repr``, and none of those contains a
    comma, quote or newline, so ``csv.writer`` would quote nothing. ``rows``
    may be a generator; each row is joined as it comes.
    """
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def format_series_csv(series: SeriesMatrix) -> str:
    """CSV text of a series under :func:`synthetic_dates`, one ``repr`` per value."""
    rows = zip(synthetic_dates(series.n), series.values.tolist())
    return format_csv(["date", *(f"y{i + 1}" for i in range(series.m))],
                      ([date, *map(repr, row)] for date, row in rows))


def write_series_csv(path, series: SeriesMatrix) -> None:
    atomic_write_text(path, format_series_csv(series))


def mixture1d_to_dict(mix: MixtureNormal1D) -> dict:
    return {
        "weights": mix.weights.tolist(),
        "means": mix.means.tolist(),
        "sds": mix.sds.tolist(),
        "horizon": mix.horizon,
        "origin_time": mix.origin_time,
    }


def mixture1d_from_dict(d: dict) -> MixtureNormal1D:
    try:
        return MixtureNormal1D(
            weights=np.asarray(d["weights"], dtype=float),
            means=np.asarray(d["means"], dtype=float),
            sds=np.asarray(d["sds"], dtype=float),
            horizon=int(d.get("horizon", 1)),
            origin_time=int(d.get("origin_time", -1)),
        )
    except KeyError as exc:
        raise DataFormatError(f"mixture JSON missing key {exc}") from exc


def density_grid(mix: MixtureNormal1D):
    """Plot-ready (x, density) arrays, :data:`DENSITY_GRID_POINTS` long, over mean +/- 6 sd."""
    mean, var = scalar_mixture_moments(mix)
    sd = float(np.sqrt(var))
    x = np.linspace(mean - 6.0 * sd, mean + 6.0 * sd, DENSITY_GRID_POINTS)
    return x, mixture_pdf(mix, x)


def format_density_csv(mix: MixtureNormal1D) -> str:
    x, dens = density_grid(mix)
    return format_csv(["x", "density"], zip(map(repr, x.tolist()), map(repr, dens.tolist())))
