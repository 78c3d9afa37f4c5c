"""Time-indexed series containers.

Both containers freeze their arrays after validation, so instances can be
shared between threads without defensive copies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError


def _as_dates(timestamps) -> np.ndarray:
    ts = np.asarray(timestamps, dtype="datetime64[D]")
    if ts.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    return ts


def in_window(dates: np.ndarray, start=None, end=None) -> np.ndarray:
    """Mask of the dates in [start, end], inclusive; either end may be None."""
    mask = np.ones(len(dates), dtype=bool)
    if start is not None:
        mask &= dates >= np.datetime64(start, "D")
    if end is not None:
        mask &= dates <= np.datetime64(end, "D")
    return mask


@dataclass(frozen=True)
class LogPriceSeries:
    """Log prices of one asset on strictly increasing calendar dates."""

    asset_id: str
    timestamps: np.ndarray
    log_prices: np.ndarray

    def __post_init__(self):
        ts = _as_dates(self.timestamps)
        y = np.asarray(self.log_prices, dtype=float)
        if len(ts) != len(y):
            raise ValueError("timestamps and log_prices must have equal length")
        if len(y) < 2:
            raise InsufficientDataError("a log-price series needs at least 2 points")
        if not np.all(ts[1:] > ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(y)):
            raise ValueError("log prices must be finite")
        ts.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "log_prices", y)

    def __len__(self) -> int:
        return len(self.log_prices)

    def window(self, start=None, end=None) -> "LogPriceSeries":
        """Restrict to timestamps in [start, end] (inclusive, either side optional)."""
        mask = in_window(self.timestamps, start, end)
        if mask.sum() < 2:
            raise InsufficientDataError(
                f"window [{start}, {end}] keeps fewer than 2 points of {self.asset_id!r}"
            )
        return LogPriceSeries(self.asset_id, self.timestamps[mask], self.log_prices[mask])


@dataclass(frozen=True)
class ProbabilitySeries:
    """Per-date probabilities in [0, 1], aligned with a source price series."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = _as_dates(self.timestamps)
        v = np.asarray(self.values, dtype=float)
        if len(ts) != len(v):
            raise ValueError("timestamps and values must have equal length")
        if not ((v >= 0.0) & (v <= 1.0)).all():  # NaN fails both comparisons
            raise ValueError("probability values must lie in [0, 1]")
        ts.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)
