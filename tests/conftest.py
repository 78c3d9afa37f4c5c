import numpy as np
import pytest

from sinet import LogPriceSeries, ProbabilitySeries


@pytest.fixture
def make_series():
    """Build a LogPriceSeries from raw log prices on consecutive dates."""

    def _make(log_prices, asset_id="asset", start="2006-01-02"):
        log_prices = np.asarray(log_prices, dtype=float)
        ts = np.datetime64(start, "D") + np.arange(len(log_prices))
        return LogPriceSeries(asset_id, ts, log_prices)

    return _make


@pytest.fixture
def make_probs():
    """Build a ProbabilitySeries on consecutive dates."""

    def _make(values, start="2006-01-02"):
        values = np.asarray(values, dtype=float)
        ts = np.datetime64(start, "D") + np.arange(len(values))
        return ProbabilitySeries(ts, values)

    return _make
