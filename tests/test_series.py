import re

import numpy as np
import pytest

from sinet import LogPriceSeries, ProbabilitySeries

DATES = np.datetime64("2006-01-02", "D") + np.arange(3)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: LogPriceSeries("a", DATES.reshape(1, 3), [0.0, 0.1, 0.2]),
                 "timestamps must be one-dimensional", id="2-d-dates"),
    pytest.param(lambda: LogPriceSeries("a", DATES, [0.0, 0.1]),
                 "timestamps and log_prices must have equal length", id="price-length"),
    pytest.param(lambda: ProbabilitySeries(DATES, [0.5, 0.5]),
                 "timestamps and values must have equal length", id="probability-length"),
    pytest.param(lambda: LogPriceSeries("a", DATES[[0, 2, 1]], [0.0, 0.1, 0.2]),
                 "timestamps must be strictly increasing", id="dates-out-of-order"),
    pytest.param(lambda: LogPriceSeries("a", DATES[[0, 1, 1]], [0.0, 0.1, 0.2]),
                 "timestamps must be strictly increasing", id="repeated-date"),
    pytest.param(lambda: LogPriceSeries("a", DATES, [0.0, np.nan, 0.2]),
                 "log prices must be finite", id="nan-price"),
    pytest.param(lambda: LogPriceSeries("a", DATES, [0.0, 0.1, -np.inf]),
                 "log prices must be finite", id="infinite-price"),
])
def test_bad_series_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
