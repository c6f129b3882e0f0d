"""Fixtures shared across the test files."""

import time
from functools import partial
from types import SimpleNamespace

import pytest


def _recorder(calls, fn):
    """fn, also appending (args, result) of each call to calls."""
    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]
    return spy


@pytest.fixture(scope="session")
def acceptance_sweeps():
    """The 50-repeat acceptance sweeps on raw features, each run once a
    session: "wine_like" and "housing_like" for criterion 5, and "criterion
    6". Each has its grid, its wall time in seconds, and one (args, result)
    per block of each call that spies recorded as it ran: rows for
    `_from_spectra` (games, lam, V, b), cvs for `_cv_score` (cvs, blocks,
    thetas, grid) and spectra for `_spectrum` (G, b). The spies only record,
    so the sweeps run as they do without them."""
    import advreg.evaluate as evaluate
    from test_acceptance import CRITERION_5_ATTACKS, _criterion_5_sweep, _criterion_6_sweep

    sweeps = {name: partial(_criterion_5_sweep, name, 50) for name in CRITERION_5_ATTACKS}
    sweeps["criterion 6"] = partial(_criterion_6_sweep, 50)
    recorded = {}
    for name, sweep in sweeps.items():
        rec = recorded[name] = SimpleNamespace(rows=[], cvs=[], spectra=[])
        with pytest.MonkeyPatch.context() as mp:
            for attr, calls in (("_from_spectra", rec.rows), ("_cv_score", rec.cvs),
                                ("_spectrum", rec.spectra)):
                mp.setattr(evaluate, attr, _recorder(calls, getattr(evaluate, attr)))
            t0 = time.perf_counter()
            rec.grid = sweep()
            rec.seconds = time.perf_counter() - t0
    return recorded
