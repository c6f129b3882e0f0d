"""The package's public surface ships exact solvers only.

The oracles the tests compare against live in `tests/oracles.py`: the
iterative solvers and the single-path lasso homotopy, so the package keeps
one homotopy. No public function of any `advreg` module takes an iteration cap, a
tolerance or a starting point.
"""

import importlib
import inspect
import pkgutil

import advreg

ITERATION_KNOBS = {"max_iters", "max_sweeps", "tol", "theta0"}
ORACLES = ("solve_equilibrium_pgd", "project_to_ball", "fit_lasso_cd", "_lasso_path")


def modules():
    yield advreg
    for info in pkgutil.iter_modules(advreg.__path__):
        yield importlib.import_module(f"advreg.{info.name}")


def public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_no_public_function_takes_an_iteration_knob():
    found = []
    for mod in modules():
        for name, fn in public_functions(mod):
            knobs = ITERATION_KNOBS & set(inspect.signature(fn).parameters)
            if knobs:
                found.append(f"{mod.__name__}.{name}: {sorted(knobs)}")
    assert not found, found


def test_iterative_oracles_are_not_in_the_package():
    for mod in modules():
        for name in ORACLES:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    assert not set(ORACLES) & set(advreg.__all__)
