"""Deterministic synthetic regression datasets bundled with the package.

Real wine-quality / housing-price tables cannot be fetched in an offline
build, so the benchmark datasets are synthesized once with fixed seeds.
Each one mimics the structure that makes raw tabular data workable for
intercept-free linear models:

- one "anchor" column with large magnitude and small spread (think of a
  density or tax-rate column): models recover the label mean through it
  at almost no coefficient-norm cost;
- signal columns on wildly different scales, driven by one latent factor
  with per-column signal-to-noise falling off geometrically, plus a
  nuisance factor that only induces cross-column correlation;
- labels that are an exact affine rescaling of signal plus noise, pinning
  the population label mean/std to the reference values used in tests,
  with the signal fraction calibrated so a linear fit on the raw columns
  reaches the intended R².

This command regenerates the CSV files verbatim into <outdir>:

    python -c "import sys; from advreg.synthetic import main; main(sys.argv[1:])" <outdir>

(`python -m advreg.synthetic <outdir>` writes the same files, but warns:
the `advreg` package imports this module before `-m` runs it again as
`__main__`.)
"""

import sys
from pathlib import Path

import numpy as np

from .data import Dataset
from .baselines import fit_ols
from .serialize import write_csv

# label moments match the public redwine / boston tables; r2 sets the
# fraction of label variance a linear model can explain (mirrors the
# clean-fit quality seen on the real data)
WINE_LIKE = dict(m=1599, d=11, mu=5.64, sigma=0.81, r2=0.36, seed=7,
                 anchor_level=42.0, anchor_spread=1.6,
                 label="quality", name="wine_like")
HOUSING_LIKE = dict(m=506, d=13, mu=22.53, sigma=9.20, r2=0.73, seed=13,
                    anchor_level=380.0, anchor_spread=15.0,
                    label="value", name="housing_like")
BUNDLED = {spec["name"]: spec for spec in (WINE_LIKE, HOUSING_LIKE)}


def _unit(v):
    v = v - v.mean()
    return v / np.sqrt(np.mean(v**2))


def make_synthetic(m, d, mu, sigma, r2, seed, label="label", name=None,
                   anchor_level=100.0, anchor_spread=5.0):
    """Build one synthetic Dataset with exact population label moments."""
    rng = np.random.default_rng(seed)
    k = d - 1  # one column is the anchor, the rest carry signal
    g = rng.standard_normal(m)   # latent factor behind the labels
    h = rng.standard_normal(m)   # nuisance factor: correlation, no signal

    loads = np.sqrt(np.geomspace(2.2, 0.25, k))
    nuisance = rng.uniform(0.2, 0.7, size=k)
    noise = rng.standard_normal((m, k))
    raw = loads[None, :] * g[:, None] + nuisance[None, :] * h[:, None] + noise
    scales = 10.0 ** rng.uniform(-1.0, 1.3, size=k)
    offsets = scales * rng.uniform(0.5, 6.0, size=k)
    signal_cols = offsets[None, :] + scales[None, :] * raw

    anchor = anchor_level + anchor_spread * rng.standard_normal(m)
    X = np.insert(signal_cols, d // 2, anchor, axis=1)

    # how much of g an intercept-free linear fit on X can recover
    theta = fit_ols(X, g)
    rho2 = 1.0 - np.mean((g - X @ theta) ** 2) / np.mean((g - g.mean()) ** 2)
    r2_latent = min(r2 / rho2, 0.98)

    eps = rng.standard_normal(m)
    y_raw = np.sqrt(r2_latent) * _unit(g) + np.sqrt(1.0 - r2_latent) * _unit(eps)
    y = mu + sigma * _unit(y_raw)
    return Dataset(X=X, y=y, label_name=label)


def make_bundled(name):
    spec = dict(BUNDLED[name])
    spec.pop("name")
    return make_synthetic(**spec)


def bundled_path(name):
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled dataset {name!r}; have {sorted(BUNDLED)}")
    return Path(__file__).parent / "datasets" / f"{name}.csv"


def load_bundled(name):
    from .data import load_csv

    return load_csv(bundled_path(name), BUNDLED[name]["label"])


def dataset_to_csv(dataset, path, digits=9):
    table = np.column_stack([dataset.X, dataset.y])
    rows = [[format(v, f".{digits}g") for v in row] for row in table]
    write_csv(path, dataset.feature_names + [dataset.label_name], rows)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    outdir = Path(argv[0]) if argv else Path(__file__).parent / "datasets"
    outdir.mkdir(parents=True, exist_ok=True)
    for name in sorted(BUNDLED):
        ds = make_bundled(name)
        dataset_to_csv(ds, outdir / f"{name}.csv")
        print(f"wrote {outdir / (name + '.csv')} ({ds.m} rows, {ds.d} features)")


if __name__ == "__main__":
    main()
