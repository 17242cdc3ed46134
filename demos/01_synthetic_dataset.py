"""Generate and inspect a synthetic fluorescence dataset.

The package bundles the reference table of 22 Spanish olive oils (five
chemical parameters plus the laboratory quality grade).  Because the
measured spectra behind those labels are not public, a configurable
generator synthesizes plausible spectra whose shape responds to the
chemical parameters.  This script builds a dataset, shows the bookkeeping
that the rest of the pipeline relies on, and prints a crude terminal plot
of two oils to make the label-to-shape coupling visible.

Run:  python demos/01_synthetic_dataset.py
"""

import numpy as np

from olivenet import (
    ParameterId,
    default_generator_config,
    default_grid,
    filter_for_parameter,
    generate_dataset,
    load_bundled_labels,
    normalize,
)

records = load_bundled_labels()
print(f"bundled label table: {len(records)} oils")
print(f"{'oil':>5} {'acidity':>8} {'peroxide':>9} {'K270':>6} {'K232':>6} "
      f"{'EE':>5} quality")
for r in records[:6]:
    print(f"{r.oil_id:>5} {r.acidity:>8} {str(r.peroxide):>9} {str(r.k270):>6} "
          f"{str(r.k232):>6} {str(r.ethyl_esters):>5} {r.quality.value}")
print("  ...")

# Oils measured by different laboratories carry different subsets of values,
# so the usable sample count depends on the parameter being regressed:
for p in ParameterId:
    n = sum(1 for r in records if r.has(p))
    print(f"oils with a {p.value} value: {n}")

config = default_generator_config(seed=7)
grid = default_grid()  # 1024 pixels over 350-850 nm
dataset = generate_dataset(records, excitation_nm=395, repetitions=20,
                           config=config, grid=grid)
print(f"\ngenerated {dataset.n_spectra} spectra "
      f"({dataset.n_oil} oils x {dataset.repetitions_per_oil} repetitions)")

# Filtering keeps only oils that carry the target parameter, with all their
# repetitions; this is what the cross-validation trains on.
k270_ds = filter_for_parameter(dataset, ParameterId.K270)
print(f"after filtering for K270: {k270_ds.n_oil} oils, {k270_ds.n_spectra} spectra")

# Every spectrum is z-scored (mean 0, population std 1) before training.
z = normalize(dataset.spectra[0]).intensities
print(f"first normalized spectrum: mean={z.mean():+.2e}  std={z.std():.12f}")

# Terminal sketch: a low-acidity EVOO vs the high-acidity LOO D51.  The
# default coupling lowers and red-shifts the 678 nm chlorophyll peak as
# acidity grows, so the two shapes separate clearly.
by_id = {s.oil_id: s for s in dataset.spectra if s.repetition == 1}
lam = grid.values
for oil in ("D81", "D51"):
    spec = by_id[oil].intensities
    acid = next(r.acidity for r in records if r.oil_id == oil)
    cells = np.array_split(np.arange(len(lam)), 72)
    profile = [spec[c].mean() for c in cells]
    top = max(profile)
    bar = "".join(" .:-=+*#%@"[min(9, int(9 * v / top))] for v in profile)
    print(f"{oil} (acidity {acid:4.2f}) |{bar}|")
peak = lam[np.argmax(by_id["D81"].intensities)]
print(f"strongest emission near {peak:.0f} nm (chlorophyll band)")
