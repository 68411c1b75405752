"""Tour of the optical-data layer: loading, merging, interpolation, gap fill.

Run:  python demos/optical_data_tour.py
"""

from aucasimir import (OpticalDataset, fill_gap, interpolate_eps2,
                       load_dataset, merge_datasets)
from aucasimir.config import package_data_dir

# ---------------------------------------------------------------- loading
ds = load_dataset(package_data_dir() / "gold_synthetic.csv")
print(f"bundled dataset: {ds}")
print(f"first sample: omega={ds.omega[0]:.4e} rad/s, "
      f"eps''={ds.eps2[0]:.4e}, source {ds.source[0]!r}")

# interpolation is linear on a log-log scale and exact at the nodes
for omega in (2e14, 1e15, 3.2e15, 1e17):
    print(f"eps''({omega:.2e}) = {interpolate_eps2(ds, omega):.5g}")

# ----------------------------------------------------------------- merging
# two sources covering different ranges; where they overlap, the
# higher-precedence one wins and the other's samples are dropped
# (a dataset is three columns: omega, eps2 and one source tag per sample)
low = OpticalDataset([1e14, 3e14, 1e15], [300.0, 40.0, 8.0], "low-freq")
high = OpticalDataset([8e14, 2e15, 1e16], [12.0, 2.0, 0.2], "high-freq")
merged = merge_datasets(low, high, precedence="a")
print("\nmerged sources (low-freq wins overlaps):")
for omega, eps2, source in zip(merged.omega, merged.eps2, merged.source):
    print(f"  {omega:.2e}  {eps2:8.2f}  [{source}]")

# ---------------------------------------------------------------- gap fill
# a dataset with a hole between 6.3e14 and 3.2e15 rad/s, bridged by the
# log-log chord; the published sensitivity of the force to how this gap is
# filled is about +-1 pN, so the step is explicit, never automatic
gapped = OpticalDataset(
    [1e14, 3e14, 6.3e14, 3.2e15, 1e16], [300.0, 40.0, 8.0, 1.6, 0.2], "sparse")
filled = fill_gap(gapped, 6.3e14, 3.2e15, points_per_decade=10)
added = filled.source == "gapfill"
print(f"\ngap fill inserted {added.sum()} chord samples:")
for omega, eps2 in zip(filled.omega[added], filled.eps2[added]):
    print(f"  {omega:.3e}  {eps2:.4f}")
