"""Golden digests: the exported CSV of fixed runs, pinned byte for byte.

A refactor or speed-up of the loop must leave these logs bit-identical (the
determinism contract in the README).  A change that alters the numbers on
purpose updates the digest here and says why.
"""

import dataclasses
import hashlib

import pytest

from heol.scenarios import Timing, builtin_scenario, export_csv, run_scenario

from conftest import ultralocal_scenario

ULTRALOCAL_ORDER2 = dict(k_d=4.0, order=2, drift=0.5, noise_std=1e-3, noise_seed=3)


def sec4_noisy_saturated():
    """paper-sec4 cut to 30 s, with noise on both outputs and channel 1 clamped 1,764 times."""
    base = builtin_scenario("paper-sec4")
    return dataclasses.replace(
        base,
        timing=Timing(duration=30.0, h=0.01),
        channels=(dataclasses.replace(base.channels[0], saturation=(-0.9, 0.0)), base.channels[1]),
        noise_std=1e-5,
        noise_seed=7,
    )


def sec4_derived():
    """paper-sec4 with both channel gains derived from the benchmark relations."""
    base = builtin_scenario("paper-sec4")
    return dataclasses.replace(
        base, channels=tuple(dataclasses.replace(c, alpha_source="derived") for c in base.channels)
    )


GOLDEN = {
    "paper-sec4": (
        lambda: builtin_scenario("paper-sec4"),
        "fb3f57cd54e051cdfe22b6680b57b30525f33caa5f8d12433410f7e03b6c3cf3",
    ),
    "paper-sec4-noisy-saturated": (
        sec4_noisy_saturated,
        "7245d8307294a4169a4062ee8b984295932a2faf4c24be8f4de36bf596a2fa5e",
    ),
    "paper-sec4-derived": (
        sec4_derived,
        "3bd4d0616def969f13c2ec428a661141d72f000f89354e2066d653988607ff5a",
    ),
    "paper-sec4-nominal": (
        lambda: builtin_scenario("paper-sec4-nominal"),
        "3054454a50262f4868bba451392a0ee078aa321effdd2c93a15242e657c62fd1",
    ),
    "ultralocal-order2-simpson": (
        lambda: ultralocal_scenario(4.0, estimator_T=0.25, **ULTRALOCAL_ORDER2),
        "7192a682c12ef56fa55c6bec91f26c47897b1031decee328c9dc3c7d61f34022",
    ),
    "ultralocal-order1": (
        lambda: ultralocal_scenario(2.0, order=1, drift=-0.3, estimator_T=0.07),
        "0421c5d002acd8b8adf7c8952e349ce96c02877f39ee7189e2e39864c55fe91f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_csv_matches_golden_digest(name, tmp_path):
    make, digest = GOLDEN[name]
    path = export_csv(run_scenario(make()), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
