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
        "6482af552a93c286cedda173d99e252509ff9e97a11f95d7ca4139df83fdb278",
    ),
    "paper-sec4-noisy-saturated": (
        sec4_noisy_saturated,
        "22f3890f29c994b95ea92f2c38ff9d87091a96540fc32ef05df0182f2d9d4986",
    ),
    "paper-sec4-derived": (
        sec4_derived,
        "07ffc5a3b67c57020e1f3fbcc3e4300cc1d7d2932e1bbcb9bff769c1c9f00a74",
    ),
    "paper-sec4-nominal": (
        lambda: builtin_scenario("paper-sec4-nominal"),
        "3054454a50262f4868bba451392a0ee078aa321effdd2c93a15242e657c62fd1",
    ),
    "ultralocal-order2-simpson": (
        lambda: ultralocal_scenario(4.0, estimator_T=0.25, **ULTRALOCAL_ORDER2),
        "7e49d39148580795af0af66d346c5004dfa7e6e335f174b6e3dce4c870c8f307",
    ),
    "ultralocal-order1": (
        lambda: ultralocal_scenario(2.0, order=1, drift=-0.3, estimator_T=0.07),
        "aca5622cd77d6d4417a27468d950ebe31269a5d246eefc0c19fc5056f5c75120",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_csv_matches_golden_digest(name, tmp_path):
    make, digest = GOLDEN[name]
    path = export_csv(run_scenario(make()), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
