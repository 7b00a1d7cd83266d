"""Finite-difference verification of every kernel and composite block."""

import zlib

import numpy as np
import pytest

from penrec.gradcheck import check, model_loss_cases, standard_battery

CASES = standard_battery(seed=0)


@pytest.mark.parametrize("name,loss_fn,wrt", CASES, ids=[c[0] for c in CASES])
def test_gradient_matches_finite_differences(name, loss_fn, wrt):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    err = check(loss_fn, wrt, rng, probes=4, h=1e-5)
    assert err < 1e-5, f"{name}: max relative error {err:.3e}"


@pytest.mark.parametrize("seed", [7, 99, 123])
def test_model_losses_match_finite_differences_for_every_parameter(seed):
    rng = np.random.default_rng(seed)
    for name, loss_fn, wrt in model_loss_cases(rng, params_per_group=None):
        err = check(loss_fn, wrt, rng, probes=4, h=1e-5)
        assert err < 1e-5, f"{name}: max relative error {err:.3e}"
