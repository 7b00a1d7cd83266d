"""Finite-difference verification of every kernel and composite block."""

import ast
import inspect
import zlib

import numpy as np
import pytest

from gradcheck import check, kernel_cases, model_loss_cases, standard_battery, tiny_model, tiny_sequence
import penrec.model as pm
from penrec import autodiff as ad
from penrec.training import batch_losses

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


def kernel_op_names():
    """Op names autodiff.py gives `_make`, directly or through a helper that passes one of its parameters on."""
    tree = ast.parse(inspect.getsource(ad))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    ops = {c.args[2].value for c in calls if c.func.id == "_make" and isinstance(c.args[2], ast.Constant)}
    forwarded = {}  # helper name -> position of the parameter it passes to `_make` as the op
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            params = [a.arg for a in fn.args.args]
            for c in ast.walk(fn):
                if (isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_make"
                        and isinstance(c.args[2], ast.Name) and c.args[2].id in params):
                    forwarded[fn.name] = params.index(c.args[2].id)
    ops |= {c.args[forwarded[c.func.id]].value for c in calls if c.func.id in forwarded}
    return ops


def test_every_kernel_has_a_model_caller(monkeypatch):
    """A training step or inference reaches every op autodiff.py makes; test-only kernels live in tests/."""
    reached = set()
    make = ad._make

    def recording_make(data, parents, op, backward_fn):
        reached.add(op)
        return make(data, parents, op, backward_fn)

    monkeypatch.setattr(ad, "_make", recording_make)
    # the step runs its image stream on the worker thread, as a wide model's does, which marks it for its
    # own backward sweep
    monkeypatch.setattr(pm, "_STREAMS_BESIDE_D", 0)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    model = tiny_model(dtype=np.float32)
    rng = np.random.default_rng(0)
    batch = [tiny_sequence(rng), tiny_sequence(rng)]
    total, _ = batch_losses(model, batch, align_weight=2.0)  # one batched forward pass
    ad.backward(total)
    model.infer_ids(batch[0], max_len=3)
    unused = kernel_op_names() - reached
    assert not unused, f"no model caller reaches {sorted(unused)}"


def test_kernel_cases_reach_every_kernel():
    ops = kernel_op_names()
    assert {"add", "matmul", "conv2d", "bigru", "attention", "attention_gru"} <= ops
    reached = set()
    for _, loss_fn, _ in kernel_cases(np.random.default_rng(0)):
        stack = [loss_fn()]
        while stack:
            node = stack.pop()
            reached.add(node.op)
            stack.extend(node.parents)
    assert ops <= reached, f"no gradcheck case reaches {sorted(ops - reached)}"
