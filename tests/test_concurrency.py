"""The training worker thread: the inline path's bits, errors in sequential order, no thread outside training.

Every wait on a step is bounded: a step runs on a helper thread that must
finish within STEP_TIMEOUT_S, so a deadlock fails the test instead of
hanging the suite.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import asum
import penrec.model as pm
from penrec import autodiff as ad
from penrec.config import AlignConfig, EncoderConfig
from penrec.data import build_vocab, normalize
from penrec.model import Recognizer
from penrec.synth import DEFAULT_ALPHABET, synth_generate
from penrec.training import batch_losses

STEP_TIMEOUT_S = 120
LINES = [normalize(s) for s in synth_generate(DEFAULT_ALPHABET, 8, np.random.default_rng(3), length_range=(2, 3))]
WORKER_SITES = {"image_losses", "_flush", "_adam_updates"}


class TrajectoryError(RuntimeError):
    pass


class ImageError(RuntimeError):
    pass


def bounded(fn, *args):
    """fn(*args) on a helper thread; fails the test if it has not returned within STEP_TIMEOUT_S."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as e:  # handed to the test thread below
            out["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(STEP_TIMEOUT_S)
    assert not t.is_alive(), f"{fn.__name__} did not finish within {STEP_TIMEOUT_S} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.fixture
def submissions(monkeypatch):
    """The names of the functions handed to `ad.submit`, in order."""
    names = []
    real = ad.submit

    def counting(fn, *args):
        names.append(fn.__name__)
        return real(fn, *args)

    monkeypatch.setattr(ad, "submit", counting)
    return names


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: n)


def every_site_on_the_worker(monkeypatch):
    """Two usable CPUs and every cut-off at 0, so a small model takes every worker path."""
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(pm, "_STREAMS_BESIDE_D", 0)
    monkeypatch.setattr(ad, "_WORKER_MACS", 0)
    monkeypatch.setattr(ad, "_ADAM_WORKER_ELEMENTS", 0)


def small_model(dtype=np.float32):
    return Recognizer(EncoderConfig(d=16, gru_layers=1), AlignConfig(layers=1, heads=2), build_vocab(LINES),
                      seed=5, dtype=dtype)


def train_step(model, adam, batch):
    """training.train's step; returns the loss components' and the gradients' bytes."""
    total, comps = batch_losses(model, batch, 0.5)
    ad.zero_grads(model.params.values())
    ad.backward(total)
    grads = {name: p.grad.tobytes() for name, p in model.params.items()}
    ad.clip_grads(model.params, 1.0)
    ad.adam_step(model.params, adam, 1e-3)
    return {k: v.data.tobytes() for k, v in comps.items()}, grads


def two_steps(dtype):
    """Bytes of every loss component and gradient of two steps, then the parameters and Adam's state."""
    model = small_model(dtype)
    adam = ad.AdamState(model.params)
    steps = [bounded(train_step, model, adam, LINES[lo:lo + 4]) for lo in (0, 4)]
    state = {name: (p.data.tobytes(), adam.m[name].tobytes(), adam.v[name].tobytes())
             for name, p in model.params.items()}
    return steps, state, adam.step


@pytest.mark.parametrize("switch_s", [None, 1e-6])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_steps_on_the_worker_are_bit_identical_to_inline_steps(monkeypatch, submissions, dtype, switch_s):
    set_cpus(monkeypatch, 1)
    inline = two_steps(dtype)
    assert submissions == []  # a d=16 model is below every cut-off
    every_site_on_the_worker(monkeypatch)
    submissions.clear()
    prev = sys.getswitchinterval()
    try:
        if switch_s is not None:  # the interpreter switches threads as often as it can
            sys.setswitchinterval(switch_s)
        worker = two_steps(dtype)
    finally:
        sys.setswitchinterval(prev)
    assert set(submissions) == WORKER_SITES
    assert submissions.count("image_losses") == 2  # one per step: the batch's whole image stream
    (inline_steps, inline_state, inline_t), (worker_steps, worker_state, worker_t) = inline, worker
    for (comps_a, grads_a), (comps_b, grads_b) in zip(inline_steps, worker_steps):
        assert comps_a == comps_b
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert grads_a[name] == grads_b[name], name
    assert inline_state == worker_state and inline_t == worker_t == 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_trajectory_stream_error_surfaces_first_once_the_image_stream_is_done(monkeypatch, cpus):
    every_site_on_the_worker(monkeypatch)
    set_cpus(monkeypatch, cpus)
    model = small_model()
    done = threading.Event()

    def slow_failing_image(batch, targets):
        time.sleep(0.2)
        done.set()
        raise ImageError("image stream")

    def failing_trajectory(batch):
        raise TrajectoryError("trajectory stream")

    monkeypatch.setattr(model, "image_losses", slow_failing_image)
    monkeypatch.setattr(model.traj_conv, "batch", failing_trajectory)
    with pytest.raises(TrajectoryError):
        bounded(model.losses, LINES[:1])
    # beside it, the image stream ran and had finished; one after the other, it never started
    assert done.is_set() == (cpus == 2)


def test_an_image_stream_error_surfaces_with_its_type_and_the_next_step_succeeds(monkeypatch, submissions):
    every_site_on_the_worker(monkeypatch)
    model = small_model()
    adam = ad.AdamState(model.params)

    def failing_cnn(imgs):
        raise ImageError("image stream")

    def failing_trajectory(batch):
        raise TrajectoryError("trajectory stream")

    model.img_cnn.join = failing_cnn
    with pytest.raises(ImageError):
        bounded(train_step, model, adam, LINES[:4])
    assert submissions == ["image_losses"]
    del model.img_cnn.join
    model.traj_conv.batch = failing_trajectory
    with pytest.raises(TrajectoryError):
        bounded(train_step, model, adam, LINES[:4])
    del model.traj_conv.batch
    # the failed steps left no trace: the next one is a fresh model's first step
    got = bounded(train_step, model, adam, LINES[:4])
    fresh = small_model()
    assert got == bounded(train_step, fresh, ad.AdamState(fresh.params), LINES[:4])
    assert all(model.params[n].data.tobytes() == p.data.tobytes() for n, p in fresh.params.items())
    assert set(submissions) == WORKER_SITES


def test_a_backward_fn_raising_mid_sweep_leaves_no_task_running(monkeypatch):
    every_site_on_the_worker(monkeypatch)
    finished = []
    real_flush = ad._flush

    def slow_flush(p, uses):
        time.sleep(0.2)
        real_flush(p, uses)
        finished.append(p)

    monkeypatch.setattr(ad, "_flush", slow_flush)
    rng = np.random.default_rng(0)
    x = ad.array(rng.normal(size=(5, 3)), requires_grad=True)
    w = ad.array(rng.normal(size=(3, 4)), requires_grad=True)

    def back(g):
        raise TrajectoryError("mid-sweep")

    # the sweep passes the matmul, w's only consumer, so w's products go to the worker, then fails
    failing = ad._make(x.data * 2.0, (x,), "failing", back)
    with pytest.raises(TrajectoryError):
        bounded(ad.backward, asum(ad.matmul(failing, w)))
    assert finished == [w]
    assert ad._DEFERRED is None
    np.testing.assert_array_equal(w.grad, (x.data * 2.0).T @ np.ones((5, 4), dtype=np.float32))


def test_a_non_finite_gradient_in_the_workers_half_leaves_every_tensor_untouched(monkeypatch):
    every_site_on_the_worker(monkeypatch)
    rng = np.random.default_rng(13)
    params = {name: ad.array(rng.normal(size=n), requires_grad=True) for name, n in (("big", 9), ("small", 3))}
    state = ad.AdamState(params)
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    params["small"].grad[-1] = np.nan
    with pytest.raises(ValueError, match="small"):
        bounded(ad.adam_step, params, state, 0.1)
    assert state.step == 0
    assert not any(np.any(state.m[n]) or np.any(state.v[n]) for n in params)


@pytest.mark.parametrize("glyphs", [(2, 4), (6, 10)])
def test_a_d64_step_submits_no_task(monkeypatch, submissions, glyphs):
    set_cpus(monkeypatch, 2)
    lines = [normalize(s) for s in synth_generate(DEFAULT_ALPHABET, 8, np.random.default_rng(7), length_range=glyphs)]
    model = Recognizer(EncoderConfig(d=64), AlignConfig(), build_vocab(lines), seed=1)
    bounded(train_step, model, ad.AdamState(model.params), lines)
    assert submissions == []


def test_on_one_cpu_every_site_runs_inline(monkeypatch):
    every_site_on_the_worker(monkeypatch)
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(ad, "_WORKER", None)
    threads = threading.active_count()
    model = small_model()
    bounded(train_step, model, ad.AdamState(model.params), LINES[:4])
    assert ad._WORKER is None
    assert threading.active_count() == threads


INFERENCE_SCRIPT = """
import sys, threading
threads = threading.active_count()
import numpy as np
import penrec
from penrec import autodiff as ad
assert threading.active_count() == threads, "import"
model = penrec.load_checkpoint(sys.argv[1])
assert threading.active_count() == threads, "load_checkpoint"
lines = penrec.synth_generate(penrec.synth.DEFAULT_ALPHABET, 2, np.random.default_rng(0))
model.infer_text(penrec.normalize(lines[0]))
assert threading.active_count() == threads, "infer_text"
penrec.evaluate(model, lines, max_decode_len=4)
assert threading.active_count() == threads, "evaluate"
assert ad._WORKER is None
"""


def test_import_load_and_inference_start_no_thread(tmp_path):
    # at d=320 training runs its streams side by side; inference must not
    from penrec.training import save_checkpoint
    ckpt = tmp_path / "wide.ckpt"
    save_checkpoint(Recognizer(EncoderConfig(d=320), AlignConfig(), build_vocab(LINES), seed=0), ckpt)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", INFERENCE_SCRIPT, str(ckpt)], env=env, timeout=STEP_TIMEOUT_S,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
