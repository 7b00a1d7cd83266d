"""The training worker thread: the inline path's bits, errors in sequential order, no thread outside training.

Every wait on a step is bounded: a step runs on a helper thread that must
finish within STEP_TIMEOUT_S, so a deadlock fails the test instead of
hanging the suite.
"""

import dataclasses
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
WORKER_SITES = {"image_losses", "_sweep_branch", "_adam_updates"}


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


@pytest.fixture
def handed(monkeypatch):
    """The leaves whose products the worker's sweep of a split graph handed over, in order."""
    leaves = []

    class Recording:
        def __init__(self, queue):
            self.queue = queue

        def put(self, item):
            leaves.append(item[0])
            self.queue.put(item)

    class RecordingLocal(threading.local):
        def __setattr__(self, name, value):
            if name == "branch" and value is not None:
                sole, queue = value
                value = sole, Recording(queue)
            super().__setattr__(name, value)

    monkeypatch.setattr(ad, "_LOCAL", RecordingLocal())
    return leaves


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: n)


def every_site_on_the_worker(monkeypatch):
    """Two usable CPUs and every cut-off at 0, so a small model takes every worker path."""
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(pm, "_STREAMS_BESIDE_D", 0)
    monkeypatch.setattr(ad, "_WORKER_MACS", 0)
    monkeypatch.setattr(ad, "_ADAM_WORKER_ELEMENTS", 0)


def small_model(dtype=np.float32, **align):
    return Recognizer(EncoderConfig(d=16, gru_layers=1), AlignConfig(layers=1, heads=2, **align),
                      build_vocab(LINES), seed=5, dtype=dtype)


def train_step(model, adam, batch):
    """training.train's step; returns the loss components' and the gradients' bytes."""
    total, comps = batch_losses(model, batch, 0.5)
    ad.zero_grads(model.params.values())
    ad.backward(total)
    grads = {name: p.grad.tobytes() for name, p in model.params.items()}
    ad.clip_grads(model.params, 1.0)
    ad.adam_step(model.params, adam, 1e-3)
    return {k: v.data.tobytes() for k, v in comps.items()}, grads


def two_steps(dtype, **align):
    """Bytes of every loss component and gradient of two steps, then the parameters and Adam's state, and the model."""
    model = small_model(dtype, **align)
    adam = ad.AdamState(model.params)
    steps = [bounded(train_step, model, adam, LINES[lo:lo + 4]) for lo in (0, 4)]
    state = {name: (p.data.tobytes(), adam.m[name].tobytes(), adam.v[name].tobytes())
             for name, p in model.params.items()}
    return steps, state, adam.step, model


def assert_same_steps(inline, worker):
    """Two `two_steps` results hold the same bytes."""
    (inline_steps, inline_state, inline_t, _), (worker_steps, worker_state, worker_t, _) = inline, worker
    for (comps_a, grads_a), (comps_b, grads_b) in zip(inline_steps, worker_steps):
        assert comps_a == comps_b
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert grads_a[name] == grads_b[name], name
    assert inline_state == worker_state and inline_t == worker_t == 2


def image_weights(model):
    """The names of the image-stream weights that get a product: every one of two or more axes but the embedding."""
    return sorted(n for n, p in model.params.items()
                  if n.startswith(pm.IMAGE_PREFIXES) and p.data.ndim >= 2 and not n.endswith(".embed"))


def handed_names(model, leaves):
    """The sorted names of model's parameters among the handed-over `leaves`, with repeats."""
    names = {id(p): n for n, p in model.params.items()}
    return sorted(names[id(p)] for p in leaves)


def branch_gradients(dtype, mark=ad.branch):
    """The bytes of every leaf's gradient of three losses, each swept by its own `backward`.

    One mark: x1 @ w1 plus `mark` of a second term, in which the reverse
    sweep reaches w2 by two matmuls, then by one mul, and w3 by one matmul
    only. Two marks: the consumer of the second mark runs later in the sweep
    than the first's, so the branch's sweep waits for it. Read inside: a node
    outside the marked term reads one inside it, so the graph does not split.
    """
    rng = np.random.default_rng(17)

    def leaves(*shapes):
        return [ad.array(rng.normal(size=s), requires_grad=True, dtype=dtype) for s in shapes]

    def proj(y):
        return asum(ad.mul(y, rng.normal(size=y.shape)))

    x1, w1, w2, x2, x3, x4, w3 = one = leaves((5, 4), (4, 3), (4, 3), (4, 4), (5, 4), (3, 4), (4, 2))
    second = ad.add(ad.add(proj(ad.matmul(x2, w2)), ad.add(proj(ad.matmul(x3, w2)), proj(w2))),
                    proj(ad.matmul(x4, w3)))
    bounded(ad.backward, ad.add(proj(ad.matmul(x1, w1)), mark(second)))
    xa, wa, xb, wb, xc, wc = two = leaves((5, 4), (4, 3), (5, 4), (4, 3), (5, 4), (4, 3))
    later = ad.add(ad.matmul(xc, wc), mark(ad.matmul(xb, wb)))
    bounded(ad.backward, ad.add(mark(proj(ad.matmul(xa, wa))), proj(later)))
    xa, wa, xc, wc = inside = leaves((5, 4), (4, 3), (5, 4), (4, 3))
    h = ad.matmul(xa, wa)
    bounded(ad.backward, ad.add(mark(proj(h)), proj(ad.add(ad.matmul(xc, wc), h))))
    return [p.grad.tobytes() for p in one + two + inside]


@pytest.mark.parametrize("switch_s", [None, 1e-6])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_steps_on_the_worker_are_bit_identical_to_inline_steps(monkeypatch, submissions, handed, dtype, switch_s):
    set_cpus(monkeypatch, 1)
    inline = two_steps(dtype), branch_gradients(dtype, mark=lambda y: y)
    assert submissions == [] and handed == []  # a d=16 model is below every cut-off
    every_site_on_the_worker(monkeypatch)
    submissions.clear()
    prev = sys.getswitchinterval()
    try:
        if switch_s is not None:  # the interpreter switches threads as often as it can
            sys.setswitchinterval(switch_s)
        steps = two_steps(dtype)
        steps_submitted, steps_handed = len(submissions), len(handed)
        worker = steps, branch_gradients(dtype)
    finally:
        sys.setswitchinterval(prev)
    assert set(submissions) == WORKER_SITES
    # one per step each: the batch's whole image stream, forward, then its backward sweep
    steps_sites = submissions[:steps_submitted]
    assert steps_sites.count("image_losses") == steps_sites.count("_sweep_branch") == 2
    # the sweeps of the graphs with one mark and with two; the graph read inside its mark is swept inline
    assert submissions[steps_submitted:] == ["_sweep_branch", "_sweep_branch"]
    assert handed_names(worker[0][3], handed[:steps_handed]) == sorted(image_weights(worker[0][3]) * 2)
    # w3's product, then wa's and wb's; w2's three contributions are added in order
    assert len(handed) == steps_handed + 3
    assert inline[1] == worker[1]
    assert_same_steps(inline[0], worker[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_coupled_graph_splits_and_stays_bit_identical(monkeypatch, submissions, handed, dtype):
    # without the stop gradient the alignment loss reaches into the image stream through its marked target
    set_cpus(monkeypatch, 1)
    inline = two_steps(dtype, use_stop_gradient=False)
    every_site_on_the_worker(monkeypatch)
    worker = two_steps(dtype, use_stop_gradient=False)
    assert submissions.count("image_losses") == submissions.count("_sweep_branch") == 2
    assert handed_names(worker[3], handed) == sorted(image_weights(worker[3]) * 2)
    assert_same_steps(inline, worker)


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


def backward_node(x, back_first, name):
    """An identity node over x whose backward calls back_first() before it passes the gradient on."""

    def back(g):
        back_first()
        ad._acc(x, g)

    return ad._make(x.data, (x,), name, back)


def fail_in_backward(monkeypatch, model, trajectory, image):
    """Steps of `model` run trajectory() in the backward sweep of the trajectory stream's loss, and image()
    in that of the image CNN's output, below every other image-stream node with a weight."""
    real_ce, real_join = model.dec_traj.ce_loss, model.img_cnn.join

    def join(imgs):
        joined = real_join(imgs)
        return dataclasses.replace(joined, values=backward_node(joined.values, image, "img_probe"))

    monkeypatch.setattr(model.dec_traj, "ce_loss", lambda *a: backward_node(real_ce(*a), trajectory, "traj_probe"))
    monkeypatch.setattr(model.img_cnn, "join", join)


def sweep_states():
    """The branch sweep's (sole, handed) each of the two threads holds: (this thread's, the worker's)."""
    return getattr(ad._LOCAL, "branch", None), ad.submit(lambda: getattr(ad._LOCAL, "branch", None)).result()


def test_an_image_sweep_error_surfaces_with_its_type_once_the_trajectory_sweep_ends(monkeypatch, handed):
    every_site_on_the_worker(monkeypatch)
    model = small_model()
    adam = ad.AdamState(model.params)
    sweeps = []
    real_sweep = ad._sweep_branch

    def recording_sweep(*args):
        sweeps.append("start")
        try:
            real_sweep(*args)
        finally:
            sweeps.append("end")

    def slow_trajectory():
        time.sleep(0.2)

    def failing_image():
        raise ImageError("image sweep")

    monkeypatch.setattr(ad, "_sweep_branch", recording_sweep)
    with monkeypatch.context() as m:
        fail_in_backward(m, model, slow_trajectory, failing_image)
        with pytest.raises(ImageError):
            bounded(train_step, model, adam, LINES[:4])
    assert sweeps == ["start", "end"]
    # the trajectory sweep ran to its end: down to the first conv's weight
    assert model.params["traj_conv.l0.w"].grad is not None
    # every product handed over before the error was formed and added; the sweep failed above the image CNN
    assert handed and all(p.grad is not None for p in handed)
    assert all(model.params[n].grad is None for n in model.params if n.startswith("img_cnn."))
    assert sweep_states() == (None, None)
    got = bounded(train_step, model, adam, LINES[:4])
    fresh = small_model()
    assert got == bounded(train_step, fresh, ad.AdamState(fresh.params), LINES[:4])
    assert all(model.params[n].data.tobytes() == p.data.tobytes() for n, p in fresh.params.items())


def test_a_trajectory_sweep_error_surfaces_first_once_the_image_sweep_is_done(monkeypatch):
    every_site_on_the_worker(monkeypatch)
    model = small_model()
    done = threading.Event()

    def failing_trajectory():
        raise TrajectoryError("trajectory sweep")

    def slow_failing_image():
        time.sleep(0.2)
        done.set()
        raise ImageError("image sweep")

    fail_in_backward(monkeypatch, model, failing_trajectory, slow_failing_image)
    with pytest.raises(TrajectoryError):
        bounded(train_step, model, ad.AdamState(model.params), LINES[:4])
    assert done.is_set()
    assert sweep_states() == (None, None)


def test_a_backward_fn_raising_mid_sweep_leaves_no_task_running(monkeypatch):
    every_site_on_the_worker(monkeypatch)
    finished = []
    real_product = ad._product

    def slow_product(a, g):
        time.sleep(0.2)
        finished.append(real_product(a, g))
        return finished[-1]

    monkeypatch.setattr(ad, "_product", slow_product)
    rng = np.random.default_rng(0)
    x, x2 = (ad.array(rng.normal(size=(5, 3)), requires_grad=True) for _ in range(2))
    w = ad.array(rng.normal(size=(3, 4)), requires_grad=True)

    def back(g):
        raise TrajectoryError("mid-sweep")

    # the branch's sweep hands w's product over, and this thread's sweep fails while it is formed
    failing = ad._make(x.data * 2.0, (x,), "failing", back)
    with pytest.raises(TrajectoryError):
        bounded(ad.backward, ad.add(asum(failing), ad.branch(asum(ad.matmul(x2, w)))))
    assert len(finished) == 1
    assert sweep_states() == (None, None)
    np.testing.assert_array_equal(w.grad, x2.data.T @ np.ones((5, 4), dtype=np.float32))


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


@pytest.mark.parametrize("glyphs", [(2, 4), (6, 10), (20, 30)])
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
    # a graph with a branch, which the model marks only when its image stream ran on the worker
    assert branch_gradients(np.float32) == branch_gradients(np.float32, mark=lambda y: y)
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
