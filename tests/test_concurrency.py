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
    """The names of the functions `ad.beside` ran on a thread other than its caller's, in order."""
    names = []
    real = ad.beside

    def counting(fn, *args):
        caller = threading.get_ident()

        def run(*fn_args):
            if threading.get_ident() != caller:
                names.append(fn.__name__)
            return fn(*fn_args)

        return real(run, *args)

    monkeypatch.setattr(ad, "beside", counting)
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_beside_gives_fns_value_from_the_worker_or_from_this_thread_first(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    order = []

    def fn(x):
        order.append(("fn", threading.get_ident()))
        return x + 1

    def run():
        with ad.beside(fn, 41) as task:
            order.append(("block", threading.get_ident()))
        return task.result(), threading.get_ident()

    value, caller = bounded(run)
    assert value == 42
    if cpus == 1:
        assert order == [("fn", caller), ("block", caller)]
    else:
        assert dict(order)["block"] == caller != dict(order)["fn"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_beside_raises_the_blocks_error_first_and_fns_on_leaving(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    ended, ran = threading.Event(), []

    def slow_failing():
        time.sleep(0.2)
        ended.set()
        raise ImageError("fn")

    def both_fail():
        with ad.beside(slow_failing):
            ran.append("block")
            raise TrajectoryError("block")

    def fn_fails():
        with ad.beside(slow_failing):
            ran.append("block")
        ran.append("after")

    with pytest.raises(TrajectoryError):
        bounded(both_fail)
    assert ended.is_set()
    ended.clear()
    with pytest.raises(ImageError):
        bounded(fn_fails)
    assert ended.is_set()
    # on one CPU too, the block ran after fn had failed
    assert ran == ["block", "block"]


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


# on one CPU every site runs inline: the split sweep too, its worker's part first
@pytest.mark.parametrize("cpus, switch_s", [pytest.param(2, None, id="None"), pytest.param(2, 1e-6, id="1e-06"),
                                            pytest.param(1, None, id="one_cpu")])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_steps_on_the_worker_are_bit_identical_to_inline_steps(monkeypatch, submissions, handed, dtype, cpus,
                                                               switch_s):
    set_cpus(monkeypatch, 1)
    inline = two_steps(dtype), branch_gradients(dtype, mark=lambda y: y)
    assert submissions == [] and handed == []  # a d=16 model is below every cut-off
    every_site_on_the_worker(monkeypatch)
    set_cpus(monkeypatch, cpus)
    prev = sys.getswitchinterval()
    try:
        if switch_s is not None:  # the interpreter switches threads as often as it can
            sys.setswitchinterval(switch_s)
        steps = two_steps(dtype)
        steps_submitted, steps_handed = len(submissions), len(handed)
        worker = steps, branch_gradients(dtype)
    finally:
        sys.setswitchinterval(prev)
    if cpus == 1:
        assert submissions == []
    else:
        assert set(submissions) == WORKER_SITES
        # one per step each: the batch's whole image stream, forward, then its backward sweep
        steps_sites = submissions[:steps_submitted]
        assert steps_sites.count("image_losses") == steps_sites.count("_sweep_branch") == 2
        # the sweeps of the graphs with one mark and with two; the graph read inside its mark is swept in one piece
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
    # beside it, or before it on one CPU, the image stream ran and had finished
    assert done.is_set()


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
    with ad.beside(getattr, ad._LOCAL, "branch", None) as worker:
        pass
    return getattr(ad._LOCAL, "branch", None), worker.result()


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


def test_adams_split_over_many_blocks_gives_the_inline_bytes(monkeypatch, submissions):
    """A d=64 recognizer's parameters take 9 blocks, so the split cuts a tensor between the threads."""
    set_cpus(monkeypatch, 2)

    def three_steps():
        model = Recognizer(EncoderConfig(d=64), AlignConfig(), build_vocab(LINES), seed=1)
        state = ad.AdamState(model.params)
        rng = np.random.default_rng(31)
        for lr in (1e-3, 3e-3, 2e-3):
            for p in model.params.values():
                p.grad = rng.normal(scale=1e-2, size=p.shape).astype(np.float32)
            bounded(ad.adam_step, model.params, state, lr)
        return state, {name: (p.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes())
                       for name, p in model.params.items()}

    _, inline = three_steps()
    assert submissions == []  # 0.56M elements: below the cut-off
    monkeypatch.setattr(ad, "_ADAM_WORKER_ELEMENTS", 0)
    state, worker = three_steps()
    assert submissions == ["_adam_updates"] * 3
    first_theirs = state.blocks[len(state.blocks) // 2][2][0]
    assert len(state.blocks) == 9 and first_theirs[1] > 0  # the worker's first piece starts inside a tensor
    assert worker == inline


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
    # a graph with a branch, swept in two parts on this thread
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


def run_script(script, *args):
    """Run `script` in a fresh interpreter with this checkout's penrec; fails the test unless it exits 0."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, timeout=STEP_TIMEOUT_S,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_load_and_inference_start_no_thread(tmp_path):
    # at d=320 training runs its streams side by side; inference must not
    from penrec.training import save_checkpoint
    ckpt = tmp_path / "wide.ckpt"
    save_checkpoint(Recognizer(EncoderConfig(d=320), AlignConfig(), build_vocab(LINES), seed=0), ckpt)
    run_script(INFERENCE_SCRIPT, str(ckpt))


FORK_SCRIPT = """
import os, sys, threading, time, traceback
from penrec import autodiff as ad
ad._usable_cpus = lambda: 2
with ad.beside(threading.get_ident) as task:
    pass
assert task.result() != threading.get_ident()
pid = os.fork()
if pid == 0:
    try:
        with ad.beside(threading.get_ident) as task:
            pass
        assert task.result() != threading.get_ident(), "the child ran fn on its own thread"
        assert ad._WORKER[0] == os.getpid(), "the child kept its parent's worker"
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    os._exit(0)
deadline = time.monotonic() + float(sys.argv[1])
done, status = os.waitpid(pid, os.WNOHANG)
while not done and time.monotonic() < deadline:
    time.sleep(0.01)
    done, status = os.waitpid(pid, os.WNOHANG)
if not done:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    sys.exit("the child did not finish")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_a_forked_child_runs_beside_on_its_own_worker():
    # the parent's worker thread does not exist in the child, which must start its own
    run_script(FORK_SCRIPT, str(STEP_TIMEOUT_S / 4))
