"""Reverse-mode differentiable array engine.

The kernels the recognizer calls: elementwise add and multiply, matmul
with an optional bias, strided 1D/2D convolution (which can apply its own
relu and zero the gaps between a batch's joined lines), `residual_block`
(two 3x3 convolutions and a 1x1 projection shortcut, with their relus, as
one node), relu, multi-head self-attention over a packed q|k|v
projection, layer norm, a whole-sequence bidirectional GRU, the decoder's
whole-sequence attention-fed GRU, row gather, linear interpolation between
rows, the two losses, and `branch`, an identity that marks the part of
the graph below it for its own backward sweep. The convolutions run over
a batch's lines joined along one axis with zero gaps between them; one
`gather_rows` cuts the joined rows into a batch of sequences zero-padded
to one length. Attention, the two GRUs and both losses take that batch,
and only that shape, with per-sequence lengths; a lone sequence is a
batch of one, (1, T, d). Each has one path: attention masks each
sequence's padding keys, one time loop advances every sequence's state,
and padding rows reach no result and get no gradient; attention and the
BiGRU leave out the mask and the reversal index for a batch without
padding. The GRU step, the decoder's attention step, the
softmax and the convolutions' strided windows (`_Windows`: im2col and
col2im) are each written once, as private helpers the kernels share;
greedy decoding runs the two step helpers on plain arrays. Each step of
a recurrence multiplies a few rows, one per sequence, by a weight, and
such a product falls off OpenBLAS's small-matrix fast path once it passes
about 1M multiply-adds or reads a transposed view. So `attention_gru`
multiplies by its w_x and w_h as three contiguous (H, H) gate blocks, and
the backward steps multiply by contiguous transposed copies, made once
per call (timings beside `_gate_blocks`). A parameter's `a.T @ g`
gradient is one matmul per use, formed as the reverse sweep reaches the
use. Convolutions leave out the kernel rows that read only zero padding.
Arrays are float32 by default; build everything in float64 for
finite-difference checks.

Also hosts the optimizer pieces: Adam with bias correction and the cosine
learning-rate schedule. Adam lays every tensor's moments end to end and
updates them in cache-sized blocks: each block's gradient pieces are
copied into one scratch block, and each piece of its step is subtracted
from its parameter.

Training can use a second core through one worker thread: `beside(fn)`
runs fn there while its block runs on the calling thread (on one CPU, fn
runs first on the calling thread). The worker is started by the first
training step with work large enough for it; importing, loading and
inference start none. Three places run work beside, each above a size
timed on the model's shapes: the recognizer's image stream, forward
(model.py); its backward sweep, when `backward` splits the sweep in two at
the `branch` nodes that mark where the rest of the graph reads the stream,
while the branch's large gradient products go to whichever thread is free
first; and half of `adam_step`'s update. Each task makes the numpy calls
the inline path makes, on the same operands, and every gradient sums its
contributions in the inline order, so every result is bit-identical to it.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from queue import Empty, SimpleQueue

import numpy as np


class ShapeError(ValueError):
    """Kernel invoked with incompatible shapes."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference/eval path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_WORKER = None  # (pid, executor of one thread) once a step has handed it work


@contextlib.contextmanager
def beside(fn, *args):
    """Run fn(*args) beside the block, on the worker thread; the block gets its Future.

    The worker is one thread, started by the first call; a forked child
    starts its own, since it has no copy of its parent's. Leaving the block
    waits for fn, also when the block raises. An error of the block goes
    first; otherwise fn's error is raised on leaving. With one usable CPU,
    fn runs on this thread before the block and its error is held until the
    block has run, so both run and the block's error goes first either way.
    """
    global _WORKER
    from concurrent.futures import Future, ThreadPoolExecutor  # its import costs milliseconds; only training needs it
    if _usable_cpus() < 2:
        task = Future()
        try:
            task.set_result(fn(*args))
        except Exception as e:
            task.set_exception(e)
    else:
        if _WORKER is None or _WORKER[0] != os.getpid():
            _WORKER = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="penrec-worker"))
        task = _WORKER[1].submit(fn, *args)
    try:
        yield task
    finally:
        task.exception()  # waits
    task.result()


class DiffArray:
    """N-dimensional array participating in reverse-mode differentiation.

    `parents` and `backward_fn` form the backward record; they are set only
    while gradients are enabled and some input requires them, so inference
    builds no graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn", "op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            data = np.asarray(data, dtype=dtype)
        else:
            data = np.asarray(data)
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(np.float32)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.parents: tuple = ()
        self.backward_fn = None
        self.op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"DiffArray(shape={self.data.shape}, op={self.op}, requires_grad={self.requires_grad})"


def array(data, requires_grad: bool = False, dtype=np.float32) -> DiffArray:
    return DiffArray(data, requires_grad=requires_grad, dtype=dtype)


def _make(data, parents, op, backward_fn) -> DiffArray:
    """The output node of every kernel."""
    out = DiffArray(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = tuple(parents)
        out.backward_fn = backward_fn
        out.op = op
    return out


def _acc(p: DiffArray, g, fresh: bool = False) -> None:
    """Add g to p's gradient.

    A `fresh` g is an array its caller has just made and holds no other
    reference to; it becomes p's first gradient as it is when its dtype is
    p's. Any other first contribution is copied, since p's gradient is
    added to in place.
    """
    if p.requires_grad:
        if p.grad is not None:
            p.grad += g
        elif fresh and isinstance(g, np.ndarray) and g.dtype == p.data.dtype:
            p.grad = g
        else:
            p.grad = np.array(g, dtype=p.data.dtype)


# The worker's sweep of a split graph (see `backward`) puts a product of at least this many
# multiply-adds into a leaf with a single consumer on a queue, for whichever thread finishes its
# own sweep first to form; it forms any smaller product at once. Backward of a step of 8 lines of
# 6-10 glyphs at d=320 (2.3G multiply-adds of products in all, the largest 139M), 2-core x86-64
# VM (OpenBLAS, one BLAS thread), medians of 15 steps, two line seeds in 2 processes each: none
# handed over 66.5-67.7 ms, from 4M 54.4-56.6, from 16M 55.4-55.6, from 48M 55.2-56.8 (12
# products, the image CNN's and the image BiGRU's), from 80M 55.6-56.6. 48M lies inside that
# flat range; a cut-off outside it would need its own end-to-end measurement. No graph splits
# below the model's `_STREAMS_BESIDE_D`, so a d=64 step starts no thread at any line length.
_WORKER_MACS = 48_000_000

# `branch`: (sole, handed) while the current thread runs `_sweep_branch`.
_LOCAL = threading.local()


def _product(a, g):
    """a.T @ g over the last two axes."""
    return np.matmul(a.swapaxes(-1, -2), g)


def _acc_product(p: DiffArray, a, g, rows: tuple[int, int] | None = None) -> None:
    """Accumulate the gradient (a.T @ g).reshape(p.shape) into p.

    a (N, m) and g (N, k) may carry a leading batch axis, (B, N, m) and
    (B, N, k), whose B products are stacked in order. With `rows` (lo, hi)
    the product is only p's leading-axis rows lo:hi; p's other rows get 0.
    The product is formed at once and added to p's gradient, except that
    the worker's sweep of a split graph queues a product of at least
    `_WORKER_MACS` multiply-adds into a leaf with a single consumer (see
    `_sweep_branch`), which makes it the leaf's whole gradient, added
    later. So every leaf's gradient is the sum of its contributions in the
    order they arose, as inline.
    """
    if not p.requires_grad:
        return
    if a.size * g.shape[-1] >= _WORKER_MACS:
        branch = getattr(_LOCAL, "branch", None)
        if branch is not None and id(p) in branch[0]:
            branch[1].put((p, rows, a, g))
            return
    _add_rows(p, _product(a, g), rows)


def _add_rows(p: DiffArray, dw, rows: tuple[int, int] | None) -> None:
    """Add the fresh product dw to p.grad, or to its leading-axis rows lo:hi when `rows` is (lo, hi)."""
    if rows is None:
        _acc(p, dw.reshape(p.shape), fresh=True)
        return
    lo, hi = rows
    if p.grad is None:
        p.grad = np.zeros_like(p.data)
    p.grad[lo:hi] += dw.reshape((hi - lo, *p.shape[1:]))


def _run(nodes) -> None:
    """The reverse sweep over `nodes`: each one's backward_fn, if it has one and a gradient reached it."""
    for node in nodes:
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


def _split(order: list):
    """How the reverse sweep of `order` (a topological order) splits between two threads, or None.

    The marks are the `branch` nodes; the branch is the marks and every node
    they reach. The graph splits when no node outside the branch consumes
    one inside it but a mark, so the branch's gradients are complete once
    the last consumer of any mark has run. Returns (rest, launch, side,
    sole): the sweep's nodes outside the branch, in its order, of which the
    first `launch` end with that last consumer; the branch's nodes in the
    sweep's order; and the ids of the branch's leaves that have a single
    consumer.
    """
    stack = [node for node in order if node.op == "branch"]
    if not stack:
        return None
    inside = set()
    while stack:
        node = stack.pop()
        if id(node) not in inside:
            inside.add(id(node))
            stack.extend(p for p in node.parents if p.requires_grad)
    rest, side, uses, launch = [], [], {}, 0
    for node in reversed(order):
        if id(node) in inside:
            side.append(node)
            for p in node.parents:
                uses[id(p)] = uses.get(id(p), 0) + 1
            continue
        rest.append(node)
        for p in node.parents:
            if p.op == "branch":
                launch = len(rest)
            elif id(p) in inside:
                return None
    if not launch:  # the branch is the whole graph
        return None
    return rest, launch, side, {id(n) for n in side if n.backward_fn is None and uses.get(id(n)) == 1}


def _sweep_branch(nodes: list, sole: set, handed: SimpleQueue) -> None:
    """The worker's part of a split sweep: `_run` over the branch's nodes.

    While it runs, `_acc_product` puts each product of at least
    `_WORKER_MACS` multiply-adds into a leaf of `sole` on the queue `handed`
    as (leaf, rows, a, g). Once its own sweep is done, it forms and adds the
    products the calling thread has not yet taken, so whichever thread is
    free forms the next one; then it puts None on `handed`. Both happen also
    when a backward_fn raises.
    """
    _LOCAL.branch = (sole, handed)
    try:
        _run(nodes)
    finally:
        _LOCAL.branch = None
        try:
            while True:
                p, rows, a, g = handed.get_nowait()
                _add_rows(p, _product(a, g), rows)
        except Empty:
            pass
        finally:
            handed.put(None)  # the calling thread takes the products still queued, then stops


def backward(loss: DiffArray) -> None:
    """Populate grads of every reachable array that requires them.

    Gradients accumulate across multiple uses of the same array, in the
    order the reverse sweep reaches them. When `_split` finds a branch that
    only its marks connect to the rest of the graph (a wide model's image
    stream), the worker sweeps the branch (`beside`), from the moment the
    marks' gradients are complete, while this thread sweeps the rest; each sweep runs its nodes in the order of
    the single sweep, so every gradient is the one sweep's, bit for bit. The
    large products the worker's sweep hands over are formed by whichever
    thread has finished its own sweep. A graph without such a branch is
    swept here in one piece. When a backward_fn raises, the branch's sweep
    has still finished, each product handed over by then is in its leaf's
    gradient, and the error of this thread's sweep goes first. Only a
    scalar-shaped loss is accepted.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((), dtype=loss.data.dtype)
    split = _split(order)
    if split is None:
        _run(reversed(order))
        return
    rest, launch, side, sole = split
    handed = SimpleQueue()
    _run(rest[:launch])
    with beside(_sweep_branch, side, sole, handed):
        _run(rest[launch:])
        for p, rows, a, g in iter(handed.get, None):
            _add_rows(p, _product(a, g), rows)


def zero_grads(arrays) -> None:
    for a in arrays:
        a.grad = None


def stop_gradient(x: DiffArray) -> DiffArray:
    """Forward identity that detaches the array from the graph."""
    return DiffArray(x.data)


def branch(x: DiffArray) -> DiffArray:
    """Forward identity that marks x and the graph under it as part of a branch `backward` may sweep on the worker thread.

    Every mark of a graph belongs to the one branch. `backward` splits it off
    when nothing outside it consumes a node of the branch but a mark (see
    `_split`).
    """

    def back(g):
        _acc(x, g)

    return _make(x.data, (x,), "branch", back)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: DiffArray, b: DiffArray) -> DiffArray:
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    y = a.data + b.data

    def back(g):
        _acc(a, g)
        _acc(b, g)

    return _make(y, (a, b), "add", back)


def mul(a: DiffArray, b) -> DiffArray:
    """Elementwise product with an array of a's shape or a scalar; a number or numpy array is a constant."""
    if not isinstance(b, DiffArray):
        b = DiffArray(np.asarray(b, dtype=a.dtype))
    if a.shape != b.shape and b.shape != ():
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    y = a.data * b.data

    def back(g):
        _acc(a, g * b.data, fresh=True)
        gb = g * a.data
        _acc(b, gb.sum() if b.shape == () else gb, fresh=True)

    return _make(y, (a, b), "mul", back)


def matmul(a: DiffArray, b: DiffArray, bias: DiffArray | None = None) -> DiffArray:
    """a (..., N, K) @ b (K, M), plus `bias` (M,) on every row when given.

    Leading axes of `a` (a batch of sequences) run as more rows of one product.
    """
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if bias is not None and bias.shape != (b.shape[1],):
        raise ShapeError(f"matmul: bias shape {bias.shape} does not match {b.shape}")
    a2 = a.data.reshape(-1, a.shape[-1])
    y = a2 @ b.data
    if bias is not None:
        y += bias.data

    def back(g):
        g2 = g.reshape(y.shape)
        _acc(a, (g2 @ b.data.T).reshape(a.shape), fresh=True)
        _acc_product(b, a2, g2)
        if bias is not None:
            _acc(bias, g2.sum(axis=0), fresh=True)

    return _make(y.reshape(*a.shape[:-1], b.shape[1]), (a, b) if bias is None else (a, b, bias), "matmul", back)


# ---------------------------------------------------------------------------
# convolutions


def conv1d_out_length(length: int, kernel: int, stride: int, pad: int) -> int:
    return (length + 2 * pad - kernel) // stride + 1


def _live_taps(size: int, kernel: int, stride: int, pad: int, out: int) -> tuple[int, int]:
    """The smallest range lo:hi of kernel taps along one axis that holds every tap reading the input.

    Tap i of output o reads padded index o*stride + i, input index
    o*stride + i - pad. Its first output past the leading padding is
    o = ceil((pad - i) / stride), or 0, and the tap reads the input if that
    output exists and its index is short of `size`. The taps outside the
    range read only zero padding; with pad >= kernel the live taps can have
    gaps, which the range keeps. (0, 0) when no tap reads the input.
    """
    live = []
    for i in range(kernel):
        o = max(0, -((i - pad) // stride))
        if o < out and o * stride + i - pad < size:
            live.append(i)
    return (live[0], live[-1] + 1) if live else (0, 0)


class _Windows:
    """The strided windows of one convolution over a channels-last (H, W, C_in) input: im2col and col2im.

    Shared by `_conv` and `residual_block`. Kernel rows that read only zero
    padding for every output row (the image stack's last stages are 2 and 1
    rows high) are left out of the im2col matrix and of the weight, so they
    cost nothing and get a zero gradient. `_view` looks at a zero-padded
    input as (H_out, W_out, kept rows, KW, C_in) strided windows, so the
    gather (im2col) is one copy of that view and, in backward, the
    scatter-add back into the input (col2im) is one vectorised slice-add per
    kept kernel tap. Only the padded shape is kept, not the padded copy.
    """

    __slots__ = ("shape", "kernel", "stride", "pad", "out", "lo", "hi")

    def __init__(self, shape, kernel, stride, pad):
        self.shape, self.kernel, self.stride, self.pad = shape, kernel, stride, pad
        self.out = tuple(map(conv1d_out_length, shape[:2], kernel, stride, pad))
        self.lo, self.hi = _live_taps(shape[0], kernel[0], stride[0], pad[0], self.out[0])

    def _view(self, a):
        # [oi, oj, i, j] is a[oi*sh + lo + i, oj*sw + j]: tap (lo + i, j) of output (oi, oj), always in bounds
        s0, s1, s2 = a.strides
        (ho, wo), (sh, sw) = self.out, self.stride
        return np.ndarray((ho, wo, self.hi - self.lo, self.kernel[1], self.shape[2]), a.dtype, a, self.lo * s0,
                          (s0 * sh, s1 * sw, s0, s1, s2))

    def cols(self, xd):
        """im2col: the (H_out * W_out, taps * C_in) matrix of xd's windows."""
        (H, W, cin), (ph, pw) = self.shape, self.pad
        if ph or pw:  # filled by hand: np.pad's own overhead is most of a small conv1d call
            xp = np.zeros((H + 2 * ph, W + 2 * pw, cin), dtype=xd.dtype)
            xp[ph:ph + H, pw:pw + W] = xd
        else:  # `_view` addresses the array's own memory, so it must be laid out C-contiguously
            xp = np.ascontiguousarray(xd)
        return self._view(xp).reshape(self.out[0] * self.out[1], -1)

    def centre(self, cols):
        """The columns of `cols` that tap (pad_h, pad_w) fills: x[::s_h, ::s_w], a 1x1 stride-s convolution's input."""
        (ph, pw), cin = self.pad, self.shape[2]
        t = (ph - self.lo) * self.kernel[1] + pw
        return cols[:, t * cin:(t + 1) * cin]

    def weight(self, wd):
        """The (taps * C_in, C_out) weight matrix of the kept kernel rows of wd (KH, KW, C_in, C_out)."""
        return wd[self.lo:self.hi].reshape(-1, wd.shape[-1])

    def rows(self):
        """`_acc_product`'s rows of the weight gradient: the kept kernel rows, or None for all of them."""
        return None if self.hi - self.lo == self.kernel[0] else (self.lo, self.hi)

    def input_grad(self, g2, w2, centre=None):
        """col2im: dL/dx (H, W, C_in), a view, from the output gradient g2 (N, C_out) and `weight`'s w2.

        `centre` (N, C_in), when given, is added at each window's `centre`
        tap once every tap's own slice-add is in.
        """
        (H, W, cin), (ph, pw) = self.shape, self.pad
        (ho, wo), kw, cout = self.out, self.kernel[1], g2.shape[1]
        taps = (self.hi - self.lo) * kw
        # tap-major, (taps, H_out * W_out, C_in): each tap's slice-add reads one contiguous block
        dcols = np.matmul(g2, w2.reshape(taps, cin, cout).swapaxes(1, 2))
        dxp = np.zeros((H + 2 * ph, W + 2 * pw, cin), dtype=g2.dtype)
        dwin = self._view(dxp)
        # windows of different taps overlap, those of one tap do not
        for t in range(taps):
            dwin[:, :, t // kw, t % kw] += dcols[t].reshape(ho, wo, cin)
        if centre is not None:
            dwin[:, :, ph - self.lo, pw] += centre.reshape(ho, wo, cin)
        return dxp[ph:ph + H, pw:pw + W]


def _relu_gaps(y, gaps) -> None:
    """relu of y (H_out, W_out, C) in place; then zero its output columns `gaps` (indices along W_out), if given."""
    np.maximum(y, 0, out=y)
    if gaps is not None:
        y[:, gaps] = 0.0


def _conv(op, x: DiffArray, w: DiffArray, b: DiffArray | None, stride, pad, relu: bool, gaps) -> DiffArray:
    """Strided, zero-padded convolution by im2col, shared by `conv1d` and `conv2d`.

    Works on channels-last images: x (H, W, C_in) and w (KH, KW, C_in, C_out)
    give (H_out, W_out, C_out); `conv1d`'s height-1 image (1, L, C_in) takes
    weights (K, C_in, C_out), one kernel row. With `relu` the node also
    applies relu and zeroes the output columns `gaps` (see `conv2d`).
    """
    cout = w.shape[-1]
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"{op}: incompatible shapes {b.shape} and {w.shape}")
    if gaps is not None and not relu:
        raise ShapeError(f"{op}: gaps go with relu")
    xd, wd = x.data, w.data.reshape((1,) * (4 - w.data.ndim) + w.shape)
    win = _Windows(xd.shape, wd.shape[:2], stride, pad)
    cols, w2 = win.cols(xd), win.weight(wd)
    y = cols @ w2
    if b is not None:
        y += b.data
    if relu:
        _relu_gaps(y.reshape(*win.out, cout), gaps)

    def back(g):
        g2 = g.reshape(-1, cout)
        if relu:
            g2 = g2 * (y > 0)  # y is 0 wherever the relu cut or a gap was zeroed
        _acc_product(w, cols, g2, win.rows())
        if b is not None:
            _acc(b, g2.sum(axis=0), fresh=True)
        if x.requires_grad:
            _acc(x, win.input_grad(g2, w2).reshape(x.shape), fresh=True)

    parents = (x, w) if b is None else (x, w, b)
    return _make(y.reshape(*win.out, cout), parents, op, back)


def _check_stride_pad(op, stride, pad) -> None:
    # before any output length, which divides by the stride; `_Windows` would reach outside the input
    if min(stride) < 1 or min(pad) < 0:
        raise ShapeError(f"{op}: stride {stride} must be positive and pad {pad} non-negative")


def conv1d(x: DiffArray, w: DiffArray, b: DiffArray | None, stride: int = 1, pad: int = 0,
           relu: bool = False, gaps=None) -> DiffArray:
    """Strided 1D convolution along a height-1 channels-last image, (1, L, C_in): time is its width.

    Weights are (K, C_in, C_out); output is (1, L_out, C_out) with
    L_out = floor((L + 2*pad - K) / stride) + 1. `relu` and `gaps` (output
    steps) are `conv2d`'s.
    """
    if x.data.ndim != 3 or x.shape[0] != 1 or w.data.ndim != 3 or x.shape[2] != w.shape[1]:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    _check_stride_pad("conv1d", (1, stride), (0, pad))
    if conv1d_out_length(x.shape[1], w.shape[0], stride, pad) <= 0:
        raise ShapeError(f"conv1d: input shape {x.shape} too short for kernel {w.shape}")
    return _conv("conv1d", x, w, b, (1, stride), (0, pad), relu, gaps)


def conv2d(x: DiffArray, w: DiffArray, b: DiffArray | None,
           stride: tuple[int, int] = (1, 1), pad: tuple[int, int] = (0, 0),
           relu: bool = False, gaps=None) -> DiffArray:
    """Strided 2D convolution over a channels-last (H, W, C_in) input.

    Weights are (KH, KW, C_in, C_out); output is (H_out, W_out, C_out).
    With `relu` the output is max(conv, 0), and `gaps`, integer indices
    along W_out, are output columns set to zero: the gaps between a batch's
    joined lines. Those outputs pass no gradient back.
    """
    if x.data.ndim != 3 or w.data.ndim != 4 or x.shape[2] != w.shape[2]:
        raise ShapeError(f"conv2d: incompatible shapes {x.shape} and {w.shape}")
    _check_stride_pad("conv2d", stride, pad)
    if min(map(conv1d_out_length, x.shape[:2], w.shape[:2], stride, pad)) <= 0:
        raise ShapeError(f"conv2d: input shape {x.shape} too small for kernel {w.shape}")
    return _conv("conv2d", x, w, b, stride, pad, relu, gaps)


def residual_block(x: DiffArray, w1: DiffArray, b1: DiffArray, w2: DiffArray, b2: DiffArray, wp: DiffArray,
                   stride: tuple[int, int], gaps=None) -> DiffArray:
    """A residual block with a projection shortcut over a channels-last (H, W, C_in) input, as one node.

        h = relu(conv1(x))      y = relu(conv2(h) + proj(x))

    conv1 is 3x3 with stride `stride`, weights w1 (3, 3, C_in, C) and bias
    b1; conv2 is 3x3 with stride 1, w2 (3, 3, C, C) and b2; both pad by 1.
    proj, the shortcut, is the 1x1 stride-s convolution wp (1, 1, C_in, C)
    without bias. It reads x[::s_h, ::s_w], which are exactly the centre-tap
    columns of conv1's im2col matrix, so it makes no im2col of its own. Both
    relus zero the output columns `gaps`, as `conv2d`'s. The values and
    gradients are those of the same graph built from `conv2d`, `relu` and
    `add` nodes, bit for bit.
    """
    ins = (x, w1, b1, w2, b2, wp)
    c = w1.shape[-1] if w1.data.ndim == 4 else 0
    if (x.data.ndim != 3 or min(x.shape) < 1 or c < 1 or w1.shape != (3, 3, x.shape[2], c) or b1.shape != (c,)
            or w2.shape != (3, 3, c, c) or b2.shape != (c,) or wp.shape != (1, 1, x.shape[2], c)):
        raise ShapeError(f"residual_block: incompatible shapes {', '.join(str(a.shape) for a in ins)}")
    _check_stride_pad("residual_block", stride, (1, 1))
    win1 = _Windows(x.shape, (3, 3), tuple(stride), (1, 1))
    cols1, w1m = win1.cols(x.data), win1.weight(w1.data)
    h = cols1 @ w1m
    h += b1.data
    h = h.reshape(*win1.out, c)
    _relu_gaps(h, gaps)
    win2 = _Windows(h.shape, (3, 3), (1, 1), (1, 1))
    cols2, w2m = win2.cols(h), win2.weight(w2.data)
    xs, wpm = win1.centre(cols1), wp.data.reshape(-1, c)
    y = cols2 @ w2m
    y += b2.data
    y += xs @ wpm
    _relu_gaps(y.reshape(*win1.out, c), gaps)

    def back(g):
        g2 = g.reshape(-1, c) * (y > 0)
        _acc_product(w2, cols2, g2, win2.rows())
        _acc(b2, g2.sum(axis=0), fresh=True)
        dh = (win2.input_grad(g2, w2m) * (h > 0)).reshape(-1, c)
        _acc_product(w1, cols1, dh, win1.rows())
        _acc(b1, dh.sum(axis=0), fresh=True)
        if x.requires_grad:
            # the shortcut's part, (N, C_in), formed as `input_grad` forms a one-tap convolution's
            ds = np.matmul(g2, wpm.reshape(1, -1, c).swapaxes(1, 2))[0]
            _acc(x, win1.input_grad(dh, w1m, ds), fresh=True)
        _acc_product(wp, xs, g2)

    return _make(y.reshape(*win1.out, c), ins, "residual_block", back)


# ---------------------------------------------------------------------------
# activations and normalization


# The reductions below call the ufuncs' `reduce` directly. `ndarray.max`, `.sum` and `.mean`
# are Python-level wrappers around the same calls, and at the recurrences' row sizes the
# wrapper costs about as much as the reduction.


def _mean_last(x):
    """x.mean(axis=-1, keepdims=True): the same sum, divided by the same intp count."""
    s = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(x.shape[-1]), out=s, casting="unsafe")


# 0.5 and 1.0 as 0-d arrays of each float dtype: a ufunc call takes an array operand of its own
# dtype faster than a Python float, which it must first convert
_HALF_ONE = {np.dtype(t): (np.array(0.5, dtype=t), np.array(1.0, dtype=t)) for t in (np.float32, np.float64)}


def _sigmoid(x, out=None):
    """Overflow-safe 1 / (1 + exp(-x)), as 0.5 * (tanh(0.5 * x) + 1); `out` may be x itself."""
    half, one = _HALF_ONE[x.dtype]
    y = np.multiply(x, half, out=out)
    np.tanh(y, out=y)
    np.add(y, one, out=y)
    np.multiply(y, half, out=y)
    return y


def _softmax(x, out=None):
    """Stable softmax along the last axis of a numpy array, into `out` when given."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def _softmax_back(y, g):
    """Gradient w.r.t. the softmax input, given its output `y` and the output gradient `g`."""
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def relu(x: DiffArray) -> DiffArray:
    """max(x, 0). The convolutions apply their own (`conv2d`'s `relu`)."""
    y = np.maximum(x.data, 0)

    def back(g):
        _acc(x, g * (y > 0), fresh=True)

    return _make(y, (x,), "relu", back)


def attention(qkv: DiffArray, heads: int, frames, attn_sink: list | None = None) -> DiffArray:
    """Multi-head scaled dot-product self-attention over a zero-padded batch: (B, T, 3d) -> (B, T, d).

    `qkv` holds q, k and v as column blocks [q | k | v] of width d, and
    head j owns column block j (width d/heads) of each; per head,
    out_j = softmax(q_j @ k_j^T / sqrt(d/heads)) @ v_j, and the heads'
    outputs are laid out as column blocks in the same order. Sequence b
    fills the first frames[b] rows; a 0 or -inf mask added to the scores,
    as in `attention_gru`, gives its padding keys weight zero, so no row
    of b reads them. A batch without padding, such as a lone line's batch
    of one, adds no mask. Padding rows are queries like any other; their
    outputs are for the caller to ignore. `attn_sink`, when given, receives
    one (B, T, T) weight array per head.
    """
    B, T, width = qkv.shape if qkv.data.ndim == 3 else (0, 0, 0)
    if heads < 1 or T < 1 or width % (3 * heads):
        raise ShapeError(f"attention: incompatible shape {qkv.shape} for {heads} heads; need a (B, T, 3d) batch")
    frames = _check_lengths("attention", frames, B, T)
    d = width // 3
    dk = d // heads
    scale = 1.0 / math.sqrt(dk)
    # (B, heads, T, dk) views of the column blocks
    qh, kh, vh = qkv.data.reshape(B, T, 3, heads, dk).transpose(2, 0, 3, 1, 4)
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    if frames.min() < T:
        s += np.where(np.arange(T) < frames[:, None], 0.0, -np.inf).astype(s.dtype)[:, None, None]
    alpha = _softmax(s)
    if attn_sink is not None:
        attn_sink.extend(a.copy() for a in alpha.swapaxes(0, 1))
    y = (alpha @ vh).transpose(0, 2, 1, 3).reshape(B, T, d)

    def back(g):
        gh = g.reshape(B, T, heads, dk).transpose(0, 2, 1, 3)
        ds = _softmax_back(alpha, gh @ vh.swapaxes(-1, -2)) * scale
        dqkv = np.empty((B, T, 3, heads, dk), dtype=alpha.dtype)
        dh = dqkv.transpose(2, 0, 3, 1, 4)  # (3, B, heads, T, dk), laid out as qkv's columns
        dh[0] = ds @ kh
        dh[1] = ds.swapaxes(-1, -2) @ qh
        dh[2] = alpha.swapaxes(-1, -2) @ gh
        _acc(qkv, dqkv.reshape(B, T, width), fresh=True)

    return _make(y, (qkv,), "attention", back)


_LAYER_NORM_EPS = 1e-5  # added to the variance


def layer_norm(x: DiffArray, gain: DiffArray, bias: DiffArray) -> DiffArray:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: incompatible shapes {x.shape} and {gain.shape}")
    xc = x.data - _mean_last(x.data)
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xh = xc * inv
    y = xh * gain.data + bias.data

    def back(g):
        _acc(gain, np.add.reduce((g * xh).reshape(-1, d), axis=0), fresh=True)
        _acc(bias, np.add.reduce(g.reshape(-1, d), axis=0), fresh=True)
        if x.requires_grad:
            dxh = g * gain.data
            term = dxh - _mean_last(dxh) - xh * _mean_last(dxh * xh)
            _acc(x, inv * term, fresh=True)

    return _make(y, (x, gain, bias), "layer_norm", back)


# ---------------------------------------------------------------------------
# recurrence
#
# `bigru` and `attention_gru` share one GRU forward loop and one
# backprop-through-time loop; they differ only in where each step's input
# projection comes from, which they pass in as per-step callbacks. `bigru`
# runs its two directions side by side, as a leading axis of the state.
# Both run a batch of sequences padded to one length and advance every
# sequence's state in each step, so the loop runs once per batch: the state
# has a batch axis, and each step's hidden-side product is one matrix
# product over it. A lone sequence is a batch of one and takes the same
# loop. A sequence's padding comes after its last step in every direction,
# so it cannot reach the sequence's own states; the kernels zero the outputs
# there and pass back no gradient from them. The step bodies, `_gru_step`
# and `_attention_step`, are also what the decoder's greedy loop runs, one
# token at a time on plain arrays and with no graph.


def _check_lengths(op: str, lengths, batch: int, most: int):
    """Per-sequence lengths as a (batch,) integer array, each from 1 to `most`."""
    n = np.asarray(lengths)
    if n.shape != (batch,) or batch < 1 or n.dtype.kind not in "iu" or n.min() < 1 or n.max() > most:
        raise ShapeError(f"{op}: need {batch} lengths from 1 to {most}, got {lengths}")
    return n.astype(np.intp)


def _reversal(lengths, T: int):
    """The index that reverses the first lengths[b] rows of each sequence b of a (B, T, ...) array.

    Padding rows stay where they are. The reversal is its own inverse: it
    maps a backward direction's step order to row order and back.
    """
    steps = np.arange(T)
    return np.arange(len(lengths))[:, None], np.where(steps < lengths[:, None], lengths[:, None] - 1 - steps, steps)


def _reverse_each(a, reversal):
    """a (B, T, ...) with each sequence's rows reversed by `_reversal`'s index; None reverses all T rows."""
    return a[:, ::-1] if reversal is None else a[reversal]


def _gru_step(h, px, w_h, b_rows, hw, hw_rows, a, rz, n, h_out) -> None:
    """One GRU step from the states h (B, H) and their input projection px.

    With a = h @ w_h + b_h, per gate block [r | z | n]:

        r = sigmoid(px_r + a_r)    z = sigmoid(px_z + a_z)
        n = tanh(px_n + r * a_n)   h' = n + z * (h - n)

    w_h (H, 3H) packs its columns as [r | z | n]; h @ w_h is one matrix
    product over the batch, written into hw (B, 3H), and `hw_rows` views hw
    as (3, B, H), one gate block per row. w_h may instead be `_gate_blocks`'
    (3, H, H), whose three products write hw (3, B, H) gate row by gate row;
    `hw_rows` is then hw itself. px, b_rows and a (3, B, H) and
    rz (2, B, H) hold one gate block per row too, so every elementwise
    operation reads whole rows. The step writes a, the gates r and z, then
    n and h' (B, H) into a, rz, n and h_out, none of which may overlap h or
    px. D GRUs advance together when h is (D, B, H), w_h (D, H, 3H) and hw
    (D, B, 3H): every other array gains the direction axis after the gate
    axis, so each gate's rows of all directions stay one contiguous block.
    Greedy decoding, whose encoded frames are a batch of one, runs the step
    on that one sequence's rows with the batch axis dropped: h (H,), px and
    a (3, H).
    """
    np.matmul(h, w_h, out=hw)
    np.add(hw_rows, b_rows, out=a)
    np.add(px[:2], a[:2], out=rz)
    _sigmoid(rz, out=rz)
    np.multiply(rz[0], a[2], out=n)
    n += px[2]
    np.tanh(n, out=n)
    np.subtract(h, n, out=h_out)
    h_out *= rz[1]
    h_out += n


def _gate_rows(packed):
    """A view of packed gate blocks [r | z | n], (..., 3H), as (3, ..., H): one block per row."""
    rows = packed.reshape(*packed.shape[:-1], 3, packed.shape[-1] // 3)
    k = rows.ndim - 2  # the gate axis moves to the front
    return rows.transpose(k, *range(k), k + 1)


# A GEMM packs its whole right operand on every call, and only enough rows amortize that: below
# about 1M multiply-adds OpenBLAS takes a small-matrix path that skips the packing (Goto and van de
# Geijn, ACM TOMS 2008). The recurrences multiply 8 rows per step, so their per-step products are
# laid out to stay under that limit, each on C-contiguous operands: `attention_gru` runs its w_x and
# w_h products as three (H, H) gate blocks, and every backward step product reads a contiguous copy
# of its transposed weight, made once per call. Microseconds per float32 product, best of 7 x 2,000
# calls, one OpenBLAS 0.3.31 thread (Haswell kernels), 2-core x86-64 VM; (M, K) @ (K, N):
#   (8, 320) @ (320, N)   N=320 (0.82M) 11.8 | 384 (0.98M) 14.1 | 448 (1.15M) 36.1 | 512 33.7 | 960 83.3
#   (8, 320) @ (3, 320, 320) gate blocks, the N=960 product's three parts: 24.9
#   (2, 8, 480) @ (2, 480, 160), a d=320 BiGRU backward step: swapaxes view 73.2, contiguous 11.7
#   (8, 960) @ (960, 320), an attention-GRU backward step: .T view 151.2, contiguous 85.3


def _gate_blocks(w):
    """Packed gate weights [r | z | n], (H, 3H), as three C-contiguous (H, H) gate blocks, (3, H, H)."""
    return np.ascontiguousarray(w.reshape(w.shape[0], 3, -1).swapaxes(0, 1))


def _gru_forward(T: int, h0, w_h, b_h, step_input):
    """Run T `_gru_step`s from the states h0 (B, H); `step_input(t, h)` gives step t's input projection.

    w_h (H, 3H) and b_h (1, 3H) are packed as gate blocks [r | z | n], or
    w_h is `_gate_blocks`' (3, H, H); `step_input` returns its projection
    with one gate block per row, (3, B, H). Returns the states hs (T+1, B, H), hs[t] entering step t, the
    gates r and z (T, 2, B, H) and n (T, B, H) after their nonlinearities,
    and a_n (T, B, H), the n block of h @ w_h + b_h. D independent GRUs
    advance together when h0 is (D, B, H), w_h (D, H, 3H) and b_h
    (D, 1, 3H): the projection is then (3, D, B, H), and every returned
    array gains the direction axis before the batch axis.
    """
    H = h0.shape[-1]
    lead = h0.shape[:-1]
    hs = np.empty((T + 1, *lead, H), dtype=w_h.dtype)
    rz = np.empty((T, 2, *lead, H), dtype=w_h.dtype)
    n = np.empty((T, *lead, H), dtype=w_h.dtype)
    a = np.empty((T, 3, *lead, H), dtype=w_h.dtype)
    if w_h.shape[-1] == H:  # gate blocks: the product is laid out one gate per row already
        hw = hw_rows = np.empty((3, *lead, H), dtype=w_h.dtype)
    else:
        hw = np.empty((*lead, 3 * H), dtype=w_h.dtype)
        hw_rows = _gate_rows(hw)
    b_rows = _gate_rows(b_h)
    hs[0] = h0
    for t in range(T):
        _gru_step(hs[t], step_input(t, hs[t]), w_h, b_rows, hw, hw_rows, a[t], rz[t], n[t], hs[t + 1])
    return hs, rz, n, a[:, 2]


def _gru_backward(g, hs, rz, n, a_n, w_h, step_input_back=None):
    """Backprop through time for `_gru_forward`, given its results and dL/dh' of every step, g (T, B, H).

    Returns the gradients of the input projections dpx (T, B, 3H), of
    a = h @ w_h + b_h, da (T, B, 3H), and of h0, (B, H).
    `step_input_back(t, dpx_t)`, when given, backpropagates step t's input
    projection and returns the part of dL/dh_t that flowed through it. With
    a direction axis (g is (T, D, B, H)) every result gains it as
    `_gru_forward`'s do.
    """
    T, H = g.shape[0], g.shape[-1]
    r, z = rz[:, 0], rz[:, 1]
    # per-step factors of dh', gate blocks stacked: d(px) = dh' * k_px, d(a) = dh' * k_a
    k_n = (1.0 - z) * (1.0 - n * n)
    k_rz = [k_n * a_n * r * (1.0 - r), (hs[:-1] - n) * z * (1.0 - z)]
    k_px = np.stack(k_rz + [k_n], axis=-2)
    k_a = np.stack(k_rz + [k_n * r], axis=-2)
    dpx = np.empty(k_px.shape, dtype=hs.dtype)
    da = np.empty(k_a.shape, dtype=hs.dtype)
    dpx_flat, da_flat = dpx.reshape(*g.shape[:-1], 3 * H), da.reshape(*g.shape[:-1], 3 * H)
    carry = np.zeros(g.shape[1:], dtype=hs.dtype)
    w_t = np.ascontiguousarray(w_h.swapaxes(-1, -2))  # see `_gate_blocks`: a view would leave the fast path
    for t in range(T - 1, -1, -1):
        dh = g[t] + carry
        dpx[t] = dh[..., None, :] * k_px[t]
        da[t] = dh[..., None, :] * k_a[t]
        carry = dh * z[t] + np.matmul(da_flat[t], w_t)
        if step_input_back is not None:
            carry += step_input_back(t, dpx_flat[t])
    return dpx_flat, da_flat, carry


def bigru(xs: DiffArray, h0: DiffArray, w_x: DiffArray, b_x: DiffArray,
          w_h: DiffArray, b_h: DiffArray, lengths) -> DiffArray:
    """Bidirectional GRU over a zero-padded batch: (B, T, d) rows -> (B, T, 2H) states.

    Sequence b fills the first lengths[b] rows of xs. A forward GRU reads
    its rows from 0 and a backward one from its own last row, lengths[b]-1,
    back to 0, each with `_gru_forward`'s step equations; output row t is
    [forward state after row t | backward state after row t]. `w_x` (d, 6H)
    and `b_x` (6H,) hold the forward direction's input-side gate blocks
    [r | z | n], then the backward's; `w_h` (2H, 3H) holds the forward's
    hidden-side rows, then the backward's, and `b_h` (6H,) their biases laid
    out as `b_x`; `h0` (2, H) holds the two initial states. One matmul
    projects every row for both directions, and one time loop advances both
    directions of all B sequences. Output rows past a sequence's length are
    zero, and no gradient flows back from them. A batch without padding,
    such as a lone line's batch of one, reverses every row and masks none.
    One graph node; backward is hand-written backprop through time.
    """
    ins = (xs, h0, w_x, b_x, w_h, b_h)
    B, T, d = xs.shape if xs.data.ndim == 3 else (0, 0, 0)
    H = h0.shape[1] if h0.data.ndim == 2 else 0
    if (d < 1 or H < 1 or h0.shape != (2, H) or w_x.shape != (d, 6 * H) or b_x.shape != (6 * H,)
            or w_h.shape != (2 * H, 3 * H) or b_h.shape != (6 * H,)):
        raise ShapeError(f"bigru: incompatible shapes {', '.join(str(a.shape) for a in ins)}; "
                         "need a (B, T, d) batch")
    lengths = _check_lengths("bigru", lengths, B, T)
    padded = lengths.min() < T
    reversal = _reversal(lengths, T) if padded else None
    wh = w_h.data.reshape(2, H, 3 * H)
    proj = (xs.data.reshape(B * T, d) @ w_x.data + b_x.data).reshape(B, T, 6 * H)
    # (T, 3, 2, B, H), in step order: per step the gate blocks of both directions, one per row
    px = np.empty((T, 3, 2, B, H), dtype=proj.dtype)
    px[:, :, 0] = proj[:, :, :3 * H].reshape(B, T, 3, H).transpose(1, 2, 0, 3)
    px[:, :, 1] = _reverse_each(proj[:, :, 3 * H:], reversal).reshape(B, T, 3, H).transpose(1, 2, 0, 3)
    hs, rz, n, a_n = _gru_forward(T, h0.data[:, None].repeat(B, axis=1), wh, b_h.data.reshape(2, 1, 3 * H),
                                  lambda t, h: px[t])
    y = np.concatenate([hs[1:, 0].transpose(1, 0, 2), _reverse_each(hs[1:, 1].transpose(1, 0, 2), reversal)],
                       axis=2)
    valid = np.arange(T) < lengths[:, None] if padded else None  # (B, T)
    if padded:
        y[~valid] = 0.0

    def back(g):
        g = g.reshape(B, T, 2 * H)
        if padded:
            g = g * valid[:, :, None]
        gs = np.empty((T, 2, B, H), dtype=g.dtype)
        gs[:, 0] = g[:, :, :H].transpose(1, 0, 2)
        gs[:, 1] = _reverse_each(g[:, :, H:], reversal).transpose(1, 0, 2)
        dpx, da, dh0 = _gru_backward(gs, hs, rz, n, a_n, wh)
        dproj = np.empty((B, T, 6 * H), dtype=g.dtype)  # in row order
        dproj[:, :, :3 * H] = dpx[:, 0].transpose(1, 0, 2)
        dproj[:, :, 3 * H:] = _reverse_each(dpx[:, 1].transpose(1, 0, 2), reversal)
        dproj = dproj.reshape(B * T, 6 * H)
        _acc(xs, (dproj @ w_x.data.T).reshape(xs.shape), fresh=True)
        _acc(h0, dh0.sum(axis=1), fresh=True)
        _acc_product(w_x, xs.data.reshape(B * T, d), dproj)
        _acc(b_x, dproj.sum(axis=0), fresh=True)
        # per direction: its states entering each step against its da, all steps and sequences as rows
        _acc_product(w_h, hs[:-1].swapaxes(0, 1).reshape(2, T * B, H), da.swapaxes(0, 1).reshape(2, T * B, 3 * H))
        _acc(b_h, da.sum(axis=(0, 2)).reshape(-1), fresh=True)

    return _make(y, ins, "bigru", back)


def _attention_step(y_t, h, wq, keys_t, values, scale, w_x, b_x, u, q, alpha, x, mask=None):
    """`attention_gru`'s input side of one step, from the input rows y_t and the states h, each (B, H).

    Writes the query inputs y_t + h, the queries, the attention weights and
    the GRU inputs y_t + alpha @ values into u, q, alpha and x, one row per
    sequence; returns the GRU input projection x @ w_x + b_x with one gate
    block per row, (3, B, H). `keys_t` (B, dk, Tk) holds each sequence's
    keys transposed and `values` (B, Tk, H) its frames; `mask` (B, Tk), 0 or
    -inf, is added to the scores so that no sequence attends to its padding
    frames. With `_gate_blocks`' w_x (3, H, H) and b_x (3, 1, H) the
    projection is three products that write its gate rows. Greedy decoding,
    whose frames are a batch of one, runs the step on that one sequence
    with the batch axis dropped and without a mask, with w_x (H, 3H) and
    b_x (3H,) packed.
    """
    np.add(y_t, h, out=u)
    np.matmul(u, wq, out=q)
    s = np.vecmat(q, keys_t) * scale
    if mask is not None:
        s += mask
    _softmax(s, out=alpha)
    np.add(y_t, np.vecmat(alpha, values), out=x)
    px = x @ w_x + b_x
    return px if w_x.ndim == 3 else _gate_rows(px)


def attention_gru(y: DiffArray, h0: DiffArray, wq: DiffArray, keys: DiffArray, values: DiffArray,
                  w_x: DiffArray, b_x: DiffArray, w_h: DiffArray, b_h: DiffArray,
                  lengths, frames, attn_sink: list | None = None) -> DiffArray:
    """Attention-fed GRU over a zero-padded batch: (B, T, H) input rows -> (B, T, H) states.

    Sequence b reads its inputs from the first lengths[b] rows of y and
    attends over its frames, the first frames[b] rows of `keys` (B, Tk, dk)
    and `values` (B, Tk, H). Step t reads row y_t and the state h entering
    it (`h0` (1, H) at t = 0), attends with one head, and advances
    `_gru_forward`'s GRU with input-side weights `w_x` (H, 3H), `b_x` and
    hidden-side weights `w_h` (H, 3H), `b_h`:

        q = (y_t + h) @ wq      alpha = softmax(q @ keys^T / sqrt(dk))
        x = y_t + alpha @ values      h' = GRU(x @ w_x + b_x, h)

    One time loop advances all B sequences. Attention gives a sequence's
    padding frames weight zero; its states past lengths[b] are zero and pass
    no gradient back. `attn_sink`, when given, receives the attention
    weights, (B, T, Tk). One graph node: backward runs through time with
    matrix-vector products per sequence only, then forms each weight
    gradient with one matmul over all steps.
    """
    ins = (y, h0, wq, keys, values, w_x, b_x, w_h, b_h)
    B, T, H = y.shape if y.data.ndim == 3 else (0, 0, 0)
    tk, dk = keys.shape[1:] if keys.data.ndim == 3 and keys.shape[0] == B else (0, 0)
    if (H < 1 or tk < 1 or h0.shape != (1, H) or wq.shape != (H, dk) or values.shape != (B, tk, H)
            or w_x.shape != (H, 3 * H) or b_x.shape != (3 * H,)
            or w_h.shape != (H, 3 * H) or b_h.shape != (3 * H,)):
        raise ShapeError(f"attention_gru: incompatible shapes {', '.join(str(a.shape) for a in ins)}")
    lengths = _check_lengths("attention_gru", lengths, B, T)
    frames = _check_lengths("attention_gru", frames, B, tk)
    scale = 1.0 / math.sqrt(dk)
    wqd, wxd = wq.data, w_x.data
    wx_blocks, bx_rows = _gate_blocks(wxd), _gate_rows(b_x.data[None])
    yd, kd, vd = y.data.swapaxes(0, 1), keys.data, values.data  # inputs in step order, (T, B, H)
    kd_t = np.ascontiguousarray(kd.swapaxes(1, 2))
    mask = np.where(np.arange(tk) < frames[:, None], 0.0, -np.inf).astype(yd.dtype)
    U = np.empty((T, B, H), dtype=yd.dtype)                # query inputs y_t + h
    Q = np.empty((T, B, dk), dtype=yd.dtype)
    A = np.empty((T, B, tk), dtype=yd.dtype)               # attention weights
    X = np.empty((T, B, H), dtype=yd.dtype)                # GRU inputs y_t + alpha @ values

    def step_input(t, h):
        return _attention_step(yd[t], h, wqd, kd_t, vd, scale, wx_blocks, bx_rows, U[t], Q[t], A[t], X[t], mask)

    hs, rz, n, a_n = _gru_forward(T, h0.data.repeat(B, axis=0), _gate_blocks(w_h.data), b_h.data[None],
                                  step_input)
    if attn_sink is not None:
        attn_sink.append(A.swapaxes(0, 1).copy())
    out = np.ascontiguousarray(hs[1:].swapaxes(0, 1))
    valid = np.arange(T) < lengths[:, None]  # (B, T)
    out[~valid] = 0.0

    def back(g):
        g = (g * valid[:, :, None]).swapaxes(0, 1)
        dU, dQ, dS, dX = np.empty_like(U), np.empty_like(Q), np.empty_like(A), np.empty_like(X)
        wxd_t, wqd_t = np.ascontiguousarray(wxd.T), np.ascontiguousarray(wqd.T)  # see `_gate_blocks`

        def step_input_back(t, dpx):
            dX[t] = dpx @ wxd_t
            dS[t] = _softmax_back(A[t], np.matvec(vd, dX[t])) * scale
            dQ[t] = np.vecmat(dS[t], kd)
            dU[t] = dQ[t] @ wqd_t
            return dU[t]

        def rows(a):
            return a.reshape(-1, a.shape[-1])

        dpx, da, dh0 = _gru_backward(g, hs, rz, n, a_n, w_h.data, step_input_back)
        _acc(y, (dX + dU).swapaxes(0, 1), fresh=True)
        _acc(h0, dh0.sum(axis=0, keepdims=True), fresh=True)
        _acc_product(wq, rows(U), rows(dQ))
        _acc_product(keys, dS.swapaxes(0, 1), Q.swapaxes(0, 1))
        _acc_product(values, A.swapaxes(0, 1), dX.swapaxes(0, 1))
        _acc_product(w_x, rows(X), rows(dpx))
        _acc(b_x, rows(dpx).sum(axis=0), fresh=True)
        _acc_product(w_h, rows(hs[:-1]), rows(da))
        _acc(b_h, rows(da).sum(axis=0), fresh=True)

    return _make(out, ins, "attention_gru", back)


# ---------------------------------------------------------------------------
# structure: row gather, interpolation


def _rows(table: DiffArray, op: str):
    """`table` (..., d) as rows (N, d), its leading axes flattened."""
    if table.data.ndim < 2:
        raise ShapeError(f"{op}: need rows (..., d), got {table.shape}")
    return table.data.reshape(-1, table.shape[-1])


def gather_rows(table: DiffArray, ids) -> DiffArray:
    """Row lookup: the rows (N, d) of `table` (..., d) at integer `ids` of any shape -> (*ids.shape, d).

    An id of -1 gives a zero row that passes no gradient back, so one call
    cuts a batch's joined lines into a zero-padded (B, T, d) batch. The
    decoder's embedding lookup passes ids in range.
    """
    rows = _rows(table, "gather_rows")
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < -1 or ids.max() >= rows.shape[0]):
        raise IndexError(f"gather_rows: index out of range for table {table.shape}")
    pad = ids < 0
    padded = bool(pad.any())
    y = rows[ids]
    if padded:
        y[pad] = 0.0

    def back(g):
        dt = np.zeros_like(rows)
        if padded:
            np.add.at(dt, ids[~pad], g[~pad])
        else:
            np.add.at(dt, ids, g)
        _acc(table, dt.reshape(table.shape), fresh=True)

    return _make(y, (table,), "gather_rows", back)


def interp_rows(feat: DiffArray, positions) -> DiffArray:
    """Linear interpolation between the rows (N, d) of `feat` (..., d) at fractional row coordinates.

    `positions` of any shape are clamped to [0, N-1]; each output row mixes
    the two bracketing feature rows, (*positions.shape, d). Differentiable
    w.r.t. `feat` only.
    """
    rows = _rows(feat, "interp_rows")
    n = rows.shape[0]
    pos = np.asarray(positions, dtype=feat.dtype)
    c = np.clip(pos.reshape(-1), 0.0, float(n - 1))
    i0 = np.floor(c).astype(np.intp)
    frac = (c - i0).astype(feat.dtype)
    i1 = np.minimum(i0 + 1, n - 1)
    w0 = (1.0 - frac)[:, None].astype(feat.dtype)
    w1 = frac[:, None]
    y = w0 * rows[i0] + w1 * rows[i1]

    def back(g):
        g = g.reshape(-1, rows.shape[1])
        df = np.zeros_like(rows)
        np.add.at(df, i0, w0 * g)
        np.add.at(df, i1, w1 * g)
        _acc(feat, df.reshape(feat.shape), fresh=True)

    return _make(y.reshape(pos.shape + (rows.shape[1],)), (feat,), "interp_rows", back)


# ---------------------------------------------------------------------------
# losses


def cross_entropy_logits(logits: DiffArray, targets, lengths) -> DiffArray:
    """-log softmax(logits)[target] over a padded batch; stable log-sum-exp.

    Logits (B, T, V) and targets (B, T) with `lengths` (B,): the mean over
    sequences of each one's own mean over its first lengths[b] rows, formed
    as one sum with each row weighted 1 / (B * lengths[b]). The rows past a
    sequence's length get no gradient.
    """
    t = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 3 or t.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy_logits: incompatible shapes {logits.shape} and {t.shape}")
    B, T = t.shape
    lengths = _check_lengths("cross_entropy_logits", lengths, B, T)
    lg, t = logits.data.reshape(-1, logits.shape[-1]), t.reshape(-1)
    N = t.shape[0]
    m = lg.max(axis=-1, keepdims=True)
    z = lg - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    nll = lse - lg[np.arange(N), t]
    weights = ((np.arange(T) < lengths[:, None]) / (lengths[:, None] * B)).reshape(-1).astype(lg.dtype)
    y = np.dot(nll, weights)

    def back(g):
        p = _softmax(lg)
        p[np.arange(N), t] -= 1.0
        _acc(logits, ((g * weights)[:, None] * p).reshape(logits.shape), fresh=True)

    return _make(y, (logits,), "cross_entropy_logits", back)


def mse(a: DiffArray, b: DiffArray, lengths) -> DiffArray:
    """Mean squared error over a zero-padded batch: a and b (B, T, d), with per-sequence `lengths` (B,).

    The loss is the mean over sequences of each one's own mean over its
    first lengths[b] rows, formed as one sum with each row's squared error
    weighted 1 / (B * lengths[b] * d). The rows past a sequence's length
    get no gradient.
    """
    if a.shape != b.shape or a.data.ndim != 3:
        raise ShapeError(f"mse: incompatible shapes {a.shape} and {b.shape}; need two (B, T, d) batches")
    B, T, d = a.shape
    lengths = _check_lengths("mse", lengths, B, T)
    diff = a.data - b.data
    weights = ((np.arange(T) < lengths[:, None]) / (lengths[:, None] * B * d)).astype(diff.dtype)
    y = np.dot(np.add.reduce(diff * diff, axis=-1).reshape(-1), weights.reshape(-1))
    scale = 2.0 * weights[:, :, None]

    def back(g):
        d = (g * scale) * diff
        _acc(a, d, fresh=True)
        _acc(b, -d, fresh=True)

    return _make(y, (a, b), "mse", back)


# ---------------------------------------------------------------------------
# optimizer


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8

# Elements per block of an Adam update: its 14 elementwise passes over a block then stay in cache,
# where over a whole d=320 tensor (up to millions of elements) each pass streams memory. The blocks
# cut every parameter's elements laid end to end, so small tensors share a block's 14 numpy calls:
# the d=64 model's 101 tensors (0.56M elements) take 9 blocks. Its whole update, inline, medians on
# a 2-core x86-64 VM: blocks of 8K elements 2.38 ms, 16K 2.03, 32K 1.91, 64K 1.85, 128K 1.94,
# 512K 2.40.
_ADAM_BLOCK = 1 << 16


class AdamState:
    """Adam's first and second moments for one params dict (name -> DiffArray), and the shared step count.

    The parameters' moments lie end to end, in params order, in the flat
    buffers `m_flat` and `v_flat`; `m[name]` and `v[name]` are views of
    parameter `name`'s slots in its shape. `blocks` cuts the flat range in
    `_ADAM_BLOCK` blocks (lo, hi, pieces): piece (i, a, b, at) is the i-th
    parameter's flat elements a:b, at offset `at` of the block.
    """

    def __init__(self, params: dict):
        dtypes = {p.data.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"AdamState: parameters of more than one dtype ({', '.join(sorted(map(str, dtypes)))})")
        self.params = params
        self.step = 0
        sizes = [p.data.size for p in params.values()]
        ends = np.cumsum([0] + sizes).tolist()
        self.m_flat, self.v_flat = (np.zeros(ends[-1], dtype=next(iter(dtypes), np.float32)) for _ in range(2))
        self.m, self.v = ({name: flat[lo:hi].reshape(p.data.shape)
                           for (name, p), lo, hi in zip(params.items(), ends, ends[1:])}
                          for flat in (self.m_flat, self.v_flat))
        self.blocks = [(lo, min(lo + _ADAM_BLOCK, ends[-1]), []) for lo in range(0, ends[-1], _ADAM_BLOCK)]
        at = 0  # the flat position reached
        for i, size in enumerate(sizes):
            a = 0
            while a < size:
                lo, hi, pieces = self.blocks[at // _ADAM_BLOCK]
                b = min(size, a + hi - at)
                pieces.append((i, a, b, at - lo))
                at, a = at + b - a, b


def _adam_update(g, m, v, t1, t2, b1, b2, c1, c2, lr, eps) -> None:
    """In place: the moment updates of v and m, then the step lr * (m / c1) / (sqrt(v / c2) + eps) into t1.

    t1 and t2 are scratch of g's shape; t1 may be g itself, which the m
    update reads last. The operations and their order within each moment
    and the step are those of the plain array expressions, so every
    rounding is theirs too.
    """
    v *= b2
    np.multiply(g, g, out=t2)
    t2 *= 1.0 - b2
    v += t2
    m *= b1
    np.multiply(g, 1.0 - b1, out=t1)
    m += t1
    np.divide(m, c1, out=t1)
    t1 *= lr
    np.divide(v, c2, out=t2)
    np.sqrt(t2, out=t2)
    t2 += eps
    t1 /= t2


# Parameter elements from which `adam_step` updates the second half of its blocks on the worker
# thread. Whole model, inline | split, medians of 5 alternations of 20 steps on a 2-core x86-64 VM:
# d=64 (0.56M elements) 2.29 | 2.08 ms, d=128 (1.55M) 5.25 | 4.03, d=192 (3.18M) 10.99 | 7.82,
# d=320 (8.32M) 32.2 | 23.1; in one run of three, the VM's other CPU busy, only d=320 gained. A
# cut-off below d=128's count would need its own end-to-end measurement; the benchmark has no such
# width.
_ADAM_WORKER_ELEMENTS = 2_000_000


def _adam_updates(blocks, datas, grads, m, v, consts) -> None:
    """Adam's update of each block: its gradient pieces gathered into scratch, then its step subtracted back.

    `datas` and `grads` are the parameters' and gradients' flat arrays by
    tensor index, a gradient None for zeros; `m` and `v` the flat moments.
    """
    g, t = (np.empty(_ADAM_BLOCK, dtype=m.dtype) for _ in range(2))
    for lo, hi, pieces in blocks:
        for i, a, b, at in pieces:
            if grads[i] is None:
                g[at:at + b - a] = 0
            else:
                g[at:at + b - a] = grads[i][a:b]
        n = hi - lo
        _adam_update(g[:n], m[lo:hi], v[lo:hi], g[:n], t[:n], *consts)
        for i, a, b, at in pieces:
            p = datas[i][a:b]
            np.subtract(p, g[at:at + b - a], out=p)


def adam_step(params: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over `params` (name -> DiffArray), the dict `state` was built on.

    Missing grads count as zero. A shape that does not match, a parameter
    without a flat view (a transposed one) or a non-finite gradient, in the
    state's dtype, rejects the whole step, naming the first such parameter,
    before touching parameters or state. The update runs over the state's
    blocks; with at least `_ADAM_WORKER_ELEMENTS` elements in all, the
    worker thread updates the second half of them while the caller updates
    the first. Every element's update is the same either way.
    """
    if lr <= 0:
        raise ValueError(f"adam_step: lr must be positive, got {lr}")
    if params is not state.params:
        raise ValueError("adam_step: params is not the dict its AdamState was built on")
    datas, grads, dtype = [], [], state.m_flat.dtype
    with np.errstate(over="ignore"):  # an overflowing sum or cast is checked, not warned about
        for name, p in params.items():
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ShapeError(f"adam_step: grad shape {g.shape} does not match parameter '{name}' {p.data.shape}")
            if p.data.shape != state.m[name].shape:
                raise ShapeError(f"adam_step: parameter '{name}' is {p.data.shape}, its Adam state {state.m[name].shape}")
            if not p.data.flags.c_contiguous:
                raise ValueError(f"adam_step: parameter '{name}' has no flat view (it is not C-contiguous)")
            datas.append(p.data.reshape(-1))
            if g is not None:
                g = g.reshape(-1)
                if g.dtype != dtype:
                    g = g.astype(dtype)
                if not math.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
                    raise ValueError(f"adam_step: non-finite gradient for parameter '{name}'")
            grads.append(g)
    t = state.step + 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    args = (datas, grads, state.m_flat, state.v_flat, (b1, b2, 1.0 - b1 ** t, 1.0 - b2 ** t, lr, _ADAM_EPSILON))
    if state.m_flat.size >= _ADAM_WORKER_ELEMENTS:
        half = len(state.blocks) // 2
        with beside(_adam_updates, state.blocks[half:], *args):
            _adam_updates(state.blocks[:half], *args)
    else:
        _adam_updates(state.blocks, *args)
    state.step = t


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Cosine decay from lr_max at step 0 to lr_min at total_steps."""
    if not (lr_max >= lr_min > 0):
        raise ValueError(f"cosine_lr: need lr_max >= lr_min > 0, got {lr_max}, {lr_min}")
    if step < 0:
        raise ValueError(f"cosine_lr: negative step {step}")
    if step >= total_steps:
        return lr_min
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


def global_grad_norm(params: dict) -> float:
    """L2 norm over all grads: one dot product per gradient, in its own dtype.

    A gradient whose sum of squares overflows its dtype while every entry is
    finite (float32 entries near 1e20) is summed again in float64, so only a
    non-finite entry gives a non-finite norm.
    """
    total = 0.0
    with np.errstate(over="ignore"):  # an overflowing sum is handled, not warned about
        for p in params.values():
            if p.grad is not None:
                g = p.grad.reshape(-1)
                sq = float(np.dot(g, g))
                if not math.isfinite(sq) and np.all(np.isfinite(g)):
                    g = g.astype(np.float64)
                    sq = float(np.dot(g, g))
                total += sq
    return math.sqrt(total)


def clip_grads(params: dict, max_norm: float) -> float:
    """Scale all grads so the global norm is at most max_norm; returns the norm.

    A non-finite norm leaves the grads as they are for the caller to reject.
    """
    norm = global_grad_norm(params)
    if math.isfinite(norm) and norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
