"""Parameter store and the recurrent/attention building blocks.

Every learnable array is registered under a dotted name whose first segment
identifies its stream ("traj_conv", "img_cnn", "dec_traj", ...); gradient
flow audits, checkpoint manifests, and the inference-isolation checks all
key off those prefixes. The recurrent and attention blocks take a
zero-padded (B, T, d) batch with per-line lengths; a lone line is a batch
of one.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import DiffArray


class ParamStore:
    """Registry of named parameters, created in deterministic order.

    With a generator, `fill` draws every parameter's initial values. Without
    one the store only hands out shapes: `fill` leaves the arrays of `empty`
    uninitialised, for a caller that then writes every parameter itself (a
    checkpoint load). `budget`, when given, is the number of elements `empty`
    may still hand out; a larger request raises ValueError before anything is
    allocated, so a model description cannot claim more memory than that.
    """

    def __init__(self, rng: np.random.Generator | None = None, dtype=np.float32,
                 budget: int | None = None):
        self.rng = rng
        self.dtype = dtype
        self.budget = budget
        self.params: dict[str, DiffArray] = {}

    def new(self, name: str, shape: tuple, init: str = "glorot") -> DiffArray:
        return self.put(name, self.fill(self.empty(shape), init))

    def empty(self, shape: tuple) -> np.ndarray:
        """An uninitialised array of the store's dtype, counted against the budget."""
        if self.budget is not None:
            size = math.prod(shape)
            if size > self.budget:
                raise ValueError(f"parameter of shape {tuple(shape)} needs {size} elements, "
                                 f"{self.budget} are left")
            self.budget -= size
        return np.empty(shape, dtype=self.dtype)

    def fill(self, block: np.ndarray, init: str) -> np.ndarray:
        """Draw initial values of `block`'s shape from the store's generator into `block`.

        Without a generator `block` is left as it is.
        """
        if self.rng is None:
            return block
        shape = block.shape
        if init == "zeros":
            block[...] = 0.0
        elif init == "ones":
            block[...] = 1.0
        elif init == "he":
            fan_in = int(np.prod(shape[:-1])) or 1
            block[...] = self.rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
        elif init == "glorot":
            fan_in = int(np.prod(shape[:-1])) or 1
            limit = math.sqrt(6.0 / (fan_in + shape[-1]))
            block[...] = self.rng.uniform(-limit, limit, size=shape)
        elif init.startswith("uniform:"):
            bound = float(init.split(":", 1)[1])
            block[...] = self.rng.uniform(-bound, bound, size=shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        return block

    def put(self, name: str, values: np.ndarray) -> DiffArray:
        """Register `values`, an array of `empty`, as the parameter `name`."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name}")
        p = ad.array(values, requires_grad=True, dtype=self.dtype)
        self.params[name] = p
        return p

    def const(self, values) -> DiffArray:
        return ad.array(values, dtype=self.dtype)


class Linear:
    """x @ w + b: one `matmul` node, Glorot-initialised weights and a zero bias."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.w = store.new(f"{name}.w", (d_in, d_out))
        self.b = store.new(f"{name}.b", (d_out,), "zeros")

    def __call__(self, x: DiffArray) -> DiffArray:
        return ad.matmul(x, self.w, self.b)


class BiGRUStack:
    """`layers` bidirectional layers, width d in and out: [forward | backward] states, d/2 each.

    Each layer's weights are packed as `ad.bigru` takes them: `w_x` (d, 6H)
    and `b_x` (6H,) hold the forward's gate blocks [r | z | n], then the
    backward's; `w_h` (2H, 3H) the forward's rows, then the backward's;
    `b_h` (6H,) as `b_x`. The weights are drawn as two separate cells would
    draw them (forward w_x, w_h, then backward w_x, w_h, each uniform within
    1/sqrt(H)), each into its block of the packed arrays.
    """

    def __init__(self, store: ParamStore, name: str, d: int, layers: int):
        if d % 2 != 0:
            raise ValueError(f"BiGRU width must be even, got {d}")
        H = d // 2
        u = f"uniform:{1.0 / math.sqrt(H)}"
        self.layers = []  # (w_x, b_x, w_h, b_h) per layer
        for i in range(layers):
            w_x, w_h = store.empty((d, 6 * H)), store.empty((2 * H, 3 * H))
            for block in (w_x[:, :3 * H], w_h[:H], w_x[:, 3 * H:], w_h[H:]):
                store.fill(block, u)
            w_x = store.put(f"{name}.l{i}.w_x", w_x)
            w_h = store.put(f"{name}.l{i}.w_h", w_h)
            b_x = store.new(f"{name}.l{i}.b_x", (6 * H,), "zeros")
            b_h = store.new(f"{name}.l{i}.b_h", (6 * H,), "zeros")
            self.layers.append((w_x, b_x, w_h, b_h))

    def __call__(self, xs: DiffArray, lengths=None) -> DiffArray:
        """A zero-padded batch (B, T, d) with per-sequence `lengths` (B,) -> (B, T, d).

        Without `lengths` no sequence is padded: each fills all T rows.
        """
        # nothing in penrec omits `lengths`; perfbench's traced path does, so the benchmark's next change can drop this
        if lengths is None:
            lengths = np.full(xs.shape[0], xs.shape[-2])
        for weights in self.layers:
            xs = ad.bigru(xs, *weights, lengths=lengths)
        return xs


class TransformerLayer:
    """Pre-norm encoder layer: multi-head self-attention plus a feed-forward of width 2d.

    `attn.w_qkv` (d, 3d) packs the q, k and v projections as column blocks
    [q | k | v], with head j's projection in column block j of each, so one
    matmul gives `ad.attention` its packed input; the concatenated head
    outputs are mixed by one projection. Each block keeps the per-head init
    (uniform within the Glorot limit of a (d, d/heads) block) and is drawn
    in the order q, k, v, as three separate matrices would be.
    """

    def __init__(self, store: ParamStore, name: str, d: int, heads: int):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.heads = heads
        self.ln1_g = store.new(f"{name}.ln1.g", (d,), "ones")
        self.ln1_b = store.new(f"{name}.ln1.b", (d,), "zeros")
        self.ln2_g = store.new(f"{name}.ln2.g", (d,), "ones")
        self.ln2_b = store.new(f"{name}.ln2.b", (d,), "zeros")
        head_glorot = f"uniform:{math.sqrt(6.0 / (d + d // heads))}"
        w_qkv = store.empty((d, 3 * d))
        for i in range(3):
            store.fill(w_qkv[:, i * d:(i + 1) * d], head_glorot)
        self.w_qkv = store.put(f"{name}.attn.w_qkv", w_qkv)
        self.out = Linear(store, f"{name}.attn.out", d, d)
        self.ff1 = Linear(store, f"{name}.ff1", d, 2 * d)
        self.ff2 = Linear(store, f"{name}.ff2", 2 * d, d)

    def __call__(self, x: DiffArray, frames, attn_sink: list | None = None) -> DiffArray:
        """A (B, T, d) batch with per-line `frames` (B,), as `ad.attention` takes them."""
        h = ad.layer_norm(x, self.ln1_g, self.ln1_b)
        ctx = ad.attention(ad.matmul(h, self.w_qkv), self.heads, frames, attn_sink)
        x = ad.add(x, self.out(ctx))
        h2 = ad.layer_norm(x, self.ln2_g, self.ln2_b)
        return ad.add(x, self.ff2(ad.relu(self.ff1(h2))))
