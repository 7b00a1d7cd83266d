"""Attention-based autoregressive GRU decoder, one code path for both streams.

Each step embeds the previous token, attends over the encoded frames with
one head (learned q/k projections, the frames themselves as values),
advances a GRU cell, and projects to vocabulary logits. `ad.attention_gru`
runs the attention and the GRU of all steps as one graph node; the keys
depend only on the frames, so `keys` computes them once per batch.
Training uses teacher forcing, which knows every step's previous token up
front, so a whole batch of lines runs in one kernel call: `ce_loss` pads
the targets to the longest, and the kernel masks each line's padding frames
and steps. Greedy inference learns each input only from the previous
argmax, so each line runs `ad.greedy_attention_gru`: the kernel's own
steps on a batch of one, each argmax fed back, with no graph node.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import DiffArray
from .data import EOS, FRAME, MAX_POINTS, PAD, SOS
from .layers import Linear, ParamStore

MAX_DECODE_LEN = 256  # tokens a greedy decode emits at most when no eos comes
# the largest cap `eval` and `infer` take: one token per frame of a line of MAX_POINTS points
MAX_DECODE_CEILING = MAX_POINTS // FRAME


class AttentionDecoder:
    def __init__(self, store: ParamStore, name: str, vocab_size: int, d: int):
        self.store = store
        self.vocab_size = vocab_size
        self.d = d
        self.embed = store.new(f"{name}.embed", (vocab_size, d), f"uniform:{1.0 / math.sqrt(d)}")
        self.wq = store.new(f"{name}.wq", (d, d), "glorot")
        self.wk = store.new(f"{name}.wk", (d, d), "glorot")
        # the GRU cell's packed [r | z | n] gate weights, in `ad.attention_gru`'s argument order
        u = f"uniform:{1.0 / math.sqrt(d)}"
        w_x = store.new(f"{name}.gru.w_x", (d, 3 * d), u)
        w_h = store.new(f"{name}.gru.w_h", (d, 3 * d), u)
        b_x = store.new(f"{name}.gru.b_x", (3 * d,), "zeros")
        b_h = store.new(f"{name}.gru.b_h", (3 * d,), "zeros")
        self.gru = (w_x, b_x, w_h, b_h)
        self.out = Linear(store, f"{name}.out", d, vocab_size)

    def initial_state(self) -> DiffArray:
        return self.store.const(np.zeros((1, self.d)))

    def keys(self, f_enc: DiffArray) -> DiffArray:
        """Attention keys (B, frames, d) of a batch's encoded frames, shared by all their steps."""
        if f_enc.data.ndim != 3 or f_enc.shape[1] < 1:
            raise ValueError(f"decoder needs a nonempty encoded batch (B, frames, d), got {f_enc.shape}")
        return ad.matmul(f_enc, self.wk)

    def _run(self, prev_ids, state: DiffArray, f_enc: DiffArray, keys: DiffArray, lengths, frames,
             attn_sink: list | None = None) -> tuple[DiffArray, DiffArray]:
        """Logits (B, T, V) and states (B, T, d) of a batch fed `prev_ids` (B, T), starting from `state`.

        f_enc and keys are (B, frames, d); `lengths` and `frames` are
        `attention_gru`'s.
        """
        ids = np.asarray(prev_ids, dtype=np.intp)
        bad = ids[(ids < 0) | (ids >= self.vocab_size)]
        if bad.size:
            raise ValueError(f"token {bad[0]} out of vocabulary (size {self.vocab_size})")
        ys = ad.gather_rows(self.embed, ids)
        states = ad.attention_gru(ys, state, self.wq, keys, f_enc, *self.gru, lengths, frames, attn_sink)
        return self.out(states), states

    def greedy(self, f_enc: DiffArray, max_len: int = MAX_DECODE_LEN) -> list[int]:
        """Greedy decode of one line's encoded frames, a batch of one (1, frames, d), from sos.

        Stops at eos or after max_len tokens. Every other argmax, PAD and
        SOS included, is appended to the ids and fed back as the next input;
        only `Vocabulary.decode` drops the reserved ids. The loop, with no
        graph, is `ad.greedy_attention_gru`.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        if f_enc.shape[0] != 1:
            raise ValueError(f"greedy decodes a batch of one line, got encoded frames {f_enc.shape}")
        with ad.no_grad():
            keys = self.keys(f_enc)
        return ad.greedy_attention_gru(self.embed, self.wq, keys, f_enc, *self.gru, self.out.w, self.out.b,
                                       SOS, EOS, max_len)

    def sequence_logits(self, f_enc: DiffArray, targets: list, frames) -> DiffArray:
        """Teacher-forced logits (B, L, V) of a batch: per line sos, then each target token, fed in.

        f_enc and `frames` are as `ce_loss` takes them; L is the longest
        target's length, and a line's rows past its own target are padding.
        """
        prev, lengths = _padded([[SOS, *target][:len(target)] for target in targets])
        logits, _ = self._run(prev, self.initial_state(), f_enc, self.keys(f_enc), lengths, frames)
        return logits

    def ce_loss(self, f_enc: DiffArray, targets: list, frames) -> DiffArray:
        """Mean per-step cross entropy of a batch of lines; each target must end with eos.

        f_enc (B, T, d) holds line b's encoded frames in its first frames[b]
        rows, and `targets` holds one target per line. Teacher forcing runs
        every line to the longest target in one kernel call, and the loss is
        the mean over lines of each line's own mean.
        """
        for target in targets:
            if not target:
                raise ValueError("ce_loss: empty target")
            if target[-1] != EOS:
                raise ValueError("ce_loss: target must end with eos")
        gold, lengths = _padded(targets)
        return ad.cross_entropy_logits(self.sequence_logits(f_enc, targets, frames), gold, lengths)


def _padded(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token rows as one (B, L) array, each padded with PAD to the longest row's length L, and their lengths."""
    lengths = np.array([len(row) for row in rows])
    out = np.full((len(rows), lengths.max()), PAD, dtype=np.intp)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out, lengths
