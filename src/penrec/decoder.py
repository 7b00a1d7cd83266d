"""Attention-based autoregressive GRU decoder, one code path for both streams.

Each step embeds the previous token, attends over the encoded frames with
one head (learned q/k projections, the frames themselves as values),
advances a GRU cell, and projects to vocabulary logits. `ad.attention_gru`
runs the attention and the GRU of all steps as one graph node; the keys
depend only on the frames, so `keys` computes them once per sequence.
Training uses teacher forcing, which knows every step's previous token up
front, so the whole target runs in one kernel call; greedy inference calls
the same kernel one step at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import DiffArray
from .data import EOS, SOS
from .layers import Linear, ParamStore


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
        """Attention keys (frames, d) of the encoded sequence, shared by all its steps."""
        if f_enc.shape[0] < 1:
            raise ValueError("decoder needs a nonempty encoded sequence")
        return ad.matmul(f_enc, self.wk)

    def _run(self, prev_ids: list[int], state: DiffArray, f_enc: DiffArray, keys: DiffArray,
             attn_sink: list | None = None) -> tuple[DiffArray, DiffArray]:
        """Logits (T, V) and states (T, d) of T steps fed `prev_ids`, starting from `state`."""
        for tok in prev_ids:
            if not 0 <= tok < self.vocab_size:
                raise ValueError(f"token {tok} out of vocabulary (size {self.vocab_size})")
        ys = ad.gather_rows(self.embed, prev_ids)
        states = ad.attention_gru(ys, state, self.wq, keys, f_enc, *self.gru, attn_sink)
        return self.out(states), states

    def step_logits(self, prev_token: int, state: DiffArray, f_enc: DiffArray, keys: DiffArray,
                    attn_sink: list | None = None) -> tuple[DiffArray, DiffArray]:
        """Logits (1, V) and the new state after `prev_token`; `keys` is `self.keys(f_enc)`."""
        return self._run([prev_token], state, f_enc, keys, attn_sink)

    def greedy(self, f_enc: DiffArray, max_len: int = 256) -> list[int]:
        """Greedy decode from sos; stops at eos or max_len; reserved tokens excluded."""
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        state = self.initial_state()
        prev = SOS
        out: list[int] = []
        with ad.no_grad():
            keys = self.keys(f_enc)
            for _ in range(max_len):
                logits, state = self.step_logits(prev, state, f_enc, keys)
                tok = int(np.argmax(logits.data[0]))
                if tok == EOS:
                    break
                out.append(tok)
                prev = tok
        return out

    def sequence_logits(self, f_enc: DiffArray, target_ids: list[int]) -> DiffArray:
        """Teacher-forced logits, one row per target position."""
        prev_ids = [SOS, *target_ids][:len(target_ids)]
        logits, _ = self._run(prev_ids, self.initial_state(), f_enc, self.keys(f_enc))
        return logits

    def ce_loss(self, f_enc: DiffArray, target_ids: list[int]) -> DiffArray:
        """Mean per-step cross entropy; targets must end with eos."""
        if not target_ids:
            raise ValueError("ce_loss: empty target")
        if target_ids[-1] != EOS:
            raise ValueError("ce_loss: target must end with eos")
        logits = self.sequence_logits(f_enc, target_ids)
        return ad.cross_entropy_logits(logits, target_ids)
