"""The two-stream recognizer.

Training runs the trajectory stream, the image stream, and the alignment
module together; inference touches only the trajectory stream and the
alignment module (parameter prefixes make that auditable). A training batch
runs each line's convolutions, aligner and rendering on their own, then
each stream's BiGRU stack and decoder once over all lines, zero-padded to
the longest. The two streams meet only at the alignment loss, so from width
`_STREAMS_BESIDE_D` a batch's image stream runs on autodiff's worker thread
while the trajectory stream runs on the caller's; both build the nodes and
values they would build one after the other.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .alignment import SpatialAligner, align_loss, merge_features, sample_image_columns
from .autodiff import DiffArray
from .config import AlignConfig, EncoderConfig
from .data import EOS, TrajectorySequence, Vocabulary, render
from .decoder import MAX_DECODE_LEN, AttentionDecoder
from .encoders import FeatureSequence, ImageEncoder, TrajectoryEncoder
from .layers import BiGRUStack, ParamStore

TRAJ_PREFIXES = ("traj_conv.", "traj_gru.", "align.", "dec_traj.")
IMAGE_PREFIXES = ("img_cnn.", "img_gru.", "dec_img.")

# Model width from which `losses` runs a batch's image stream beside its trajectory stream.
# Forward time of 8 lines beside over one after the other, 2-core x86-64 VM (OpenBLAS, one BLAS
# thread), medians of 9, on 2-4 | 6-10 glyph lines: d=64 1.28 | 1.18, d=128 0.99 | 0.98 (1.11 |
# 0.80 in a second run of 21), d=192 0.83 | 0.78 (0.80 | 0.76), d=256 0.73 | 0.76, d=320 0.88 |
# 0.73. Narrower streams are mostly per-node Python work, which two threads cannot do at once.
_STREAMS_BESIDE_D = 192


class Recognizer:
    def __init__(self, enc_cfg: EncoderConfig, align_cfg: AlignConfig,
                 vocab: Vocabulary, seed: int = 0, dtype=np.float32,
                 store: ParamStore | None = None):
        """`store`, if given, replaces the seeded store of `dtype` (a checkpoint
        load passes one that draws nothing)."""
        enc_cfg.validate()
        align_cfg.validate(enc_cfg.d)
        self.enc_cfg = enc_cfg
        self.align_cfg = align_cfg
        self.vocab = vocab
        self.seed = seed
        self.store = store if store is not None else ParamStore(np.random.default_rng(seed), dtype=dtype)
        d = enc_cfg.d
        self.traj_conv = TrajectoryEncoder(self.store, "traj_conv", enc_cfg)
        self.traj_gru = BiGRUStack(self.store, "traj_gru", d, enc_cfg.gru_layers)
        self.aligner = SpatialAligner(self.store, "align", d, align_cfg)
        self.img_cnn = ImageEncoder(self.store, "img_cnn", enc_cfg)
        self.img_gru = BiGRUStack(self.store, "img_gru", d, enc_cfg.gru_layers)
        self.dec_traj = AttentionDecoder(self.store, "dec_traj", vocab.size, d)
        self.dec_img = AttentionDecoder(self.store, "dec_img", vocab.size, d)

    @property
    def params(self) -> dict[str, DiffArray]:
        return self.store.params

    # ----- trajectory stream -------------------------------------------------

    def trajectory_features(self, seq: TrajectorySequence) -> tuple[DiffArray, FeatureSequence, DiffArray | None]:
        """conv stack -> optional alignment -> merge -> BiGRU.

        Returns (encoded frames for the decoder, the conv FeatureSequence,
        and the aligned features or None when the module is disabled).
        """
        f_conv = self.traj_conv(seq)
        f_aligned = self.aligner(f_conv) if self.align_cfg.enabled else None
        f_enc = self.traj_gru(merge_features(f_conv.values, f_aligned))
        return f_enc, f_conv, f_aligned

    def infer_ids(self, seq: TrajectorySequence, max_len: int = MAX_DECODE_LEN) -> list[int]:
        """Single-stream inference; never touches image-stream parameters."""
        with ad.no_grad():
            f_enc, _, _ = self.trajectory_features(seq)
            return self.dec_traj.greedy(f_enc, max_len=max_len)

    def infer_text(self, seq: TrajectorySequence, max_len: int = MAX_DECODE_LEN) -> str:
        return self.vocab.decode(self.infer_ids(seq, max_len=max_len))

    # ----- collaborative training losses -------------------------------------

    def image_losses(self, batch: list[TrajectorySequence],
                     targets: list[list[int]]) -> tuple[list[DiffArray], DiffArray]:
        """Image stream of a batch: render -> CNN per line, then one BiGRU and one CE over all lines.

        Returns (each line's CNN features, the CE loss averaged over lines).
        """
        f2d_conv = [self.img_cnn(render(seq)) for seq in batch]
        frames = [f.shape[0] for f in f2d_conv]
        f2d_gru = self.img_gru(ad.pad_stack(f2d_conv), frames)
        return f2d_conv, self.dec_img.ce_loss(f2d_gru, targets, frames)

    def losses(self, batch: list[TrajectorySequence]) -> dict[str, DiffArray | None]:
        """Loss components of a batch of normalized sequences, each the mean over its lines.

        Each line runs its own trajectory conv stack, aligner and alignment
        loss; each stream then runs its BiGRU stack and decoder once over the
        batch. From width `_STREAMS_BESIDE_D` the image stream runs on the
        worker thread while this one runs the trajectory stream. An error of
        the trajectory stream is raised first, as in sequential order, once
        the image stream has finished. "align" is None when the alignment
        loss is off.
        """
        targets = [self.vocab.encode(seq.text) + [EOS] for seq in batch]
        image = ad.submit(self.image_losses, batch, targets) if self.enc_cfg.d >= _STREAMS_BESIDE_D else None
        try:
            f_conv = [self.traj_conv(seq) for seq in batch]
            f_aligned = [self.aligner(f) if self.align_cfg.enabled else None for f in f_conv]
            frames = [f.values.shape[0] for f in f_conv]
            merged = ad.pad_stack([merge_features(f.values, a) for f, a in zip(f_conv, f_aligned)])
            loss_traj = self.dec_traj.ce_loss(self.traj_gru(merged, frames), targets, frames)
        finally:
            if image is not None:
                image.exception()  # waits
        f2d_conv, loss_img = image.result() if image is not None else self.image_losses(batch, targets)

        loss_align = None
        if self.align_cfg.use_align_loss:  # which implies an aligner
            stop_grad = self.align_cfg.use_stop_gradient
            loss_align = functools.reduce(ad.add, [
                align_loss(a, sample_image_columns(f2d, f.positions), stop_grad=stop_grad)
                for a, f2d, f in zip(f_aligned, f2d_conv, f_conv)])
            if len(batch) > 1:
                loss_align = ad.mul(loss_align, 1.0 / len(batch))
        return {"traj": loss_traj, "img": loss_img, "align": loss_align}
