"""The two-stream recognizer.

Training runs the trajectory stream, the image stream, and the alignment
module together; inference touches only the trajectory stream and the
alignment module (parameter prefixes make that auditable). A training batch
runs every layer once: each conv stack over the batch's lines joined with
zero gaps, then the aligner, each stream's BiGRU stack and its decoder over
the lines zero-padded to the longest, and the alignment loss over the
joined image features. Inference runs a lone line as a batch of one, with no
gap and no mask. The two streams meet only at the alignment loss, so from width
`_STREAMS_BESIDE_D` a batch's image stream runs on autodiff's worker thread
while the trajectory stream runs on the caller's; both build the nodes and
values they would build one after the other.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .alignment import SpatialAligner, align_loss, merge_features, sample_image_columns
from .autodiff import DiffArray
from .config import AlignConfig, EncoderConfig
from .data import EOS, TrajectorySequence, Vocabulary, render
from .decoder import MAX_DECODE_LEN, AttentionDecoder
from .encoders import FeatureSequence, ImageEncoder, Joined, TrajectoryEncoder
from .layers import BiGRUStack, ParamStore

TRAJ_PREFIXES = ("traj_conv.", "traj_gru.", "align.", "dec_traj.")
IMAGE_PREFIXES = ("img_cnn.", "img_gru.", "dec_img.")

# Model width from which `losses` runs a batch's image stream beside its trajectory stream.
# Time of 8 lines beside over one after the other, every layer run once per batch, 2-core
# x86-64 VM (OpenBLAS, one BLAS thread), each setting in its own process, medians of 15 in
# two runs, forward | forward + backward, on 2-4 glyph lines: d=64 1.07 | 1.05, d=128 0.83 |
# 0.93, d=192 0.80 | 0.98, d=256 0.71 | 0.94, d=320 0.70 | 0.96; on 6-10 glyph lines: d=64
# 0.84 | 0.93, d=128 0.70 | 0.87, d=192 0.69 | 0.83, d=256 0.70 | 0.87, d=320 0.70 | 0.87.
# The d=64 forward on short lines, 6 ms, is mostly per-node Python work, which two threads
# cannot do at once.
_STREAMS_BESIDE_D = 128


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
        """conv stack -> optional alignment -> merge -> BiGRU, for one line.

        Returns (encoded frames for the decoder, the conv FeatureSequence,
        and the aligned features or None when the module is disabled).
        """
        f_conv = self.traj_conv(seq)
        f_enc, f_aligned = self._encode(f_conv)
        return f_enc, f_conv, f_aligned

    def _encode(self, f_conv: FeatureSequence) -> tuple[DiffArray, DiffArray | None]:
        """Aligner, merge and BiGRU stack over a lone line's or a batch's conv features."""
        f_aligned = self.aligner(f_conv) if self.align_cfg.enabled else None
        return self.traj_gru(merge_features(f_conv.values, f_aligned), f_conv.frames), f_aligned

    def infer_ids(self, seq: TrajectorySequence, max_len: int = MAX_DECODE_LEN) -> list[int]:
        """Single-stream inference; never touches image-stream parameters."""
        with ad.no_grad():
            f_enc, _, _ = self.trajectory_features(seq)
            return self.dec_traj.greedy(f_enc, max_len=max_len)

    def infer_text(self, seq: TrajectorySequence, max_len: int = MAX_DECODE_LEN) -> str:
        return self.vocab.decode(self.infer_ids(seq, max_len=max_len))

    # ----- collaborative training losses -------------------------------------

    def image_losses(self, batch: list[TrajectorySequence], targets: list[list[int]]) -> tuple[Joined, DiffArray]:
        """Image stream of a batch: render, one CNN over the joined images, one BiGRU and one CE over all lines.

        Returns (the CNN's joined features, the CE loss averaged over lines).
        """
        f2d = self.img_cnn.join([render(seq) for seq in batch])
        f2d_gru = self.img_gru(f2d.padded(), f2d.frames)
        return f2d, self.dec_img.ce_loss(f2d_gru, targets, f2d.frames)

    def losses(self, batch: list[TrajectorySequence]) -> dict[str, DiffArray | None]:
        """Loss components of a batch of normalized sequences, each the mean over its lines.

        Each stream runs once over the batch: the conv stack over the lines
        joined, then the aligner, the BiGRU stack and the decoder over them
        zero-padded to the longest, and the alignment loss samples the joined
        image features. From width `_STREAMS_BESIDE_D` the image stream runs
        on the worker thread while this one runs the trajectory stream. An
        error of the trajectory stream is raised first, as in sequential
        order, once the image stream has finished. "align" is None when the
        alignment loss is off.
        """
        targets = [self.vocab.encode(seq.text) + [EOS] for seq in batch]
        image = ad.submit(self.image_losses, batch, targets) if self.enc_cfg.d >= _STREAMS_BESIDE_D else None
        try:
            f_conv = self.traj_conv.batch(batch)
            f_enc, f_aligned = self._encode(f_conv)
            loss_traj = self.dec_traj.ce_loss(f_enc, targets, f_conv.frames)
        finally:
            if image is not None:
                image.exception()  # waits
        f2d, loss_img = image.result() if image is not None else self.image_losses(batch, targets)

        loss_align = None
        if self.align_cfg.use_align_loss:  # which implies an aligner
            sampled = sample_image_columns(f2d.values, f_conv.positions, f2d.starts, f2d.frames)
            loss_align = align_loss(f_aligned, sampled, self.align_cfg.use_stop_gradient, f_conv.frames)
        return {"traj": loss_traj, "img": loss_img, "align": loss_align}
