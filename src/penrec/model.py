"""The two-stream recognizer.

Training runs the trajectory stream, the image stream, and the alignment
module together; inference touches only the trajectory stream and the
alignment module (parameter prefixes make that auditable). A training batch
runs every layer once: each conv stack over the batch's lines joined with
zero gaps, then the aligner, each stream's BiGRU stack and its decoder over
the lines zero-padded to the longest, and the alignment loss over the
joined image features. Inference runs a lone line as a batch of one, with no
gap and no mask. The two streams meet only at the alignment loss, so from width
`_STREAMS_BESIDE_D` a batch's image stream runs beside its trajectory stream
(`autodiff.beside`: on the worker thread, or first on one CPU); both build
the nodes and values they would build one after the other. The image
stream's loss and the alignment loss's target are then marked as `branch`
nodes: nothing but those two marks reads the stream's nodes, so the
backward pass sweeps the stream beside the rest too, with the alignment
loss's stop gradient or without it.
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

# Model width from which `losses` runs a batch's image stream beside its trajectory stream, and the
# backward pass sweeps it there too. Time of 8 lines beside over one after the other (the backward
# pass then one sweep), every layer run once per batch, 2-core x86-64 VM (OpenBLAS, one BLAS
# thread), each setting in its own process, medians of 15, the larger of two runs, forward |
# forward + backward, on 2-4 glyph lines: d=64 1.06 | 1.01, d=128 0.85 | 0.79, d=192 0.70 | 0.68,
# d=256 0.66 | 0.66, d=320 0.63 | 0.61; on 6-10 glyph lines: d=64 0.92 | 0.86, d=128 0.75 | 0.73,
# d=192 0.63 | 0.64, d=256 0.63 | 0.61, d=320 0.64 | 0.65. The backward gains more than the
# forward: at d=320 on 6-10 glyph lines the forward takes 38.3-38.6 ms against 60.4-61.4 and the
# forward and backward 93.6-95.0 ms against 147.1-149.3.
# Those figures predate the one-node residual blocks and the gate-blocked recurrences. Re-timed
# with them (same recipe, lines from one seed): on 2-4 glyph lines d=64 1.01 | 1.01, d=128
# 0.90 | 0.90; on 6-10 glyph lines d=64 0.93 | 0.90, d=128 0.76 | 0.78.
# The d=64 forward on short lines, 5.5 ms, is mostly per-node Python work, which two threads
# cannot do at once. At d=64 only long lines gain; a lower width would need its own end-to-end
# measurement on the C07 recipe's 2-4 glyph lines.
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

    def _encode(self, f_conv: FeatureSequence) -> tuple[DiffArray, DiffArray | None]:
        """Aligner, merge and BiGRU stack over a batch's conv features.

        Returns the encoded (B, T, d) frames for the decoder, and the aligned
        features or None when the module is disabled.
        """
        f_aligned = self.aligner(f_conv) if self.align_cfg.enabled else None
        return self.traj_gru(merge_features(f_conv.values, f_aligned), f_conv.frames), f_aligned

    def infer_ids(self, seq: TrajectorySequence, max_len: int = MAX_DECODE_LEN) -> list[int]:
        """Single-stream inference of one line, run as a batch of one; never touches image-stream parameters."""
        with ad.no_grad():
            f_enc, _ = self._encode(self.traj_conv.batch([seq]))
            return self.dec_traj.greedy(f_enc, max_len=max_len)

    def infer_text(self, seq: TrajectorySequence, max_len: int = MAX_DECODE_LEN) -> str:
        return self.vocab.decode(self.infer_ids(seq, max_len=max_len))

    # ----- collaborative training losses -------------------------------------

    def trajectory_losses(self, batch: list[TrajectorySequence], targets: list[list[int]]):
        """Trajectory stream of a batch: one conv stack over the joined lines, the aligner, one BiGRU and one CE.

        Returns (the conv features, the aligned features or None, the CE loss averaged over lines).
        """
        f_conv = self.traj_conv.batch(batch)
        f_enc, f_aligned = self._encode(f_conv)
        return f_conv, f_aligned, self.dec_traj.ce_loss(f_enc, targets, f_conv.frames)

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
        beside the trajectory stream (`ad.beside`), and its loss and the
        alignment target sampled from it are marked for its own backward
        sweep (`ad.branch`). An error of the trajectory stream is raised
        first, once the image stream has finished. "align" is None for the
        alignment variants before "align".
        """
        targets = [self.vocab.encode(seq.text) + [EOS] for seq in batch]
        wide = self.enc_cfg.d >= _STREAMS_BESIDE_D
        if wide:
            with ad.beside(self.image_losses, batch, targets) as image:
                f_conv, f_aligned, loss_traj = self.trajectory_losses(batch, targets)
            f2d, loss_img = image.result()
            loss_img = ad.branch(loss_img)
        else:
            f_conv, f_aligned, loss_traj = self.trajectory_losses(batch, targets)
            f2d, loss_img = self.image_losses(batch, targets)

        loss_align = None
        if self.align_cfg.align_loss:
            sampled = sample_image_columns(f2d.values, f_conv.positions, f2d.starts, f2d.frames)
            if wide:
                sampled = ad.branch(sampled)
            loss_align = align_loss(f_aligned, sampled, f_conv.frames, self.align_cfg.stop_gradient)
        return {"traj": loss_traj, "img": loss_img, "align": loss_align}
