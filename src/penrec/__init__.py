"""penrec: collaboratively trained two-stream online handwriting recognizer.

Training couples a trajectory stream and an image stream through a
point-to-spatial alignment module; inference runs the trajectory stream
alone. Built on a small hand-rolled reverse-mode array engine so every
gradient path is auditable.

Importing penrec sets OPENBLAS_NUM_THREADS to 1 unless the environment sets
it: OpenBLAS's thread count moves float32 rounding, and its threads compete
with the training worker thread. It takes effect only if numpy was not
imported earlier in the process, since OpenBLAS reads it once, when numpy
loads it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

from .config import ALIGN_VARIANTS, AlignConfig, EncoderConfig, RunConfig, TrainConfig  # noqa: E402
from .data import (TrajectorySequence, Vocabulary, build_vocab, load_dataset, normalize,  # noqa: E402
                   render, save_dataset)
from .model import Recognizer  # noqa: E402
from .synth import synth_generate  # noqa: E402
from .training import evaluate, load_checkpoint, save_checkpoint, train  # noqa: E402

__all__ = [
    "ALIGN_VARIANTS",
    "AlignConfig",
    "EncoderConfig",
    "RunConfig",
    "TrainConfig",
    "TrajectorySequence",
    "Vocabulary",
    "Recognizer",
    "build_vocab",
    "evaluate",
    "load_checkpoint",
    "load_dataset",
    "normalize",
    "render",
    "save_checkpoint",
    "save_dataset",
    "synth_generate",
    "train",
]

__version__ = "0.1.0"
