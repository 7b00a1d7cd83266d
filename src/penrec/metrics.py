"""Recognition metrics: CER, WER, and the character accuracy/correct rates.

All four reduce to minimal-cost edit alignments. Counts are made
deterministic by preferring substitution over deletion over insertion when
costs tie. Aggregation is corpus-level: total edit operations over total
reference length.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AlignmentCounts:
    n_ref: int
    sub: int
    dele: int
    ins: int

    @property
    def distance(self) -> int:
        return self.sub + self.dele + self.ins

    def __add__(self, other: "AlignmentCounts") -> "AlignmentCounts":
        return AlignmentCounts(self.n_ref + other.n_ref, self.sub + other.sub,
                               self.dele + other.dele, self.ins + other.ins)


def edit_align(ref, hyp) -> AlignmentCounts:
    """Minimal unit-cost alignment between two symbol sequences.

    A deletion consumes a reference symbol, an insertion consumes a
    hypothesis symbol. Ties are broken greedily from the start of the
    strings, preferring substitution, then deletion, then insertion; the
    distance is unaffected but the operation split becomes deterministic.
    """
    n, m = len(ref), len(hyp)
    # dp[j] = (cost, sub, dele, ins) aligning ref[i:] with hyp[j:]
    nxt = [(m - j, 0, 0, m - j) for j in range(m + 1)]
    for i in range(n - 1, -1, -1):
        cur = [None] * m + [(n - i, 0, n - i, 0)]
        for j in range(m - 1, -1, -1):
            diag = nxt[j + 1]
            if ref[i] == hyp[j]:
                cur[j] = diag
                continue
            best = (diag[0] + 1, diag[1] + 1, diag[2], diag[3])
            down = nxt[j]
            if down[0] + 1 < best[0]:
                best = (down[0] + 1, down[1], down[2] + 1, down[3])
            right = cur[j + 1]
            if right[0] + 1 < best[0]:
                best = (right[0] + 1, right[1], right[2], right[3] + 1)
            cur[j] = best
        nxt = cur
    cost, sub, dele, ins = nxt[0]
    assert cost == sub + dele + ins
    return AlignmentCounts(n_ref=n, sub=sub, dele=dele, ins=ins)


def _counts(refs, hyps, split, name: str) -> AlignmentCounts:
    """Corpus totals of aligning each pair split into units; refuses an empty reference corpus."""
    if len(refs) != len(hyps):
        raise ValueError(f"got {len(refs)} references but {len(hyps)} hypotheses")
    total = AlignmentCounts(0, 0, 0, 0)
    for r, h in zip(refs, hyps):
        total = total + edit_align(split(r), split(h))
    if total.n_ref == 0:
        raise ValueError(f"{name}: empty reference corpus")
    return total


def _words(text: str) -> list[str]:
    return text.split(" ")


def _ar_cr(total: AlignmentCounts) -> tuple[float, float]:
    n = total.n_ref
    return (n - total.dele - total.sub - total.ins) / n, (n - total.dele - total.sub) / n


def cer(refs, hyps) -> float:
    """Character error rate over the corpus: edits / reference characters."""
    total = _counts(refs, hyps, list, "cer")
    return total.distance / total.n_ref


def wer(refs, hyps) -> float:
    """Word error rate; words are split on single spaces."""
    total = _counts(refs, hyps, _words, "wer")
    return total.distance / total.n_ref


def ar_cr(refs, hyps) -> tuple[float, float]:
    """Character accuracy rate and correct rate.

    With N total reference characters: CR = (N - del - sub) / N ignores
    insertions; AR = (N - del - sub - ins) / N charges them.
    """
    return _ar_cr(_counts(refs, hyps, list, "ar_cr"))


def report(refs, hyps) -> dict:
    """The JSON evaluation record: cer/wer/ar/cr plus corpus sizes.

    Each pair is aligned once by characters and once by words.
    """
    chars = _counts(refs, hyps, list, "report")
    words = _counts(refs, hyps, _words, "report")
    ar, cr = _ar_cr(chars)
    return {
        "cer": chars.distance / chars.n_ref,
        "wer": words.distance / words.n_ref,
        "ar": ar,
        "cr": cr,
        "n_sequences": len(refs),
        "n_chars": chars.n_ref,
    }
