"""Edit-distance metrics against an independent DP oracle, plus properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit_oracle as oracle_counts
from penrec import metrics as M


def test_kitten_sitting_distance_is_3():
    counts = M.edit_align("kitten", "sitting")
    assert counts.distance == 3


def test_identical_strings_align_with_no_edits():
    counts = M.edit_align("abcdef", "abcdef")
    assert (counts.sub, counts.dele, counts.ins) == (0, 0, 0)


def test_empty_hypothesis_is_all_deletions():
    counts = M.edit_align("abcd", "")
    assert counts.dele == 4 and counts.sub == 0 and counts.ins == 0


def test_counts_match_oracle_on_random_pairs():
    rng = random.Random(13)
    for _ in range(300):
        ref = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        hyp = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        counts = M.edit_align(ref, hyp)
        cost, sub, dele, ins = oracle_counts(ref, hyp)
        assert (counts.distance, counts.sub, counts.dele, counts.ins) == (cost, sub, dele, ins), (ref, hyp)


def test_cer_values():
    assert M.cer(["hello"], ["hello"]) == 0.0
    assert M.cer(["hello"], ["helo"]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        M.cer([""], ["x"])


def test_wer_tokenizes_on_spaces():
    assert M.wer(["the cat sat"], ["the cat sat"]) == 0.0
    assert M.wer(["the cat sat"], ["the dog sat"]) == pytest.approx(1 / 3)


def test_ar_cr_distinguish_insertions():
    ar, cr = M.ar_cr(["abc"], ["abc"])
    assert ar == 1.0 and cr == 1.0
    ar, cr = M.ar_cr(["abc"], ["abxc"])
    assert cr == 1.0 and ar == pytest.approx(2 / 3)


@given(st.lists(st.tuples(st.text("abcd", max_size=8), st.text("abcd", max_size=8)),
                min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_ar_never_exceeds_cr(pairs):
    refs = [r for r, _ in pairs]
    hyps = [h for _, h in pairs]
    if sum(len(r) for r in refs) == 0:
        return
    ar, cr = M.ar_cr(refs, hyps)
    assert ar <= cr <= 1.0


@given(st.text("ab", max_size=8), st.text("ab", max_size=8), st.text("ab", max_size=8))
@settings(max_examples=80, deadline=None)
def test_edit_distance_is_a_metric(a, b, c):
    dist = lambda x, y: M.edit_align(x, y).distance
    assert dist(a, a) == 0
    assert dist(a, b) == dist(b, a)
    assert dist(a, c) <= dist(a, b) + dist(b, c)
    if a != b:
        assert dist(a, b) > 0


def test_report_schema():
    rep = M.report(["ab", "cd"], ["ab", "cx"])
    assert set(rep) == {"cer", "wer", "ar", "cr", "n_sequences", "n_chars"}
    assert rep["n_sequences"] == 2 and rep["n_chars"] == 4
    assert rep["cer"] == pytest.approx(0.25)


CORPUS_REFS = ["the cat sat", "abc", "kitten", "a b c d", "xyz"]
CORPUS_HYPS = ["the cot sat down", "abxc", "sitting", "a c d", ""]


def test_report_equals_the_separate_metrics():
    rep = M.report(CORPUS_REFS, CORPUS_HYPS)
    ar, cr = M.ar_cr(CORPUS_REFS, CORPUS_HYPS)
    assert rep == {"cer": M.cer(CORPUS_REFS, CORPUS_HYPS), "wer": M.wer(CORPUS_REFS, CORPUS_HYPS),
                   "ar": ar, "cr": cr, "n_sequences": 5,
                   "n_chars": sum(len(r) for r in CORPUS_REFS)}


def test_report_aligns_each_pair_once_per_unit(monkeypatch):
    calls = []
    real = M.edit_align

    def counting(ref, hyp):
        calls.append((ref, hyp))
        return real(ref, hyp)

    monkeypatch.setattr(M, "edit_align", counting)
    M.report(CORPUS_REFS, CORPUS_HYPS)
    assert len(calls) == 2 * len(CORPUS_REFS)  # once by characters, once by words
