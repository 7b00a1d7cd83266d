"""Command-line surface: exit codes, file outputs, output schemas."""

import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from penrec import autodiff as ad
from penrec.cli import main
from penrec.config import (AlignConfig, ConfigError, EncoderConfig, RunConfig, TrainConfig,
                           align_config_from_dict, encoder_config_from_dict, run_config_from_dict)
from penrec.data import MAX_POINTS, build_vocab, load_dataset, save_dataset
from penrec.decoder import MAX_DECODE_CEILING
from penrec.model import Recognizer
from penrec.synth import synth_generate
from penrec.training import load_checkpoint, save_checkpoint


TINY_CONFIG = {
    "encoder": {"d": 16, "gru_layers": 1},
    "alignment": {"layers": 1, "heads": 2},
    "training": {"batch_size": 4, "epochs": 1, "max_steps": 3, "lr_max": 1e-3,
                 "lr_min": 1e-5, "augment": False, "val_fraction": 0.0, "seed": 0},
}


def write_config(tmp_path, **extra):
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def make_data(tmp_path, n=8, name="train.jsonl", seed=0):
    seqs = synth_generate("abcd", n, np.random.default_rng(seed), length_range=(1, 2))
    path = tmp_path / name
    save_dataset(path, seqs)
    return path


def test_synth_writes_valid_jsonl(tmp_path):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--n", "5", "--vocab", "abc", "--seed", "1", "--out", str(out)]) == 0
    seqs = load_dataset(out)
    assert len(seqs) == 5


def test_synth_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "b04719efd65554925b3cc00d0031df058d57019a2161911271b8b12962407f14"


def test_synth_memory_does_not_grow_with_the_line_count(tmp_path):
    def peak(n):
        tracemalloc.start()
        try:
            assert main(["synth", "--n", str(n), "--seed", "0", "--min-len", "1", "--max-len", "1",
                         "--out", str(tmp_path / f"{n}.jsonl")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # first use: one-time imports and caches
    small, large = peak(20), peak(2000)
    assert len((tmp_path / "2000.jsonl").read_text().splitlines()) == 2000
    assert large <= 2 * small, (small, large)


def test_synth_n_zero_gives_empty_file(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert main(["synth", "--n", "0", "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_synth_negative_count_exits_2_without_writing(tmp_path, capsys):
    out = tmp_path / "neg.jsonl"
    assert main(["synth", "--n", "-1", "--out", str(out)]) == 2
    assert "count" in capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_seed_exits_2_without_writing(tmp_path, capsys):
    out = tmp_path / "neg.jsonl"
    assert main(["synth", "--n", "1", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_unknown_glyph_is_config_error(tmp_path):
    out = tmp_path / "x.jsonl"
    assert main(["synth", "--n", "1", "--vocab", "a!", "--out", str(out)]) == 2


@pytest.mark.parametrize("alphabet,n,length_range,message", [
    ("a!", 1, (1, 2), "no glyph template for '!'"),
    ("ab", -1, (1, 2), "sequence count must be >= 0"),
    ("ab", 1, (3, 2), "bad length range (3, 2)"),
    ("", 1, (1, 2), "empty glyph alphabet"),
    ("ab", 1, (1, 10**20), "lines of up to 100000000000000000000 glyphs requested, at most 100 are allowed"),
], ids=["unknown_glyph", "negative_count", "bad_length_range", "empty_alphabet", "length_beyond_max_glyphs"])
def test_synth_bad_arguments_exit_2_through_a_config_error(tmp_path, capsys, alphabet, n, length_range, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        synth_generate(alphabet, n, np.random.default_rng(0), length_range=length_range)
    out = tmp_path / "x.jsonl"
    assert main(["synth", "--n", str(n), "--vocab", alphabet, "--min-len", str(length_range[0]),
                 "--max-len", str(length_range[1]), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_render_outputs_height_32(tmp_path):
    data = make_data(tmp_path, n=3)
    out_dir = tmp_path / "previews"
    assert main(["render", "--input", str(data), "--out", str(out_dir)]) == 0
    pgms = sorted(out_dir.glob("*.pgm"))
    assert len(pgms) == 3
    for p in pgms:
        header = p.read_bytes().split(b"\n", 3)
        assert header[0] == b"P5"
        width, height = header[1].split()
        assert int(height) == 32 and int(width) % 8 == 0


@pytest.mark.parametrize("ids,message", [
    (["../escaped"], "'../escaped' is not a plain file name"),
    (["a\\b"], "is not a plain file name"),
    ([".."], "'..' is not a plain file name"),
    ([""], "'' is not a plain file name"),
    (["a", "b", "a"], "duplicate id 'a'"),
], ids=["parent_dir", "backslash", "dotdot", "empty", "duplicate"])
def test_render_rejects_unsafe_or_duplicate_ids_before_writing(tmp_path, capsys, ids, message):
    seqs = synth_generate("ab", len(ids), np.random.default_rng(0), length_range=(1, 1))
    for seq, seq_id in zip(seqs, ids):
        seq.id = seq_id
    data = tmp_path / "in.jsonl"
    save_dataset(data, seqs)
    out_dir = tmp_path / "sub" / "previews"
    assert main(["render", "--input", str(data), "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.jsonl"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"),
                 "--data", "x", "--out", str(tmp_path)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    data = make_data(tmp_path)
    for key, value in (("surprise", 1), ("val_data", "val.jsonl")):
        path = write_config(tmp_path, **{key: value})
        code = main(["train", "--config", str(path), "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value,message", [
    ("encoder", "d", "64", 'encoder.d: expected int, got "64"'),
    ("training", "batch_size", 2.5, "training.batch_size: expected int, got 2.5"),
    ("training", "augment", 1, "training.augment: expected bool, got 1"),
    ("training", "max_steps", True, "training.max_steps: expected int | None, got true"),
    ("encoder", "conv1d_spec", [[8, 3, 1]] * 5 + [[16, 3, "2"]], "encoder: unknown keys ['conv1d_spec']"),
    ("training", "seed", -1, "seed must be >= 0"),
    ("training", "grad_clip", 2 ** 1024, "training.grad_clip: expected float, got 1797"),
], ids=["d_string", "batch_size_float", "augment_int", "max_steps_bool", "conv1d_spec_string", "seed_negative",
        "grad_clip_beyond_double"])
def test_mistyped_config_value_exits_2(tmp_path, capsys, section, key, value, message):
    data = make_data(tmp_path)
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_model_larger_than_physical_memory_exits_2_before_allocating_it(tmp_path, capsys):
    data = make_data(tmp_path)
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["encoder"]["d"] = 800_000_000
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "parameter of shape (1, 3, 256, 800000000) needs 614400000000 elements" in capsys.readouterr().err
    assert peak < 16 * 2**20
    assert not (tmp_path / "run").exists()


def test_lines_too_long_for_a_training_step_in_physical_memory_exit_2_before_any_step(tmp_path, capsys,
                                                                                      monkeypatch):
    import penrec.training as T
    # eight lines of MAX_POINTS points, 4,096 px wide once normalized: a d=320 step would need about 4.6 GB
    xs = np.linspace(0.0, 16384.0, MAX_POINTS)
    points = np.column_stack([xs, 16.0 + 14.0 * np.sin(xs / 30.0), np.ones(MAX_POINTS)]).tolist()
    data = tmp_path / "long.jsonl"
    data.write_text("".join(json.dumps({"id": f"l{i}", "points": points, "text": "abc"}) + "\n" for i in range(8)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"training": {"batch_size": 8, "max_steps": 1, "val_fraction": 0.0}}))
    monkeypatch.setattr(T, "_physical_bytes", lambda: 4 << 30)
    tracemalloc.start()
    try:
        code = main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "more than the 4.0 GB of physical memory" in capsys.readouterr().err
    assert peak < 256 * 2**20  # the d=320 model and the lines, not a step's activations
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section,key", [
    ("training", "align_weight"), ("training", "grad_clip"), ("training", "augment_magnitude"),
    ("training", "lr_max"), ("training", "lr_min"), ("training", "augment_fraction"),
    ("training", "val_fraction"),
])
def test_non_finite_config_float_exits_2(tmp_path, capsys, section, key, value):
    # Python's json reads NaN and Infinity; a NaN align_weight would otherwise end as a divergence (exit 3)
    data = make_data(tmp_path)
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{section}.{key}: expected float, got {json.dumps(value)}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def config_documents():
    """TINY_CONFIG with up to three fields, sections or top-level keys set to arbitrary JSON values."""
    sections = {"encoder": EncoderConfig, "alignment": AlignConfig, "training": TrainConfig}
    targets = [(sec, f.name) for sec, cls in sections.items() for f in dataclasses.fields(cls)]
    targets += [(sec, "bogus") for sec in sections]
    targets += [(None, key) for key in [*sections, "train_data", "out_dir", "bogus"]]
    # bare numbers and the non-finite floats come up as often as any other JSON tree
    values = (st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(allow_nan=True, allow_infinity=True)
              | st.integers(-2, 400) | json_values())

    def build(edits):
        doc = json.loads(json.dumps(TINY_CONFIG))
        for (sec, key), value in edits:
            if sec is None:
                doc[key] = value
            elif isinstance(doc.get(sec), dict):
                doc[sec][key] = value
        return doc

    return st.lists(st.tuples(st.sampled_from(targets), values), max_size=3).map(build)


def test_a_run_config_has_the_22_settable_values_the_readme_lists():
    # a new knob must change this count and README's list together
    def settable(cfg):
        return sum(settable(v) if dataclasses.is_dataclass(v) else 1
                   for v in (getattr(cfg, f.name) for f in dataclasses.fields(cfg)))

    assert settable(RunConfig()) == 22


@given(raw=config_documents() | json_values())
@settings(max_examples=300, deadline=None)
def test_run_config_from_dict_gives_a_config_or_a_config_error(raw):
    try:
        cfg = run_config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for part in (cfg.encoder, cfg.alignment, cfg.training):
        for f in dataclasses.fields(part):
            value = getattr(part, f.name)
            if isinstance(value, float):
                assert math.isfinite(value), f.name


@pytest.mark.parametrize("section,key,value", [
    ("encoder", "conv1d_spec", None), ("encoder", "cnn2d_blocks", 1), ("alignment", "ff_mult", 2),
    ("alignment", "rope_base", 10000.0), ("training", "max_decode_len", 256),
])
def test_removed_config_key_exits_2(tmp_path, capsys, section, key, value):
    # these five became constants; a config that still sets one, even to its old default, is refused
    data = make_data(tmp_path)
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(path), "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{section}: unknown keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_float_field_accepts_int():
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["training"].update(lr_max=1, lr_min=1, align_weight=3)
    cfg = run_config_from_dict(doc)
    assert (cfg.training.lr_max, cfg.training.align_weight) == (1, 3)


def test_train_eval_infer_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(run), "--quiet"]) == 0
    capsys.readouterr()
    ckpt = run / "model.ckpt"
    assert ckpt.exists() and (run / "train_log.jsonl").exists()

    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert set(rep) == {"cer", "wer", "ar", "cr", "n_sequences", "n_chars"}
    assert rep["n_sequences"] == 8

    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8


def test_infer_max_len_below_one_exits_2_before_decoding(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    run = tmp_path / "run"
    main(["train", "--config", str(config), "--data", str(data), "--out", str(run), "--quiet"])
    capsys.readouterr()
    import penrec.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be loaded or decoded")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    assert main(["infer", "--checkpoint", str(run / "model.ckpt"), "--input", str(data),
                 "--max-len", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-len" in captured.err


def test_eval_empty_dataset_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    run = tmp_path / "run"
    main(["train", "--config", str(config), "--data", str(data), "--out", str(run), "--quiet"])
    capsys.readouterr()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--data", str(empty)]) == 2


def test_eval_max_len_below_one_exits_2_before_loading(tmp_path, capsys, monkeypatch):
    import penrec.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be loaded or decoded")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--data", str(tmp_path / "none.jsonl"),
                 "--max-len", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-len" in captured.err


@pytest.mark.parametrize("max_len", [MAX_DECODE_CEILING + 1, 100_000_000])
@pytest.mark.parametrize("command", ["eval", "infer"])
def test_max_len_above_the_ceiling_exits_2_before_loading(tmp_path, capsys, monkeypatch, command, max_len):
    # greedy decodes one token per step until eos or the cap, so an unbounded cap is a hang, not a result
    import penrec.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be loaded or decoded")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    source = "--data" if command == "eval" else "--input"
    assert main([command, "--checkpoint", str(tmp_path / "none.ckpt"), source, str(tmp_path / "none.jsonl"),
                 "--max-len", str(max_len)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--max-len must be from 1 to {MAX_DECODE_CEILING}" in captured.err


def test_max_len_ceiling_is_one_token_per_frame_of_the_longest_line():
    import penrec.cli as cli

    assert MAX_DECODE_CEILING == MAX_POINTS // 8 == 1024
    cli._check_max_len(MAX_DECODE_CEILING)  # the ceiling itself is taken


def write_textless_data(tmp_path, n=10):
    """Synthetic lines whose transcripts are all empty."""
    seqs = synth_generate("abcd", n, np.random.default_rng(0), length_range=(1, 2))
    path = tmp_path / "textless.jsonl"
    save_dataset(path, [dataclasses.replace(s, text="") for s in seqs])
    return path


def test_train_refuses_a_validation_split_without_reference_characters(tmp_path, capsys):
    config = write_config(tmp_path, training={**TINY_CONFIG["training"], "val_fraction": 0.2})
    run = tmp_path / "run"
    code = main(["train", "--config", str(config), "--data", str(write_textless_data(tmp_path)),
                 "--out", str(run), "--quiet"])
    assert code == 2
    assert "validation split (2 lines) has no reference characters" in capsys.readouterr().err
    assert not run.exists()  # refused before the first step


def test_eval_refuses_a_corpus_without_reference_characters(tmp_path, capsys):
    ckpt, _ = tiny_checkpoint(tmp_path)
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(write_textless_data(tmp_path))])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "no reference characters" in captured.err


def test_a_program_fault_in_eval_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    # only the typed input errors map to exit 2; a shape fault inside the model propagates
    import penrec.cli as cli
    ckpt, data = tiny_checkpoint(tmp_path)

    def fault(*args, **kwargs):
        raise ad.ShapeError("matmul: inner dimensions differ")

    monkeypatch.setattr(cli, "evaluate", fault)
    with pytest.raises(ad.ShapeError):
        main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])


def test_seeded_trainings_match(tmp_path, capsys):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(tmp_path / name), "--seed", "11", "--quiet"]) == 0
        outs.append((tmp_path / name / "model.ckpt").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_infer_accepts_lines_without_text(tmp_path, capsys):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    run = tmp_path / "run"
    main(["train", "--config", str(config), "--data", str(data), "--out", str(run), "--quiet"])
    capsys.readouterr()
    bare = tmp_path / "bare.jsonl"
    record = {"id": "q", "points": [[0, 0, 1], [10, 10, 1], [20, 5, 1], [30, 12, 1],
                                    [40, 3, 1], [50, 20, 1], [60, 8, 1], [70, 15, 1]]}
    bare.write_text(json.dumps(record) + "\n")
    assert main(["infer", "--checkpoint", str(run / "model.ckpt"), "--input", str(bare)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_non_finite_gradient_exits_3_with_checkpoint(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    run = tmp_path / "run"
    real = ad.backward
    calls = {"n": 0}

    def overflowing(loss):
        # a finite loss whose gradient overflows in one parameter, on the second step
        real(loss)
        calls["n"] += 1
        if calls["n"] == 2:
            node = loss
            while node.parents:
                node = next(p for p in node.parents if p.requires_grad)
            node.grad.flat[0] = np.inf

    monkeypatch.setattr(ad, "backward", overflowing)
    code = main(["train", "--config", str(config), "--data", str(data), "--out", str(run), "--quiet"])
    assert code == 3
    assert "non-finite gradient" in capsys.readouterr().err
    model = load_checkpoint(run / "model.ckpt")
    assert all(np.all(np.isfinite(p.data)) for p in model.params.values())
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--data", str(data)]) == 0


def test_finite_gradient_whose_squares_overflow_float32_is_clipped_not_diverged(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    data = make_data(tmp_path)
    run = tmp_path / "run"
    real = ad.backward
    calls = {"n": 0}

    def huge(loss):
        # on the second step every entry of one parameter's gradient is 1e20, finite but 1e40 squared
        real(loss)
        calls["n"] += 1
        if calls["n"] == 2:
            node = loss
            while node.parents:
                node = next(p for p in node.parents if p.requires_grad)
            node.grad[...] = 1e20

    monkeypatch.setattr(ad, "backward", huge)
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(run), "--quiet"]) == 0
    records = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    second = next(r for r in records if r.get("step") == 2 and "grad_norm" in r)
    assert 1e20 < second["grad_norm"] < math.inf and second["clipped"]
    model = load_checkpoint(run / "model.ckpt")
    assert all(np.all(np.isfinite(p.data)) for p in model.params.values())


def tiny_checkpoint(tmp_path):
    data = make_data(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(Recognizer(encoder_config_from_dict(TINY_CONFIG["encoder"]),
                               align_config_from_dict(TINY_CONFIG["alignment"]),
                               build_vocab(load_dataset(data))), ckpt)
    return ckpt, data


@pytest.mark.parametrize("edit,message", [
    (lambda header: header.update(vocab=None), "vocab"),
    (lambda header: header.pop("manifest"), "manifest"),
    (lambda header: header["manifest"][0].pop("shape"), "manifest entry 0"),
    (lambda header: header.update(version=1), "unsupported version 1"),
    (lambda header: header.update(version=2), "unsupported version 2"),
    (lambda header: header.update(version=3), "unsupported version 3"),
    (lambda header: header.update(version=4), "unsupported version 4"),
    (lambda header: header.update(version=5), "unsupported version 5"),
    (lambda header: header.update(version=5.0), "unsupported version 5.0"),
    (lambda header: header.update(version=6), "unsupported version 6"),
    (lambda header: header["encoder"].update(d="16"), 'encoder.d: expected int, got "16"'),
    (lambda header: header["alignment"].update(use_rope=1), "alignment.use_rope: expected bool"),
    # a missing field is refused, not defaulted: use_rope changes no parameter shape
    (lambda header: header["alignment"].pop("use_rope"), "alignment: missing keys ['use_rope']"),
    (lambda header: header["encoder"].pop("d"), "encoder: missing keys ['d']"),
    (lambda header: header.update(seed=-1), "seed must be a non-negative integer"),
    # a symbol that is not one character: a longer one decoded as two, an empty one as nothing
    (lambda header: header["vocab"].__setitem__(3, "ab"), "vocabulary entries must be single characters, got 'ab'"),
    (lambda header: header["vocab"].__setitem__(3, ""), "vocabulary entries must be single characters, got ''"),
    # keys that version 5 wrote and that are now constants
    (lambda header: header["alignment"].update(rope_base=float("nan")), "alignment: unknown keys ['rope_base']"),
    (lambda header: header["alignment"].update(ff_mult=200000), "alignment: unknown keys ['ff_mult']"),
    (lambda header: header["encoder"].update(cnn2d_blocks=10**18), "encoder: unknown keys ['cnn2d_blocks']"),
    # a model larger than the manifest: the loader's store hands out no more elements than the file holds
    (lambda header: header["encoder"].update(d=160000), "(1, 3, 256, 160000) needs 122880000 elements"),
    (lambda header: header["alignment"].update(layers=10**9), "elements, "),
    (lambda header: header["encoder"].update(gru_layers=10**9), "elements, "),
], ids=["vocab_null", "manifest_missing", "entry_without_shape", "version_1", "version_2", "version_3", "version_4",
        "version_5", "version_5_float", "version_6",
        "encoder_d_string", "alignment_toggle_int", "alignment_use_rope_missing", "encoder_d_missing",
        "seed_negative", "vocab_multichar", "vocab_empty_symbol",
        "alignment_rope_base_nan",
        "ff_mult_huge", "cnn2d_blocks_huge", "d_huge", "alignment_layers_huge", "gru_layers_huge"])
def test_malformed_checkpoint_header_exits_2(tmp_path, capsys, edit, message):
    ckpt, data = tiny_checkpoint(tmp_path)
    header, rest = ckpt.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    edit(doc)
    ckpt.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + rest)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in capsys.readouterr().err
    assert elapsed < 2.0
    assert peak < 16 * 2**20  # the file holds 67 KB of parameters


@pytest.mark.parametrize("prefix,extra,message", [
    (2**33, 0, "payload length 8589934592 bytes does not match"),
    (2**64 - 1, 0, "payload length 18446744073709551615 bytes does not match"),
    (None, 2**40, "truncated payload"),
], ids=["prefix_2e33", "prefix_u64_max", "manifest_and_prefix_past_the_file"])
def test_bad_length_prefix_exits_2(tmp_path, capsys, prefix, extra, message):
    # the prefix is checked against the manifest and the file size before anything is allocated
    ckpt, data = tiny_checkpoint(tmp_path)
    header, rest = ckpt.read_bytes().split(b"\n", 1)
    if extra:
        doc = json.loads(header)
        total = sum(math.prod(m["shape"]) for m in doc["manifest"])
        doc["manifest"].append({"name": "extra", "shape": [extra], "offset": total})
        header, prefix = json.dumps(doc, sort_keys=True).encode(), 4 * (total + extra)
    ckpt.write_bytes(header + b"\n" + struct.pack("<Q", prefix) + rest[8:])
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(data)]) == 2
    assert message in capsys.readouterr().err


def test_bytes_after_the_payload_exit_2(tmp_path, capsys):
    ckpt, data = tiny_checkpoint(tmp_path)
    ckpt.write_bytes(ckpt.read_bytes() + b"\0")
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(data)]) == 2
    assert "1 bytes follow the payload" in capsys.readouterr().err


HUGE_INT = "9" * 5000  # beyond the digit limit of Python's json, which then raises a plain ValueError
DEEP = "[" * 5000 + "]" * 5000  # nested past the recursion limit, where json raises RecursionError


UNDECODABLE = [
    ("config_not_utf8", "invalid JSON"),
    ("dataset_not_utf8", "not UTF-8 text"),
    ("config_huge_int", "invalid JSON"),
    ("dataset_huge_int", "line 9: invalid JSON"),
    ("dataset_point_beyond_double", "line 9: bad points array"),
    ("checkpoint_header_huge_int", "bad header"),
    ("config_deep", "invalid JSON"),
    ("dataset_deep", "line 9: invalid JSON"),
    ("checkpoint_header_deep", "bad header"),
]


@pytest.mark.parametrize("case,message", UNDECODABLE, ids=[case for case, _ in UNDECODABLE])
def test_undecodable_input_exits_2(tmp_path, capsys, case, message):
    config, data = write_config(tmp_path), make_data(tmp_path)
    line = '{"id": "x", "points": [[0, 0, 1], [1, 1, 1]], "text": "a"}\n'
    if case == "config_not_utf8":
        config.write_bytes(config.read_bytes().replace(b'"seed": 0', b'"seed": "\xff"'))
    elif case == "dataset_not_utf8":
        data.write_bytes(data.read_bytes() + line.replace('"a"', '"\xff"').encode("latin-1"))
    elif case == "config_huge_int":
        config.write_text(config.read_text().replace('"max_steps": 3', f'"max_steps": {HUGE_INT}'))
    elif case == "dataset_huge_int":
        data.write_text(data.read_text() + line.replace("[0, 0, 1]", f"[{HUGE_INT}, 0, 1]"))
    elif case == "dataset_point_beyond_double":
        data.write_text(data.read_text() + line.replace("[0, 0, 1]", f"[1{'0' * 400}, 0, 1]"))
    elif case == "config_deep":
        config.write_text(config.read_text().replace('"seed": 0', f'"seed": {DEEP}'))
    elif case == "dataset_deep":
        data.write_text(data.read_text() + line.replace('"a"', DEEP))
    if case.startswith("checkpoint"):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Recognizer(encoder_config_from_dict(TINY_CONFIG["encoder"]),
                                   align_config_from_dict(TINY_CONFIG["alignment"]),
                                   build_vocab(load_dataset(data))), ckpt)
        value = HUGE_INT if case == "checkpoint_header_huge_int" else DEEP
        ckpt.write_bytes(ckpt.read_bytes().replace(b'"seed": 0', f'"seed": {value}'.encode(), 1))
        code = main(["infer", "--checkpoint", str(ckpt), "--input", str(data)])
    else:
        code = main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "infer"])
@pytest.mark.parametrize("record,message", [
    ({"id": None, "points": [["0", "0", "1"], ["1e1", "5", True]]}, "line 9: id must be a string, got null"),
    ({"id": {"k": 1}, "points": [[0, 0, 1], [1, 5, 1]]}, 'line 9: id must be a string, got {"k": 1}'),
    ({"id": "x", "points": [["0", "0", "1"], ["1e1", "5", "1"]]}, "line 9: points must be a list of"),
    ({"id": "x", "points": [[0, 0, 1], [1, 5, True]]}, "line 9: points must be a list of"),
], ids=["id_null", "id_object", "coords_strings", "pen_true"])
def test_values_the_loader_would_coerce_exit_2(tmp_path, capsys, command, record, message):
    ckpt, data = tiny_checkpoint(tmp_path)
    data.write_text(data.read_text() + json.dumps({**record, "text": "a"}) + "\n")
    flag = "--data" if command == "eval" else "--input"
    assert main([command, "--checkpoint", str(ckpt), flag, str(data)]) == 2
    assert message in capsys.readouterr().err


def test_infer_on_a_line_of_more_than_max_points_exits_2_before_decoding(tmp_path, capsys):
    ckpt, data = tiny_checkpoint(tmp_path)
    rows = [[i, i % 7, 1] for i in range(MAX_POINTS + 1)]
    data.write_text(data.read_text() + json.dumps({"id": "long", "points": rows}) + "\n")
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"line 9: {MAX_POINTS + 1} points" in captured.err


@pytest.mark.parametrize("magnitude", [-0.5, 1e308], ids=["negative", "range_beyond_double"])
def test_augment_magnitude_out_of_range_exits_2(tmp_path, capsys, magnitude):
    # 1e308 is a finite double, but the offsets' range [-m, m] is not: numpy's uniform would raise OverflowError
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc["training"].update(augment=True, augment_magnitude=magnitude)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["train", "--config", str(path), "--data", str(make_data(tmp_path)), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "augment_magnitude must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    TrainConfig(augment_magnitude=8e307).validate()  # the widest range that is still finite is accepted


def test_infer_into_a_closed_pipe_exits_1_without_traceback(tmp_path):
    data = make_data(tmp_path, n=40)
    # untrained, so every line decodes to the full --max-len: the reader closes long before the end
    model = Recognizer(encoder_config_from_dict(TINY_CONFIG["encoder"]),
                       align_config_from_dict(TINY_CONFIG["alignment"]),
                       build_vocab(load_dataset(data)))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, ckpt)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "penrec.cli", "infer", "--checkpoint", str(ckpt),
                                 "--input", str(data)], stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        message = err.read()
    assert "Traceback" not in message and "standard output closed" in message
