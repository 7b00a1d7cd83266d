"""Collaborative loop: loss composition, gradient flow, checkpoints, determinism."""

import hashlib
import json
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradcheck import tiny_model, tiny_sequence
from penrec import autodiff as ad
from penrec.config import (AlignConfig, ConfigError, EncoderConfig, TrainConfig, align_config_from_dict,
                           encoder_config_from_dict)
from penrec.data import MAX_POINTS, MAX_WIDTH, TrajectorySequence, Vocabulary, build_vocab, normalize
from penrec.model import IMAGE_PREFIXES, TRAJ_PREFIXES, Recognizer
from penrec.synth import DEFAULT_ALPHABET, synth_generate
from penrec.training import (CHECKPOINT_VERSION, CheckpointError, DivergenceError, batch_losses, evaluate,
                             load_checkpoint, save_checkpoint, train,
                             zero_image_stream)


def tiny_enc_cfg(d=16):
    return EncoderConfig(d=d, gru_layers=1)


def tiny_train_cfg(**kw):
    base = dict(batch_size=4, epochs=1, max_steps=3, lr_max=1e-3, lr_min=1e-5,
                augment=False, val_fraction=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def small_dataset(n=8, seed=0):
    return synth_generate(DEFAULT_ALPHABET[:4], n, np.random.default_rng(seed),
                          length_range=(1, 2))


# ---------------------------------------------------------------------------
# loss composition


def test_total_loss_is_exact_weighted_sum():
    m = tiny_model()
    batch = [tiny_sequence(np.random.default_rng(i)) for i in range(3)]
    total, comps = batch_losses(m, batch, align_weight=2.0)
    expected = comps["traj"].data + comps["img"].data + 2.0 * comps["align"].data
    assert abs(float(total.data) - float(expected)) <= 1e-6 * abs(float(expected))


def test_batched_weight_gradients_equal_the_sum_of_per_sample_passes():
    # float64: the batched backward forms each weight gradient in one matmul over all samples
    lines = [normalize(s) for s in synth_generate(DEFAULT_ALPHABET[:4], 4, np.random.default_rng(5),
                                                  length_range=(1, 3))]
    m = Recognizer(tiny_enc_cfg(16), AlignConfig(layers=1, heads=2), build_vocab(lines), seed=3,
                   dtype=np.float64)
    params = list(m.params.values())
    total, _ = batch_losses(m, lines, align_weight=2.0)
    ad.zero_grads(params)
    ad.backward(total)
    batched = {name: p.grad.copy() for name, p in m.params.items() if p.grad is not None}
    summed = {name: np.zeros_like(p.data) for name, p in m.params.items()}
    for line in lines:
        single, _ = batch_losses(m, [line], align_weight=2.0)
        ad.zero_grads(params)
        ad.backward(ad.mul(single, 1.0 / len(lines)))
        for name, p in m.params.items():
            if p.grad is not None:
                summed[name] += p.grad
    assert batched.keys() == summed.keys()
    for name, g in batched.items():
        scale = np.abs(summed[name]).max()
        np.testing.assert_allclose(g, summed[name], rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def _isolation_lines():
    """A 1-glyph and an 8-glyph line, a 2-point line, and a line of 24 points, which `pad_to_multiple` leaves as is."""
    glyphs = [normalize(synth_generate(DEFAULT_ALPHABET, 1, np.random.default_rng(k), length_range=(k, k))[0])
              for k in (1, 8)]
    two = normalize(TrajectorySequence("two", np.array([[0.0, 0.0, 1.0], [9.0, 20.0, 1.0]]), "b"))
    base = synth_generate(DEFAULT_ALPHABET, 1, np.random.default_rng(3), length_range=(2, 2))[0]
    whole = normalize(TrajectorySequence("whole", base.points[:24], base.text))
    assert two.length == 2 and whole.length == 24
    return [*glyphs, two, whole]


@pytest.mark.parametrize("order", [(0, 1), (1, 0), (0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2)])
def test_a_batch_leaks_nothing_between_lines_through_padding_or_masks(order):
    # float64: lines batched give the mean of each line alone, so neither the gaps between the
    # joined lines in the conv stacks nor a short line's padding frames, steps and targets reach
    # another line's value or gradient
    lines = _isolation_lines()
    m = Recognizer(tiny_enc_cfg(16), AlignConfig(layers=1, heads=2), build_vocab(lines), seed=4,
                   dtype=np.float64)

    def step(batch):
        total, comps = batch_losses(m, batch, align_weight=2.0)
        ad.zero_grads(m.params.values())
        ad.backward(total)
        values = {"total": float(total.data), **{k: float(v.data) for k, v in comps.items()}}
        return values, {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for n, p in m.params.items()}

    values, grads = step([lines[i] for i in order])
    alone = [step([lines[i]]) for i in order]
    assert values.keys() == {"total", "traj", "img", "align"}
    for key, value in values.items():
        want = sum(a[0][key] for a in alone) / len(order)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12), key
    for name, g in grads.items():
        want = sum(a[1][name] for a in alone) / len(order)
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max()), err_msg=name)


def test_zero_weight_collapses_exactly():
    m = tiny_model()
    batch = [tiny_sequence(np.random.default_rng(9))]
    total, comps = batch_losses(m, batch, align_weight=0.0)
    assert float(total.data) == float(comps["traj"].data + comps["img"].data)
    assert "align" in comps  # still reported, just unweighted


def test_components_recomputed_independently_match():
    m = tiny_model()
    batch = [tiny_sequence(np.random.default_rng(3))]
    total, comps = batch_losses(m, batch, align_weight=2.0)
    again = m.losses([batch[0]])
    assert float(again["traj"].data) == float(comps["traj"].data)
    assert float(again["img"].data) == float(comps["img"].data)
    assert float(again["align"].data) == float(comps["align"].data)


def test_align_component_absent_when_loss_disabled():
    m = tiny_model(use_align_loss=False)
    batch = [tiny_sequence(np.random.default_rng(4))]
    total, comps = batch_losses(m, batch, align_weight=2.0)
    assert "align" not in comps
    assert float(total.data) == float(comps["traj"].data + comps["img"].data)


# ---------------------------------------------------------------------------
# gradient-flow matrix


def _groups_with_signal(model, loss):
    ad.zero_grads(model.params.values())
    ad.backward(loss)
    touched = set()
    for name, p in model.params.items():
        if p.grad is not None and np.any(p.grad != 0):
            touched.add(name.split(".", 1)[0])
    return touched


def test_trajectory_loss_updates_only_its_stream():
    m = tiny_model()
    losses = m.losses([tiny_sequence(np.random.default_rng(5))])
    touched = _groups_with_signal(m, losses["traj"])
    assert touched <= {"traj_conv", "traj_gru", "align", "dec_traj"}
    assert {"traj_conv", "traj_gru", "dec_traj", "align"} <= touched


def test_image_loss_updates_only_its_stream():
    m = tiny_model()
    losses = m.losses([tiny_sequence(np.random.default_rng(6))])
    touched = _groups_with_signal(m, losses["img"])
    assert touched == {"img_cnn", "img_gru", "dec_img"}


def test_align_loss_with_sg_updates_alignment_and_conv_only():
    m = tiny_model()
    losses = m.losses([tiny_sequence(np.random.default_rng(7))])
    touched = _groups_with_signal(m, ad.mul(losses["align"], 2.0))
    assert touched <= {"align", "traj_conv"}
    assert "align" in touched


def test_align_loss_without_sg_reaches_image_encoder():
    m = tiny_model(use_stop_gradient=False)
    losses = m.losses([tiny_sequence(np.random.default_rng(8))])
    touched = _groups_with_signal(m, ad.mul(losses["align"], 2.0))
    assert "img_cnn" in touched
    assert touched <= {"align", "traj_conv", "img_cnn"}


# ---------------------------------------------------------------------------
# ablation toggle structure


ABLATION_ROWS = [
    dict(use_transformer=False, use_rope=False, use_align_loss=False, use_stop_gradient=False),
    dict(use_transformer=True, use_rope=False, use_align_loss=False, use_stop_gradient=False),
    dict(use_transformer=True, use_rope=True, use_align_loss=False, use_stop_gradient=False),
    dict(use_transformer=True, use_rope=True, use_align_loss=True, use_stop_gradient=False),
    dict(use_transformer=True, use_rope=True, use_align_loss=True, use_stop_gradient=True),
]


def test_ablation_rows_parameter_counts():
    counts = []
    for row in ABLATION_ROWS:
        m = tiny_model(**row)
        align_params = sum(p.data.size for n, p in m.params.items() if n.startswith("align."))
        other_params = sum(p.data.size for n, p in m.params.items() if not n.startswith("align."))
        counts.append((align_params, other_params))
    assert counts[0][0] == 0                       # baseline has no module parameters
    assert all(c[0] > 0 for c in counts[1:])
    assert len({c[1] for c in counts}) == 1        # both streams identical across rows
    assert len({c[0] for c in counts[1:]}) == 1


def test_baseline_row_runs_without_alignment():
    m = tiny_model(**ABLATION_ROWS[0])
    losses = m.losses([tiny_sequence(np.random.default_rng(10))])
    assert losses["align"] is None
    touched = _groups_with_signal(m, losses["traj"])
    assert touched == {"traj_conv", "traj_gru", "dec_traj"}


# ---------------------------------------------------------------------------
# training loop


def test_train_smoke_and_log_schema(tmp_path):
    data = small_dataset()
    vocab = build_vocab(data)
    res = train(data, tiny_enc_cfg(), AlignConfig(layers=1, heads=2),
                tiny_train_cfg(), vocab, out_dir=tmp_path / "run")
    step_records = [r for r in res.records if "L_all" in r]
    assert len(step_records) == 3
    for rec in step_records:
        assert set(rec) == {"step", "lr", "L_1d", "L_2d", "L_align", "L_all", "grad_norm", "clipped"}
        assert np.isfinite(rec["L_all"])
        assert np.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0
        assert rec["clipped"] is (rec["grad_norm"] > tiny_train_cfg().grad_clip)
    assert (tmp_path / "run" / "model.ckpt").exists()
    assert (tmp_path / "run" / "train_log.jsonl").exists()


def test_train_saves_once_per_epoch(tmp_path, monkeypatch):
    import penrec.training as T
    saves = []
    real = T.save_checkpoint

    def counted(model, path):
        saves.append(path)
        real(model, path)

    monkeypatch.setattr(T, "save_checkpoint", counted)
    # 8 lines in batches of 4: 3 steps take 2 epochs
    res = T.train(small_dataset(), tiny_enc_cfg(), AlignConfig(layers=1, heads=2), tiny_train_cfg(),
                  build_vocab(small_dataset()), out_dir=tmp_path / "run")
    assert saves == [res.checkpoint_path] * 2
    # the last epoch's save holds the returned parameters
    real(res.model, tmp_path / "final.ckpt")
    assert res.checkpoint_path.read_bytes() == (tmp_path / "final.ckpt").read_bytes()


def long_lines(n):
    """n lines of MAX_POINTS points that normalize to MAX_WIDTH px: the largest a dataset may hold."""
    xs = np.linspace(0.0, 4.0 * MAX_WIDTH, MAX_POINTS)
    pts = np.column_stack([xs, 16.0 + 14.0 * np.sin(xs / 30.0), np.ones(MAX_POINTS)])
    return [TrajectorySequence(id=f"long{i}", points=pts, text="abc") for i in range(n)]


def test_train_refuses_lines_whose_step_would_outgrow_physical_memory(monkeypatch):
    import penrec.training as T

    def no_step(*args):
        raise AssertionError("a training step ran")

    # at d=320 each of these lines needs about 0.57 GB of activations in a step, besides 0.16 GB of parameters
    monkeypatch.setattr(T, "_physical_bytes", lambda: 4 << 30)
    monkeypatch.setattr(T, "batch_losses", no_step)
    lines = long_lines(8)
    cfg = dict(max_steps=1, augment=False, val_fraction=0.0)
    with pytest.raises(ConfigError, match="8 largest lines at d=320 needs about 4.6 GB of activations"):
        train(lines, EncoderConfig(d=320), AlignConfig(), TrainConfig(batch_size=8, **cfg), build_vocab(lines))
    # batches of six of the eight fit: training goes on to its first step
    with pytest.raises(AssertionError, match="a training step ran"):
        train(lines, EncoderConfig(d=320), AlignConfig(), TrainConfig(batch_size=6, **cfg), build_vocab(lines))
    # the estimate grows with d: at d=128 all eight fit
    with pytest.raises(AssertionError, match="a training step ran"):
        train(lines, EncoderConfig(d=128), AlignConfig(), TrainConfig(batch_size=8, **cfg), build_vocab(lines))


def _graph_closures(loss):
    """A weak reference to the backward closure of each node of loss's graph, which lives as long as its node."""
    refs, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node.backward_fn is not None:
            seen.add(id(node))
            refs.append(weakref.ref(node.backward_fn))
            stack.extend(node.parents)
    return refs


@pytest.mark.parametrize("beside", [False, True], ids=["one_thread", "image_stream_on_the_worker"])
def test_train_releases_each_steps_graph_before_the_next_forward(monkeypatch, beside):
    import penrec.model as pm
    import penrec.training as T

    if beside:  # the image stream's forward and backward sweep run on the worker, as from d=128
        monkeypatch.setattr(pm, "_STREAMS_BESIDE_D", 0)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    real, graphs, alive = T.batch_losses, [], []

    def recording(model, batch, align_weight):
        if beside and graphs:
            with ad.beside(lambda: None):  # the worker thread is done with its last task and that task's arguments
                pass
        alive.append(sum(ref() is not None for refs in graphs for ref in refs))
        total, comps = real(model, batch, align_weight)
        graphs.append(_graph_closures(total))
        return total, comps

    monkeypatch.setattr(T, "batch_losses", recording)
    train(small_dataset(), tiny_enc_cfg(), AlignConfig(layers=1, heads=2), tiny_train_cfg(),
          build_vocab(small_dataset()))
    assert len(graphs) == 3 and min(len(refs) for refs in graphs) > 40
    assert alive == [0, 0, 0]


def test_two_seeded_runs_are_byte_identical(tmp_path):
    data = small_dataset()
    vocab = build_vocab(data)
    blobs = []
    for name in ("a", "b"):
        res = train(data, tiny_enc_cfg(), AlignConfig(layers=1, heads=2),
                    tiny_train_cfg(max_steps=4, augment=True, val_fraction=0.25, seed=7),
                    vocab, out_dir=tmp_path / name)
        blobs.append(((tmp_path / name / "model.ckpt").read_bytes(),
                      (tmp_path / name / "train_log.jsonl").read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


def test_divergence_aborts_with_checkpoint(tmp_path, monkeypatch):
    data = small_dataset()
    vocab = build_vocab(data)
    import penrec.training as T

    real = T.batch_losses
    calls = {"n": 0}
    last_good = {}

    def poisoned(model, batch, w):
        calls["n"] += 1
        if calls["n"] == 2:  # the last parameters to give a finite loss
            last_good.update((name, p.data.tobytes()) for name, p in model.params.items())
        total, comps = real(model, batch, w)
        if calls["n"] >= 3:
            total.data = np.float32("nan")
        return total, comps

    monkeypatch.setattr(T, "batch_losses", poisoned)
    with pytest.raises(DivergenceError, match="non-finite"):
        T.train(data, tiny_enc_cfg(), AlignConfig(layers=1, heads=2),
                tiny_train_cfg(max_steps=10), vocab, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "model.ckpt").exists()
    # retained checkpoint must load and evaluate cleanly
    model = load_checkpoint(tmp_path / "run" / "model.ckpt")
    assert {name: p.data.tobytes() for name, p in model.params.items()} == last_good
    evaluate(model, data)


# ---------------------------------------------------------------------------
# inference isolation


def test_inference_ignores_image_stream_parameters():
    data = small_dataset(n=4)
    vocab = build_vocab(data)
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=3)
    seqs = [normalize(s) for s in data]
    before = [m.infer_ids(s) for s in seqs]
    zero_image_stream(m)
    after = [m.infer_ids(s) for s in seqs]
    assert before == after


def test_param_groups_cover_every_parameter():
    # every parameter has exactly one stream prefix, and every prefix has a parameter
    m = tiny_model()
    prefixes = TRAJ_PREFIXES + IMAGE_PREFIXES
    for name in m.params:
        assert sum(name.startswith(p) for p in prefixes) == 1, name
    for p in prefixes:
        assert any(name.startswith(p) for name in m.params), p


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bytes_and_inference(tmp_path):
    data = small_dataset(n=4)
    vocab = build_vocab(data)
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=5)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(m, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    seq = normalize(data[0])
    assert m.infer_ids(seq) == loaded.infer_ids(seq)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    data = small_dataset(n=2)
    vocab = build_vocab(data)
    path = tmp_path / "m.ckpt"
    save_checkpoint(Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=5), path)
    before = path.read_bytes()

    import penrec.training as T

    def disk_full(*args):
        # the header is already written when the length prefix is packed
        raise OSError("no space left on device")

    monkeypatch.setattr(T.struct, "pack", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=6), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_checkpoint_truncated_payload_rejected(tmp_path):
    data = small_dataset(n=2)
    vocab = build_vocab(data)
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-64])
    from penrec.training import CheckpointError
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_unknown_config_keys_rejected(tmp_path):
    data = small_dataset(n=2)
    vocab = build_vocab(data)
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    header, rest = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["encoder"]["mystery_knob"] = 3
    path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + rest)
    from penrec.training import CheckpointError
    with pytest.raises(CheckpointError, match="mystery_knob"):
        load_checkpoint(path)


def test_empty_ink_sequence_decodes_without_error():
    data = small_dataset(n=2)
    vocab = build_vocab(data)
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), vocab, seed=8)
    pts = np.column_stack([np.linspace(0, 50, 12), np.linspace(0, 20, 12), np.zeros(12)])
    from penrec.data import TrajectorySequence
    out = m.infer_text(normalize(TrajectorySequence(id="air", points=pts, text="")))
    assert isinstance(out, str)


# ---------------------------------------------------------------------------
# checkpoint load: values read in place, every check before the payload

# sha256 of the payload (the bytes after the length prefix) that the version 5 writer saved for a
# fresh model: the initial draws stayed the same when five config keys became constants
V5_PAYLOAD_SHA256 = {
    "tiny_d8_seed11": "f48ec546e9bc62bd8f8906e93707f7bc3e6feb47dbf65296644dabb3b70d8c2d",
    "d64_seed1": "ddc307ff6b650a54ba5129f7d7f2e79b06309ba68d6fb8de941c203badbbf36c",
}


def decoded_payload(blob: bytes) -> dict[str, np.ndarray]:
    """Each manifest entry's slice of the payload, decoded with np.frombuffer."""
    header, rest = blob.split(b"\n", 1)
    (n_bytes,) = struct.unpack("<Q", rest[:8])
    values = np.frombuffer(rest[8:8 + n_bytes], dtype="<f4")
    return {m["name"]: values[m["offset"]:m["offset"] + math.prod(m["shape"])].reshape(m["shape"])
            for m in json.loads(header)["manifest"]}


def assert_loaded_in_place(model, blob: bytes) -> None:
    """Every parameter holds its payload slice in its own writable float32 array."""
    expected = decoded_payload(blob)
    assert list(expected) == list(model.params)
    spans = []
    for name, p in model.params.items():
        flags = p.data.flags
        assert p.data.dtype == np.float32 and flags.c_contiguous and flags.writeable and flags.owndata
        assert p.data.tobytes() == expected[name].astype(np.float32).tobytes(), name
        start = p.data.__array_interface__["data"][0]
        spans.append((start, start + p.data.nbytes))
    spans.sort()
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


@pytest.fixture
def poisoned_empty(monkeypatch):
    """np.empty hands out NaN-filled arrays, so a value a load leaves unwritten shows."""
    real = np.empty

    def empty(*args, **kwargs):
        out = real(*args, **kwargs)
        out.fill(np.nan)
        return out
    monkeypatch.setattr(np, "empty", empty)


def fresh_model_of(blob: bytes) -> Recognizer:
    """A newly initialised model of the config, vocabulary and seed in a checkpoint's header."""
    header = json.loads(blob.split(b"\n", 1)[0])
    return Recognizer(encoder_config_from_dict(header["encoder"]), align_config_from_dict(header["alignment"]),
                      Vocabulary.from_symbols(header["vocab"]), seed=header["seed"])


def payload_sha256(blob: bytes) -> str:
    return hashlib.sha256(blob.split(b"\n", 1)[1][8:]).hexdigest()


def test_load_reads_a_file_of_the_previous_loader_to_the_same_values(tmp_path):
    # the version 5 header held four shape keys that are now constants, at these values
    path = tmp_path / "v5.ckpt"
    save_checkpoint(tiny_model(seed=11), path)
    header, rest = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["version"] = 5
    doc["encoder"].update(conv1d_spec=None, cnn2d_blocks=1)
    doc["alignment"].update(ff_mult=2, rope_base=10000.0)
    path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + rest)
    with pytest.raises(CheckpointError, match="unsupported version 5"):
        load_checkpoint(path)
    # the payload is the one the version 5 writer saved for the same model
    assert payload_sha256(path.read_bytes()) == V5_PAYLOAD_SHA256["tiny_d8_seed11"]


def test_a_fresh_d64_model_draws_the_initial_values_of_version_5(tmp_path):
    # the C07 recipe's and the benchmark's init
    path = tmp_path / "d64.ckpt"
    save_checkpoint(Recognizer(EncoderConfig(d=64), AlignConfig(), Vocabulary(list(DEFAULT_ALPHABET)), seed=1), path)
    assert payload_sha256(path.read_bytes()) == V5_PAYLOAD_SHA256["d64_seed1"]


def test_a_change_to_the_manifest_comes_with_a_new_checkpoint_version(tmp_path):
    # the names, shapes and order of a fixed d=16 model's manifest; a file of other names or shapes is
    # another format, so the recorded pair changes only with CHECKPOINT_VERSION
    path = tmp_path / "d16.ckpt"
    save_checkpoint(Recognizer(EncoderConfig(d=16, gru_layers=1), AlignConfig(layers=1, heads=2),
                               Vocabulary(list("ab")), seed=0), path)
    manifest = json.loads(path.read_bytes().split(b"\n", 1)[0])["manifest"]
    digest = hashlib.sha256(json.dumps([[m["name"], m["shape"]] for m in manifest]).encode()).hexdigest()
    assert (CHECKPOINT_VERSION, digest) == (7, "f9d1a34447a1936bef07037b40c28f1a48eb1f67cb219d37790badcff94e31dc")


def test_load_reads_a_saved_file_to_its_values(tmp_path, poisoned_empty):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(seed=11), path)
    blob = path.read_bytes()
    model = load_checkpoint(path)
    assert_loaded_in_place(model, blob)
    save_checkpoint(model, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == blob
    save_checkpoint(fresh_model_of(blob), tmp_path / "fresh.ckpt")
    assert (tmp_path / "fresh.ckpt").read_bytes() == blob


class NoDraws(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("initial values drawn")

    normal = uniform


def test_load_draws_no_initial_values(tmp_path, monkeypatch):
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), build_vocab(small_dataset(n=2)), seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    monkeypatch.setattr(np.random, "default_rng", lambda *seed: NoDraws(np.random.PCG64(*seed)))
    with pytest.raises(AssertionError, match="drawn"):
        Recognizer(m.enc_cfg, m.align_cfg, m.vocab, seed=5)
    assert_loaded_in_place(load_checkpoint(path), path.read_bytes())


def test_adam_step_on_a_loaded_model_matches_the_saved_one(tmp_path):
    data = small_dataset(n=4)
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), build_vocab(data), seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    batch = [normalize(s) for s in data]
    for model in (m, loaded):
        total, _ = batch_losses(model, batch, 0.5)
        ad.zero_grads(model.params.values())
        ad.backward(total)
        ad.adam_step(model.params, ad.AdamState(model.params), 1e-2)
    for name, p in m.params.items():
        assert p.data.tobytes() == loaded.params[name].data.tobytes(), name


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory) -> bytes:
    m = Recognizer(tiny_enc_cfg(), AlignConfig(layers=1, heads=2), build_vocab(small_dataset(n=2)), seed=5)
    path = tmp_path_factory.mktemp("base") / "base.ckpt"
    save_checkpoint(m, path)
    return path.read_bytes()


def manifest_edits():
    """(entry index, (field, new value)) for one manifest entry."""
    return st.tuples(st.integers(0, 200), st.one_of(
        st.tuples(st.just("offset"), st.integers(-2**70, 2**70)),
        st.tuples(st.just("shape"), st.lists(st.integers(0, 2**40), max_size=4)),
        st.tuples(st.just("name"), st.text(max_size=12))))


SIZE_KEYS = [("encoder", "d"), ("encoder", "gru_layers"), ("alignment", "layers"), ("alignment", "heads")]


def mutations():
    return st.one_of(
        st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("prefix"), st.integers(0, 2**64 - 1)),
        st.tuples(st.just("flip"), st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                                      st.integers(1, 255)), min_size=1, max_size=4)),
        st.tuples(st.just("manifest"), manifest_edits()),
        st.tuples(st.just("size"), st.tuples(st.sampled_from(SIZE_KEYS), st.integers(-2**64, 2**64))),
    )


def mutate(blob: bytes, change) -> bytes:
    kind, arg = change
    header, rest = blob.split(b"\n", 1)
    if kind == "truncate":
        return blob[:int(arg * len(blob))]
    if kind == "append":
        return blob + arg
    if kind == "prefix":
        return header + b"\n" + struct.pack("<Q", arg) + rest[8:]
    if kind == "flip":
        edited = bytearray(header)
        for where, bits in arg:
            edited[int(where * len(edited))] ^= bits
        return bytes(edited) + b"\n" + rest
    doc = json.loads(header)
    if kind == "manifest":
        index, (field, value) = arg
        doc["manifest"][index % len(doc["manifest"])][field] = value
    else:
        (section, key), value = arg
        doc[section][key] = value
    return json.dumps(doc, sort_keys=True).encode() + b"\n" + rest


@given(change=mutations())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_checkpoint_fuzz_gives_a_model_or_checkpoint_error(tmp_path, tiny_blob, poisoned_empty, change):
    blob = mutate(tiny_blob, change)
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    assert change[0] != "append", "bytes after the payload were accepted"
    assert isinstance(model, Recognizer)
    assert_loaded_in_place(model, blob)
