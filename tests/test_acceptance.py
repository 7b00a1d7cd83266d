"""Acceptance gate: ten verifiable criteria, one test (and pass line) each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The long pole is criterion 7 (a real 500-step training run).
"""

import json
import random
import time

import numpy as np

from conftest import edit_oracle
from gradcheck import check, standard_battery, tiny_sequence
from penrec import autodiff as ad
from penrec import metrics as M
from penrec.alignment import rope2d, sample_image_columns
from penrec.cli import main
from penrec.config import AlignConfig, EncoderConfig, TrainConfig
from penrec.data import build_vocab, normalize, save_dataset
from penrec.model import Recognizer
from penrec.synth import DEFAULT_ALPHABET, synth_generate
from penrec.training import (batch_losses, load_checkpoint, save_checkpoint,
                             train, zero_image_stream)

PASS = "ACCEPTANCE {:02d} {}: PASS ({})"


def small_enc_cfg(d=16):
    return EncoderConfig(d=d, gru_layers=1)


def small_align_cfg(**kw):
    base = dict(layers=1, heads=2)
    base.update(kw)
    return AlignConfig(**base)


def test_c01_gradient_check_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = []
    for name, loss_fn, wrt in standard_battery(seed=0):
        err = check(loss_fn, wrt, rng, probes=4, h=1e-5)
        if err >= 1e-5:
            failures.append((name, err))
    elapsed = time.monotonic() - start
    assert not failures, failures
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    print(PASS.format(1, "gradient-check suite", f"{elapsed:.1f}s, all < 1e-5"))


def test_c02_stop_gradient_contract():
    def image_grads(stop_gradient):
        m = Recognizer(small_enc_cfg(), small_align_cfg(use_stop_gradient=stop_gradient),
                       build_vocab(synth_generate("abc", 3, np.random.default_rng(0))), seed=1)
        losses = m.losses([tiny_sequence(np.random.default_rng(2), n_points=32)])
        scaled = ad.mul(losses["align"], 2.0)
        ad.zero_grads(m.params.values())
        ad.backward(scaled)
        return {n: p.grad for n, p in m.params.items()
                if n.startswith(("img_cnn.", "img_gru.", "dec_img."))}

    with_sg = image_grads(True)
    assert all(g is None or not np.any(g != 0) for g in with_sg.values())
    without_sg = image_grads(False)
    assert any(g is not None and np.any(g != 0) for g in without_sg.values())
    print(PASS.format(2, "stop-gradient contract", f"{len(with_sg)} image-stream arrays exactly zero with SG"))


def test_c03_inference_isolation(tmp_path):
    rng = np.random.default_rng(5)
    data = synth_generate(DEFAULT_ALPHABET, 100, rng, length_range=(1, 3))
    vocab = build_vocab(data)
    m = Recognizer(small_enc_cfg(), small_align_cfg(), vocab, seed=9)
    seqs = [normalize(s) for s in data]
    before = [m.infer_ids(s) for s in seqs]
    # zero the image stream inside a checkpoint and reload
    zero_image_stream(m)
    path = tmp_path / "zeroed.ckpt"
    save_checkpoint(m, path)
    reloaded = load_checkpoint(path)
    after = [reloaded.infer_ids(s) for s in seqs]
    assert before == after
    print(PASS.format(3, "inference isolation",
                      "100 inputs bit-identical with a zeroed image stream checkpoint"))


def test_c04_sampling_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    cases = 0
    for _ in range(50):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        feat = rng.normal(size=(n, d))
        px = rng.uniform(-30.0, n * 8 * 1.3, size=20)
        # one image's columns, sampled as a batch of one line that starts at column 0
        out = sample_image_columns(ad.array(feat, dtype=np.float64),
                                   np.column_stack([px, np.zeros(20)])[None], [0], [n]).data[0]
        for i in range(20):
            c = min(max(px[i] / 8.0, 0.0), n - 1.0)
            i0 = int(np.floor(c))
            frac = c - i0
            i1 = min(i0 + 1, n - 1)
            for j in range(d):
                assert out[i, j] == (1.0 - frac) * feat[i0, j] + frac * feat[i1, j]
            cases += 1
    assert cases == 1000
    print(PASS.format(4, "alignment-sampling oracle", "1000 cases exact, clamping included"))


def test_c05_loss_composition():
    data = synth_generate(DEFAULT_ALPHABET[:4], 6, np.random.default_rng(7), length_range=(1, 2))
    vocab = build_vocab(data)
    m = Recognizer(small_enc_cfg(), small_align_cfg(), vocab, seed=11)
    seqs = [normalize(s) for s in data]
    for lo in range(0, 6, 2):
        total, comps = batch_losses(m, seqs[lo:lo + 2], align_weight=2.0)
        expected = float(comps["traj"].data) + float(comps["img"].data) + 2.0 * float(comps["align"].data)
        assert abs(float(total.data) - expected) <= 1e-6 * abs(expected)
        collapsed, comps0 = batch_losses(m, seqs[lo:lo + 2], align_weight=0.0)
        assert float(collapsed.data) == float(comps0["traj"].data + comps0["img"].data)
    print(PASS.format(5, "loss composition", "weighted sum within 1e-6 relative; zero weight exact"))


def test_c06_position_embedding_invariants():
    rng = np.random.default_rng(8)
    pos = rng.uniform(-2000, 2000, size=(1000, 2))
    emb = rope2d(pos, d=32)
    norms = (emb.reshape(1000, 16, 2) ** 2).sum(axis=2)
    np.testing.assert_allclose(norms, np.ones((1000, 16)), atol=1e-6)
    moved = pos.copy()
    moved[:, 0] += rng.uniform(1, 50, size=1000)
    emb_x = rope2d(moved, d=32)
    assert np.array_equal(emb[:, 16:], emb_x[:, 16:])
    movedy = pos.copy()
    movedy[:, 1] -= rng.uniform(1, 50, size=1000)
    emb_y = rope2d(movedy, d=32)
    assert np.array_equal(emb[:, :16], emb_y[:, :16])
    print(PASS.format(6, "position-embedding invariants", "1000 positions: unit pairs, bit-exact halves"))


def test_c07_overfit_learning_run(tmp_path, capsys):
    data = synth_generate(DEFAULT_ALPHABET, 32, np.random.default_rng(42))
    vocab = build_vocab(data)
    assert vocab.size == 12
    data_path = tmp_path / "train.jsonl"
    save_dataset(data_path, data)
    config = {
        "encoder": {"d": 64},
        "alignment": {},  # all toggles on
        "training": {"batch_size": 8, "epochs": 1, "max_steps": 500,
                     "lr_max": 2e-3, "lr_min": 2e-5, "augment": False,
                     "val_fraction": 0.0, "seed": 1},
    }
    config_path = tmp_path / "overfit.json"
    config_path.write_text(json.dumps(config))
    run_dir = tmp_path / "run"

    start = time.monotonic()
    code = main(["train", "--config", str(config_path), "--data", str(data_path),
                 "--out", str(run_dir), "--quiet"])
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"

    log_lines = (run_dir / "train_log.jsonl").read_text().splitlines()
    steps = [json.loads(l) for l in log_lines if "L_all" in l]
    assert len(steps) == 500

    code = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data_path)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    rep = json.loads(out)
    assert rep["cer"] <= 0.02, rep
    print(PASS.format(7, "overfit learning run",
                      f"500 steps in {elapsed:.0f}s, train CER {rep['cer']:.4f}"))


TABLE_ROWS = [
    ("baseline", dict(use_transformer=False, use_rope=False, use_align_loss=False, use_stop_gradient=False)),
    ("transformer", dict(use_transformer=True, use_rope=False, use_align_loss=False, use_stop_gradient=False)),
    ("rope", dict(use_transformer=True, use_rope=True, use_align_loss=False, use_stop_gradient=False)),
    ("align", dict(use_transformer=True, use_rope=True, use_align_loss=True, use_stop_gradient=False)),
    ("full", dict(use_transformer=True, use_rope=True, use_align_loss=True, use_stop_gradient=True)),
]


def _flow_groups(model, loss):
    ad.zero_grads(model.params.values())
    ad.backward(loss)
    return {n.split(".", 1)[0] for n, p in model.params.items()
            if p.grad is not None and np.any(p.grad != 0)}


def test_c08_ablation_structure(tmp_path):
    data = synth_generate(DEFAULT_ALPHABET[:4], 12, np.random.default_rng(10), length_range=(1, 2))
    vocab = build_vocab(data)
    stream_param_counts = set()
    for name, toggles in TABLE_ROWS:
        align_cfg = small_align_cfg(**toggles)
        cfg = TrainConfig(batch_size=4, epochs=1, max_steps=50, lr_max=1e-3, lr_min=1e-5,
                          augment=False, val_fraction=0.0, seed=3)
        result = train(data, small_enc_cfg(), align_cfg, cfg, vocab)
        assert len([r for r in result.records if "L_all" in r]) == 50

        m = result.model
        align_count = sum(p.data.size for n, p in m.params.items() if n.startswith("align."))
        stream_param_counts.add(sum(p.data.size for n, p in m.params.items()
                                    if not n.startswith("align.")))
        if toggles["use_transformer"]:
            assert align_count > 0
        else:
            assert align_count == 0

        losses = m.losses([normalize(data[0])])
        traj_flow = _flow_groups(m, losses["traj"])
        expected_traj = {"traj_conv", "traj_gru", "dec_traj"}
        if toggles["use_transformer"]:
            expected_traj.add("align")
        assert traj_flow == expected_traj, (name, traj_flow)
        assert _flow_groups(m, losses["img"]) == {"img_cnn", "img_gru", "dec_img"}, name
        if toggles["use_align_loss"]:
            align_flow = _flow_groups(m, ad.mul(losses["align"], 2.0))
            expected_align = {"align", "traj_conv"}
            if not toggles["use_stop_gradient"]:
                expected_align.add("img_cnn")
            assert align_flow == expected_align, (name, align_flow)
        else:
            assert losses["align"] is None, name
    assert len(stream_param_counts) == 1
    print(PASS.format(8, "ablation structure", "5 rows trained 50 steps; counts and flow matrices match"))


def test_c09_metrics_oracle():
    rng = random.Random(99)
    alphabet = "abcde "
    checked = 0
    for _ in range(500):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        counts = M.edit_align(list(ref), list(hyp))
        cost, sub, dele, ins = edit_oracle(list(ref), list(hyp))
        assert (counts.distance, counts.sub, counts.dele, counts.ins) == (cost, sub, dele, ins)
        n = len(ref)
        assert M.cer([ref], [hyp]) == cost / n
        ar, cr = M.ar_cr([ref], [hyp])
        assert ar == (n - dele - sub - ins) / n
        assert cr == (n - dele - sub) / n
        assert ar <= cr
        wcost, *_ = edit_oracle(ref.split(" "), hyp.split(" "))
        assert M.wer([ref], [hyp]) == wcost / len(ref.split(" "))
        checked += 1
    assert checked == 500
    assert M.edit_align("kitten", "sitting").distance == 3
    print(PASS.format(9, "metrics oracle", "500 pairs exact; AR <= CR; kitten/sitting = 3"))


def test_c10_end_to_end_determinism(tmp_path, capsys):
    data = synth_generate(DEFAULT_ALPHABET[:5], 10, np.random.default_rng(21), length_range=(1, 2))
    data_path = tmp_path / "d.jsonl"
    save_dataset(data_path, data)
    config = {
        "encoder": {"d": 16, "gru_layers": 1},
        "alignment": {"layers": 1, "heads": 2},
        "training": {"batch_size": 4, "epochs": 1, "max_steps": 10, "lr_max": 1e-3,
                     "lr_min": 1e-5, "augment": True, "val_fraction": 0.2, "seed": 33},
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    blobs = []
    for name in ("runA", "runB"):
        assert main(["train", "--config", str(config_path), "--data", str(data_path),
                     "--out", str(tmp_path / name), "--quiet"]) == 0
        blobs.append(((tmp_path / name / "model.ckpt").read_bytes(),
                      (tmp_path / name / "train_log.jsonl").read_bytes()))
    capsys.readouterr()
    assert blobs[0][0] == blobs[1][0], "checkpoints differ"
    assert blobs[0][1] == blobs[1][1], "logs differ"
    print(PASS.format(10, "end-to-end determinism", "byte-identical checkpoints and logs"))
