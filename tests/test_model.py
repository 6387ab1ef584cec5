"""Encoder tests: shapes, loss conventions, and gradient verification.

The gradient oracle is central differences, computed here from nothing but
forward passes, so the analytic backward pass is checked against an
independent implementation of the same quantity.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from farsilm import model as model_module
from farsilm.errors import ConfigError, DataError
from farsilm.finetune import TASKS
from farsilm.model import (
    ModelConfig,
    _encode,
    _layer_norm,
    _layer_norm_back,
    _normal_cdf,
    _softmax,
    _truncated_normal,
    backprop_encoder,
    compute_losses,
    desk_config,
    finite_difference_check,
    forward,
    gradients,
    init_params,
    pack,
    param_count,
    shape_audit,
    zero_gradients,
)
from padded_reference import padded_backprop, padded_encode


def float64_params(cfg, seed):
    """init_params cast to float64, for tests whose bounds are float64's:
    the model runs the same code in the parameters' dtype."""
    params = init_params(cfg, seed)
    return pack(params, np.float64, values=params)


def make_batch(rng, vocab, bsz=2, length=12, pad_from=None):
    ids = rng.integers(5, vocab, (bsz, length))
    segs = np.zeros((bsz, length), dtype=np.int64)
    segs[:, length // 2 :] = 1
    attn = np.ones((bsz, length), dtype=np.int64)
    if pad_from is not None:
        attn[:, pad_from:] = 0
        ids[:, pad_from:] = 0
        segs[:, pad_from:] = 0
    labels = np.full((bsz, length), -100, dtype=np.int64)
    labels[:, 2] = rng.integers(5, vocab, bsz)
    labels[:, 4] = rng.integers(5, vocab, bsz)
    nsp = rng.integers(0, 2, bsz)
    return dict(
        input_ids=ids,
        segment_ids=segs,
        attention_mask=attn,
        mlm_labels=labels,
        nsp_labels=nsp,
    )


class TestConfig:
    def test_defaults_are_full_scale(self):
        cfg = ModelConfig()
        assert (cfg.layers, cfg.heads, cfg.hidden) == (12, 12, 768)
        assert cfg.max_positions == 512

    def test_desk_profile(self):
        cfg = desk_config(vocab_size=1000)
        assert (cfg.layers, cfg.heads, cfg.hidden, cfg.intermediate) == (2, 2, 64, 256)
        assert cfg.max_positions == 128

    def test_hidden_must_divide_by_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(layers=1, heads=3, hidden=64, intermediate=128)

    def test_positive_dimensions(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=0)


class TestParams:
    def test_param_count_desk_config_hand_sum(self):
        # closed form, term by term, for layers=2 heads=2 hidden=64
        # intermediate=256 vocab=1000 max_positions=128, two segment types
        tok = 1000 * 64
        pos = 128 * 64
        seg = 2 * 64
        emb_ln = 64 + 64
        qkvo = 4 * (64 * 64 + 64)
        attn_ln = 128
        ffn = (64 * 256 + 256) + (256 * 64 + 64)
        ffn_ln = 128
        per_layer = qkvo + attn_ln + ffn + ffn_ln
        pool = 64 * 64 + 64
        mlm = (64 * 64 + 64) + 128 + 1000
        nsp = 64 * 2 + 2
        expected = tok + pos + seg + emb_ln + 2 * per_layer + pool + mlm + nsp
        assert expected == 181994
        assert param_count(desk_config(vocab_size=1000)) == expected

    def test_param_count_matches_actual_arrays(self):
        cfg = desk_config(vocab_size=211, max_positions=32)
        params = init_params(cfg, seed=0)
        assert param_count(cfg) == sum(p.size for p in params.values())

    def test_init_determinism(self):
        cfg = desk_config(vocab_size=100, max_positions=16)
        a = init_params(cfg, seed=9)
        b = init_params(cfg, seed=9)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = init_params(cfg, seed=10)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_init_distribution(self):
        cfg = desk_config(vocab_size=500, max_positions=64)
        params = init_params(cfg, seed=3)
        weights = params["tok_emb"]
        assert np.abs(weights).max() <= 0.04 + 1e-12  # truncated at two sigmas
        assert abs(weights.mean()) < 0.002
        assert np.all(params["emb_ln_g"] == 1.0)
        assert np.all(params["layer0.q_b"] == 0.0)
        assert np.all(params["mlm_out_b"] == 0.0)

    def test_shape_audit_passes_on_init(self):
        cfg = desk_config(vocab_size=50, max_positions=8)
        shape_audit(init_params(cfg, seed=0), cfg)

    def test_shape_audit_catches_wrong_shape(self):
        cfg = desk_config(vocab_size=50, max_positions=8)
        params = init_params(cfg, seed=0)
        params["nsp_w"] = params["nsp_w"][:, :1]
        with pytest.raises(DataError, match="nsp_w"):
            shape_audit(params, cfg)

    def test_shape_audit_catches_missing_tensor(self):
        cfg = desk_config(vocab_size=50, max_positions=8)
        params = init_params(cfg, seed=0)
        del params["pool_b"]
        with pytest.raises(DataError, match="pool_b"):
            shape_audit(params, cfg)

    def test_shape_audit_catches_non_finite(self):
        cfg = desk_config(vocab_size=50, max_positions=8)
        params = init_params(cfg, seed=0)
        params["pool_w"][0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            shape_audit(params, cfg)


class TestNormalCdf:
    """The GELU's normal CDF against scipy's float64 ``ndtr``, an
    implementation it shares no code with."""

    def test_float32_within_3e_7(self):
        x = np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32)
        cdf = _normal_cdf(x)
        assert cdf.dtype == np.float32
        assert np.abs(cdf - ndtr(x.astype(np.float64))).max() <= 3e-7

    def test_float64_within_1e_15(self):
        # the grid runs past x = -38.5, where the CDF underflows float64,
        # and through the upper tail, where it rounds to 1
        x = np.linspace(-40.0, 40.0, 2_000_001)
        assert np.abs(_normal_cdf(x) - ndtr(x)).max() <= 1e-15

    def test_float64_lower_tail_to_relative_rounding(self):
        x = np.linspace(-37.0, 0.0, 370_001)
        reference = ndtr(x)
        assert np.all(np.abs(_normal_cdf(x) - reference) <= 1e-13 * reference)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_at_infinities_and_nan_kept(self, dtype):
        cdf = _normal_cdf(np.array([-np.inf, np.inf, np.nan, 0.0], dtype))
        assert cdf.dtype == dtype
        assert cdf[0] == 0.0 and cdf[1] == 1.0 and np.isnan(cdf[2]) and cdf[3] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_within_the_unit_interval_and_shape_kept(self, dtype):
        x = np.random.default_rng(4).normal(0.0, 4.0, (300, 7)).astype(dtype)
        cdf = _normal_cdf(x)
        assert cdf.shape == x.shape and cdf.dtype == dtype
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0
        assert _normal_cdf(np.array(-1.0, dtype)).shape == ()

    def test_float32_leaves_its_input_alone(self):
        x = np.linspace(-6.0, 6.0, 1001, dtype=np.float32)
        before = x.copy()
        _normal_cdf(x)
        assert np.array_equal(x, before)


class TestTruncatedNormal:
    """Inverse-CDF draws within two standard deviations."""

    def test_every_draw_within_two_std(self):
        draws = _truncated_normal(np.random.default_rng(0), (500, 400), 0.02)
        assert draws.shape == (500, 400) and draws.dtype == np.float64
        assert np.abs(draws).max() <= 2 * 0.02

    def test_equals_scipy_quantile_of_the_same_uniforms(self):
        for seed in range(3):
            u = np.random.default_rng(seed).random((400, 256))
            lo, hi = ndtr(-2.0), ndtr(2.0)
            want = ndtri(lo + u * (hi - lo)) * 0.02
            got = _truncated_normal(np.random.default_rng(seed), (400, 256), 0.02)
            assert np.abs(got - want).max() <= 1e-16  # a few float64 ulps of 0.02
            # the float32 initialization keeps every byte it had under scipy
            assert np.array_equal(got.astype(np.float32), want.astype(np.float32))

    def test_same_bytes_for_a_seed(self):
        def draw(seed):
            return _truncated_normal(np.random.default_rng(seed), (300, 64), 0.02).tobytes()

        assert draw(5) == draw(5)
        assert draw(5) != draw(6)

    def test_sample_std_of_the_truncated_normal(self):
        # a normal cut at +-2 has variance 1 - 4 phi(2) / (2 Phi(2) - 1)
        phi = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
        expected = math.sqrt(1.0 - 4.0 * phi / (2.0 * ndtr(2.0) - 1.0))
        assert expected == pytest.approx(0.8796, abs=1e-4)
        draws = _truncated_normal(np.random.default_rng(1), 400_000, 3.0)
        # the sample std's standard error is about 0.0042 here
        assert draws.std() == pytest.approx(3.0 * expected, abs=0.02)
        assert abs(draws.mean()) < 0.02


class TestForward:
    def setup_method(self):
        self.cfg = desk_config(vocab_size=300, max_positions=32)
        self.params = init_params(self.cfg, seed=1)
        self.rng = np.random.default_rng(5)

    def test_output_shapes(self):
        batch = make_batch(self.rng, 300, bsz=3, length=10)
        out = forward(self.params, self.cfg, batch)
        assert out["mlm_logits"].shape == (3, 10, 300)
        assert out["nsp_logits"].shape == (3, 2)
        assert out["pooled"].shape == (3, 64)
        assert out["sequence"].shape == (3, 10, 64)

    def test_forward_is_deterministic(self):
        batch = make_batch(self.rng, 300)
        a = forward(self.params, self.cfg, batch)
        b = forward(self.params, self.cfg, batch)
        assert np.array_equal(a["mlm_logits"], b["mlm_logits"])

    def test_padding_content_invariance(self):
        batch = make_batch(self.rng, 300, bsz=3, length=10, pad_from=7)
        out1 = forward(self.params, self.cfg, batch)
        noisy = dict(batch)
        ids = batch["input_ids"].copy()
        ids[:, 7:] = self.rng.integers(5, 300, (3, 3))
        noisy["input_ids"] = ids
        out2 = forward(self.params, self.cfg, noisy)
        for key in ("pooled", "nsp_logits"):
            assert np.abs(out1[key] - out2[key]).max() < 1e-9
        assert np.abs(out1["mlm_logits"][:, :7] - out2["mlm_logits"][:, :7]).max() < 1e-9

    def test_attention_rows_are_normalized(self):
        batch = make_batch(self.rng, 300, bsz=3, length=12, pad_from=8)
        batch["attention_mask"][1, 5:] = 0
        _, cache = _encode(self.params, self.cfg, batch, batch["mlm_labels"] != -100)
        rows, read, layers = cache["rows"], cache["read"], cache["layers"]
        # the softmax ran on each sequence's kept query rows, in slots: the
        # attended rows below the last layer, the read ones ([CLS] and the
        # labelled) in it, against the keys up to the last attended column
        # rounded up to 16, here all 12; the cache holds each kept row's
        # probabilities, heads side by side
        assert read.flat.size == 9 < rows.flat.size == 21
        assert (rows.width, read.width) == (12, 3)
        for layer, layer_cache in enumerate(layers):
            out = read if layer == len(layers) - 1 else rows
            assert layer_cache["out"] is out
            probs = layer_cache["probs"].reshape(out.flat.size, self.cfg.heads, -1)
            assert probs.shape == (out.flat.size, self.cfg.heads, 12)
            assert np.abs(probs.sum(-1) - 1.0).max() < 1e-6
            unattended = batch["attention_mask"][out.seqs] == 0
            assert np.all(probs.transpose(0, 2, 1)[unattended] == 0.0)
            assert np.all(probs.transpose(0, 2, 1)[~unattended] > 0.0)

    def test_id_out_of_range(self):
        batch = make_batch(self.rng, 300)
        batch["input_ids"][0, 0] = 300
        with pytest.raises(DataError, match="token ids"):
            forward(self.params, self.cfg, batch)

    def test_sequence_too_long(self):
        batch = make_batch(self.rng, 300, length=33)
        with pytest.raises(DataError, match="max_positions"):
            forward(self.params, self.cfg, batch)

    def test_segment_id_out_of_range(self):
        batch = make_batch(self.rng, 300)
        batch["segment_ids"][0, 0] = 2
        with pytest.raises(DataError, match="segment ids"):
            forward(self.params, self.cfg, batch)


class TestLosses:
    def setup_method(self):
        self.cfg = desk_config(vocab_size=300, max_positions=32)
        self.params = init_params(self.cfg, seed=2)
        self.rng = np.random.default_rng(6)
        self.batch = make_batch(self.rng, 300, bsz=3, length=10)
        self.out = forward(self.params, self.cfg, self.batch)

    def test_uniform_mlm_logits_give_log_vocab(self):
        out = dict(self.out, mlm_logits=np.zeros_like(self.out["mlm_logits"]))
        losses = compute_losses(out, self.batch)
        assert losses["mlm_loss"] == pytest.approx(np.log(300), rel=1e-12)

    def test_confident_correct_mlm_gives_small_loss(self):
        logits = np.zeros_like(self.out["mlm_logits"])
        labels = self.batch["mlm_labels"]
        rows = np.where(labels != -100)
        logits[rows[0], rows[1], labels[rows]] = 30.0
        losses = compute_losses(dict(self.out, mlm_logits=logits), self.batch)
        assert losses["mlm_loss"] < 1e-3

    def test_zero_nsp_logits_give_log_two(self):
        out = dict(self.out, nsp_logits=np.zeros_like(self.out["nsp_logits"]))
        losses = compute_losses(out, self.batch)
        assert losses["nsp_loss"] == pytest.approx(np.log(2), rel=1e-12)

    def test_total_is_sum(self):
        losses = compute_losses(self.out, self.batch)
        assert losses["total"] == pytest.approx(
            losses["mlm_loss"] + losses["nsp_loss"], rel=1e-12
        )

    def test_no_masked_positions_yields_zero_and_flag(self):
        batch = dict(self.batch, mlm_labels=np.full((3, 10), -100))
        losses = compute_losses(self.out, batch)
        assert losses["mlm_loss"] == 0.0
        assert losses["mlm_positions"] == 0
        assert np.isfinite(losses["total"])

    def test_ignored_positions_do_not_affect_mlm_loss(self):
        base = compute_losses(self.out, self.batch)
        pert = self.out["mlm_logits"].copy()
        ignored = np.where(self.batch["mlm_labels"] == -100)
        pert[ignored[0], ignored[1]] += 41.5
        moved = compute_losses(dict(self.out, mlm_logits=pert), self.batch)
        assert moved["mlm_loss"] == base["mlm_loss"]

    def test_batch_permutation_equivariance(self):
        base = compute_losses(self.out, self.batch)
        perm = np.array([2, 0, 1])
        shuffled = {k: v[perm] for k, v in self.batch.items()}
        out = forward(self.params, self.cfg, shuffled)
        moved = compute_losses(out, shuffled)
        assert moved["total"] == pytest.approx(base["total"], rel=1e-12)


class TestGradients:
    def setup_method(self):
        self.cfg = desk_config(vocab_size=300, max_positions=32)
        # float64: central differences and the 1e-12 loss bound need it
        self.params = float64_params(self.cfg, seed=4)
        self.rng = np.random.default_rng(8)
        self.batch = make_batch(self.rng, 300, bsz=2, length=12)

    def test_every_parameter_family_matches_central_differences(self):
        coords = []
        crng = np.random.default_rng(17)
        for name, value in self.params.items():
            coords.append((name, int(crng.integers(0, value.size))))
        err = finite_difference_check(self.params, self.cfg, self.batch, coords)
        assert err < 1e-4

    def test_gradients_are_deterministic(self):
        _, a = gradients(self.params, self.cfg, self.batch)
        _, b = gradients(self.params, self.cfg, self.batch)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_zero_gradients_are_disjoint_views_of_one_buffer_per_dtype(self):
        params = dict(self.params, extra=np.ones((2, 3), np.float32))
        grads = zero_gradients(params)
        assert list(grads) == list(params)
        for name, value in params.items():
            assert grads[name].shape == value.shape and grads[name].dtype == value.dtype
            assert not grads[name].any()
        buffer = grads["tok_emb"].base
        assert all(grads[name].base is buffer for name in self.params)
        assert buffer.size == sum(value.size for value in self.params.values())
        assert grads["extra"].base is not buffer
        grads["layer0.q_w"] += 1.0
        assert sum(int(g.sum()) for g in grads.values()) == self.params["layer0.q_w"].size

    def test_unused_position_rows_have_exactly_zero_gradient(self):
        _, grads = gradients(self.params, self.cfg, self.batch)
        length = self.batch["input_ids"].shape[1]
        assert np.all(grads["pos_emb"][length:] == 0.0)
        assert np.abs(grads["pos_emb"][:length]).max() > 0.0

    def test_tied_decoder_reaches_unseen_vocab_rows(self):
        # a vocab row absent from the inputs still gets gradient through the
        # output projection, because the decoder matrix is the embedding table
        absent = 299
        assert absent not in self.batch["input_ids"]
        assert absent not in self.batch["mlm_labels"]
        _, grads = gradients(self.params, self.cfg, self.batch)
        assert np.abs(grads["tok_emb"][absent]).max() > 0.0

    def test_losses_match_compute_losses(self):
        losses, _ = gradients(self.params, self.cfg, self.batch)
        direct = compute_losses(forward(self.params, self.cfg, self.batch), self.batch)
        assert losses["total"] == pytest.approx(direct["total"], rel=1e-12)

    def test_non_finite_loss_raises_before_differencing(self):
        params = {k: v.copy() for k, v in self.params.items()}
        params["pool_w"][:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(DataError, match="non-finite"):
                finite_difference_check(params, self.cfg, self.batch, [("nsp_b", 0)])

    def test_zero_masked_batch_still_trains_nsp(self):
        batch = dict(self.batch, mlm_labels=np.full((2, 12), -100))
        losses, grads = gradients(self.params, self.cfg, batch)
        assert losses["mlm_loss"] == 0.0
        assert np.abs(grads["nsp_w"]).max() > 0.0
        assert np.all(grads["mlm_w"] == 0.0)


def full_position_reference(params, cfg, batch):
    """Losses and gradients with the MLM head run over every position and
    the softmax taken over the whole (B, L, V) logits block: the scoring
    that training used before the head was restricted to labelled rows."""
    outputs, cache = _encode(params, cfg, batch)
    seq = outputs["sequence"]
    pre = seq @ params["mlm_w"] + params["mlm_b"]
    act = pre * ndtr(pre)
    tr, ln_cache = _layer_norm(act, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = tr @ params["tok_emb"].T + params["mlm_out_b"]
    losses = compute_losses(dict(outputs, mlm_logits=logits), batch)

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    labels = batch["mlm_labels"]
    selected = labels != -100
    n_sel = int(selected.sum())
    dx = np.zeros_like(seq)
    if n_sel:
        dlogits = _softmax(logits) * selected[..., None]
        rows = np.where(selected)
        dlogits[rows[0], rows[1], labels[rows]] -= 1.0
        dlogits /= n_sel
        flat_dlogits = dlogits.reshape(-1, cfg.vocab_size)
        grads["tok_emb"] += flat_dlogits.T @ tr.reshape(-1, cfg.hidden)
        grads["mlm_out_b"] += flat_dlogits.sum(0)
        dact, dg, db = _layer_norm_back(dlogits @ params["tok_emb"], ln_cache)
        grads["mlm_ln_g"] += dg
        grads["mlm_ln_b"] += db
        phi = np.exp(-0.5 * pre * pre) / np.sqrt(2.0 * np.pi)
        dpre = dact * (ndtr(pre) + pre * phi)
        flat_dpre = dpre.reshape(-1, cfg.hidden)
        grads["mlm_w"] += seq.reshape(-1, cfg.hidden).T @ flat_dpre
        grads["mlm_b"] += flat_dpre.sum(0)
        dx += dpre @ params["mlm_w"].T

    bsz = len(batch["nsp_labels"])
    dnsp = _softmax(outputs["nsp_logits"])
    dnsp[np.arange(bsz), batch["nsp_labels"]] -= 1.0
    dnsp /= bsz
    grads["nsp_w"] += cache["pooled"].T @ dnsp
    grads["nsp_b"] += dnsp.sum(0)
    backprop_encoder(params, cfg, cache, dx, dnsp @ params["nsp_w"].T, grads)
    return losses, grads


class TestMaskedPositionHead:
    """Training runs the MLM head on labelled rows only; it must give the
    gradients of the full-position head it replaced."""

    def setup_method(self):
        self.cfg = desk_config(vocab_size=300, max_positions=32)
        # float64: the reference's bounds are float64 rounding
        self.params = float64_params(self.cfg, seed=7)
        self.rng = np.random.default_rng(12)

    def _batch(self, kind):
        if kind == "padded":
            return make_batch(self.rng, 300, bsz=3, length=12, pad_from=9)
        batch = make_batch(self.rng, 300, bsz=3, length=12)
        if kind == "zero-masked":
            batch["mlm_labels"] = np.full((3, 12), -100)
        return batch

    @pytest.mark.parametrize("kind", ["padded", "zero-masked"])
    def test_gradients_match_full_position_reference(self, kind):
        batch = self._batch(kind)
        losses, grads = gradients(self.params, self.cfg, batch)
        ref_losses, ref_grads = full_position_reference(self.params, self.cfg, batch)
        assert losses["total"] == pytest.approx(ref_losses["total"], rel=1e-12)
        assert set(grads) == set(ref_grads)
        scale = max(np.abs(ref).max() for ref in ref_grads.values())
        for name, ref in ref_grads.items():
            # a key bias shifts every score of a query equally, so its exact
            # gradient is zero and both sides hold only rounding noise
            floor = 1e-12 * scale if name.endswith("k_b") else 0.0
            err = np.abs(grads[name] - ref).max()
            assert err <= 1e-10 * np.abs(ref).max() + floor, name
        if kind == "zero-masked":
            assert losses["mlm_loss"] == 0.0
            for name in ("mlm_w", "mlm_b", "mlm_ln_g", "mlm_ln_b", "mlm_out_b"):
                assert np.all(grads[name] == 0.0), name

    def test_encode_outputs_equal_forward_outputs(self):
        batch = self._batch("padded")
        encoded, _ = _encode(self.params, self.cfg, batch)
        out = forward(self.params, self.cfg, batch)
        for key in ("sequence", "pooled", "nsp_logits"):
            assert np.array_equal(encoded[key], out[key]), key
        assert out["mlm_logits"].shape == (3, 12, 300)

    @pytest.mark.parametrize("kind", ["padded", "zero-masked"])
    def test_compute_losses_of_forward_equals_gradients_losses(self, kind):
        batch = self._batch(kind)
        losses, _ = gradients(self.params, self.cfg, batch)
        direct = compute_losses(forward(self.params, self.cfg, batch), batch)
        assert direct["mlm_positions"] == losses["mlm_positions"]
        for key in ("mlm_loss", "nsp_loss", "total"):
            assert direct[key] == pytest.approx(losses[key], rel=1e-12, abs=0.0), key


# The grid the unpadded encoder is held to, declared before any run: every
# (B, L) pair, rows that are all full or ragged, the three kinds of
# upstream gradient the callers pass (a classifier on the pooled vector, a
# tagger on every position, pretraining's MLM plus NSP), and parameters as
# initialised or with N(0, 0.1) noise added to every entry.
# 16 x 18 is the fine-tuning shape where a compact dY @ W.T takes another
# BLAS kernel than the padded product; at L = 32 one did for B = 1 and 2.
# The backward pass packs the token rows into blocks of L rows, so each
# data-gradient product keeps the padded (L, K) shape. The classifier reads
# [CLS] alone, so its last layer runs on one row per batch row: the (1, L)
# classifier cases run a single row. Fresh parameters have unit
# layer-norm gains and zero biases, where a reordered multiply or add cannot
# show; the noisy ones make every gain and bias take part in the arithmetic.
_GRID_B = (1, 3, 16, 32)
_GRID_L = (5, 18, 32, 64)
_GRID_LAYOUT = ("full", "ragged")
_GRID_UPSTREAM = ("classifier", "tagger", "mlm+nsp")
_GRID_PARAM_NOISE = (0.0, 0.1)

# Largest differences from the padded encoder, by dtype: outputs and
# losses relative to the largest entry of each, gradients relative to the
# call's largest gradient (k_b's exact gradient is zero, so both sides
# hold only rounding noise there). The attention products run on
# per-sequence slots where the reference runs (B, L, L), and the weight
# gradients sum L-row blocks where it sums the padded rows at once, so the
# two agree to rounding. The grid's largest readings: 3.3e-15 on the
# outputs and 1.8e-15 on the gradients in float64, 1.4e-6 and 1.1e-6 in
# float32, whose bound is 84 float32 ulps of 1.0 (eps 1.19e-7).
_BOUNDS = {np.float64: (1e-13, 1e-10), np.float32: (1e-5, 1e-5)}


def grid_batch(bsz, length, layout, vocab=300):
    """Row b holds 2 + (3b + L // 2) mod (L - 1) real tokens when ragged;
    labels sit on real positions 1, 5, 9, ..."""
    rng = np.random.default_rng((bsz, length))
    if layout == "full":
        lengths = np.full(bsz, length)
    else:
        lengths = 2 + (3 * np.arange(bsz) + length // 2) % (length - 1)
    pos = np.arange(length)[None, :]
    attn = (pos < lengths[:, None]).astype(np.int64)
    labels = np.where((pos % 4 == 1) & (attn == 1), rng.integers(5, vocab, (bsz, length)), -100)
    return dict(
        input_ids=rng.integers(5, vocab, (bsz, length)) * attn,
        segment_ids=((pos >= lengths[:, None] // 2) & (attn == 1)).astype(np.int64),
        attention_mask=attn,
        mlm_labels=labels,
        nsp_labels=rng.integers(0, 2, bsz),
    )


def head_gradients(encode, backprop, params, cfg, batch, kind):
    """One fine-tuning step's outputs and gradients for a classifier or a
    tagger head, computed as ``finetune`` computes them, with the reads of
    the task's head: [CLS] for the classifier, [CLS] and the labelled rows,
    standing for first pieces, for the tagger. The head takes the
    parameters' dtype."""
    dtype = params["tok_emb"].dtype
    head_rng = np.random.default_rng(99)
    head_w = head_rng.normal(0.0, 0.02, (cfg.hidden, 3)).astype(dtype)
    head_b = head_rng.normal(0.0, 0.02, 3).astype(dtype)
    if kind == "classifier":
        task, firsts = TASKS["cls"], None
        gold = np.arange(len(batch["input_ids"])) % 3
        selected = np.ones(len(gold), dtype=bool)
    else:
        task = TASKS["ner"]
        gold = batch["input_ids"] % 3
        selected = batch["mlm_labels"] != -100
        firsts = [np.flatnonzero(row) for row in selected]
    outputs, cache = encode(params, cfg, batch, task.reads(batch, firsts))
    features = outputs[task.source]
    logits = features @ head_w + head_b
    dlogits = _softmax(logits) * selected[..., None]
    picked = np.nonzero(selected)
    dlogits[picked + (gold[picked],)] -= 1.0
    dlogits /= int(selected.sum())
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    grads["head_w"] = features.reshape(-1, cfg.hidden).T @ dlogits.reshape(-1, 3)
    dfeatures = dlogits @ head_w.T
    if kind == "classifier":
        backprop(params, cfg, cache, None, dfeatures, grads)
    else:
        backprop(params, cfg, cache, dfeatures, None, grads)
    return outputs, grads


def assert_within_padded_reference(base_params, cfg, bsz, length, layout, upstream,
                                   param_noise, monkeypatch, dtype=np.float64):
    """The unpadded encoder's outputs, losses and gradients on a grid case
    are the padded one's within ``_BOUNDS``, and its final states are exact
    zeros off the rows the last layer ran on."""
    noise_rng = np.random.default_rng(7)
    params = {
        name: (value + param_noise * noise_rng.normal(size=value.shape)).astype(dtype)
        for name, value in base_params.items()
    }
    batch = grid_batch(bsz, length, layout)
    labelled = batch["mlm_labels"] != -100
    out_errors = []
    if upstream == "mlm+nsp":
        outputs, _ = _encode(params, cfg, batch, labelled)
        ref_outputs, _ = padded_encode(params, cfg, batch)
        losses, grads = gradients(params, cfg, batch)
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_encode", padded_encode)
            patch.setattr(model_module, "backprop_encoder", padded_backprop)
            ref_losses, ref_grads = gradients(params, cfg, batch)
        assert losses["mlm_positions"] == ref_losses["mlm_positions"]
        out_errors += [abs(losses[key] - ref_losses[key]) / abs(ref_losses[key])
                       for key in ("mlm_loss", "nsp_loss", "total")]
    else:
        outputs, grads = head_gradients(
            _encode, backprop_encoder, params, cfg, batch, upstream)
        ref_outputs, ref_grads = head_gradients(
            padded_encode, padded_backprop, params, cfg, batch, upstream)
    assert set(grads) == set(ref_grads)
    scale = max(np.abs(ref).max() for ref in ref_grads.values())
    grad_error = max(float(np.abs(grads[name] - ref).max()) for name, ref in ref_grads.items())
    # the rows the last layer ran on: what the head reads, with [CLS]
    cls = np.zeros_like(labelled)
    cls[:, 0] = True
    read = {"classifier": cls, "tagger": cls | labelled, "mlm+nsp": cls | labelled}[upstream]
    sequence = outputs["sequence"]
    assert np.all(sequence[~read] == 0.0)
    for got, ref in ((outputs["pooled"], ref_outputs["pooled"]),
                     (outputs["nsp_logits"], ref_outputs["nsp_logits"]),
                     (sequence[read], ref_outputs["sequence"][read])):
        assert got.dtype == ref.dtype == dtype
        out_errors.append(float(np.abs(got - ref).max() / np.abs(ref).max()))
    out_bound, grad_bound = _BOUNDS[dtype]
    assert max(out_errors) <= out_bound
    assert grad_error <= grad_bound * scale


class TestUnpaddedEncoder:
    """The encoder skips unattended rows and runs attention on per-sequence
    slots; its outputs, losses and gradients must be the padded encoder's
    to rounding (``_BOUNDS``), in float64 and in the float32 that
    pretraining runs."""

    # float64 parameters: the padded reference and the 1e-10 bound are float64's
    cfg = ModelConfig(layers=2, heads=2, hidden=64, intermediate=256, vocab_size=300,
                      max_positions=64)
    params = float64_params(cfg, seed=31)
    # the FFN's products take packed operands of both widths; with equal
    # widths, operands swapped between them would keep their shapes
    square_cfg = ModelConfig(layers=2, heads=2, hidden=64, intermediate=64, vocab_size=300,
                             max_positions=64)
    square_params = float64_params(square_cfg, seed=31)

    @pytest.mark.parametrize("param_noise", _GRID_PARAM_NOISE)
    @pytest.mark.parametrize("upstream", _GRID_UPSTREAM)
    @pytest.mark.parametrize("layout", _GRID_LAYOUT)
    @pytest.mark.parametrize("length", _GRID_L)
    @pytest.mark.parametrize("bsz", _GRID_B)
    def test_bytes_equal_padded_reference(self, bsz, length, layout, upstream, param_noise,
                                          monkeypatch):
        assert_within_padded_reference(
            self.params, self.cfg, bsz, length, layout, upstream, param_noise, monkeypatch)

    @pytest.mark.parametrize("upstream", _GRID_UPSTREAM)
    @pytest.mark.parametrize("layout", _GRID_LAYOUT)
    @pytest.mark.parametrize("length", _GRID_L)
    @pytest.mark.parametrize("bsz", _GRID_B)
    def test_hidden_equal_to_intermediate(self, bsz, length, layout, upstream, monkeypatch):
        assert_within_padded_reference(
            self.square_params, self.square_cfg, bsz, length, layout, upstream, 0.1, monkeypatch)

    @pytest.mark.parametrize("param_noise", _GRID_PARAM_NOISE)
    @pytest.mark.parametrize("upstream", _GRID_UPSTREAM)
    @pytest.mark.parametrize("layout", _GRID_LAYOUT)
    @pytest.mark.parametrize("length", _GRID_L)
    @pytest.mark.parametrize("bsz", _GRID_B)
    def test_float32_within_padded_reference(self, bsz, length, layout, upstream, param_noise,
                                             monkeypatch):
        # the float64 draws plus noise, each rounded once to float32
        assert_within_padded_reference(
            self.params, self.cfg, bsz, length, layout, upstream, param_noise, monkeypatch,
            dtype=np.float32)

    def test_a_classifier_batch_of_one_runs_one_row(self):
        batch = grid_batch(1, 18, "ragged")
        _, cache = _encode(self.params, self.cfg, batch, TASKS["cls"].reads(batch, None))
        # one row in two query slots; the grid's case (1, 18, ragged,
        # classifier, 0.1) holds it to the padded reference's bound
        assert cache["read"].flat.tolist() == [0]
        assert cache["read"].width == 2
        assert cache["layers"][-1]["x_attn"].shape == (1, self.cfg.hidden)

    def test_upstream_gradient_on_padding_is_ignored(self):
        cfg = desk_config(vocab_size=300, max_positions=64)
        batch = grid_batch(3, 18, "ragged")
        upstream = np.random.default_rng(4).normal(size=(3, 18, 64))
        noisy = upstream.copy()
        clean = upstream * batch["attention_mask"][..., None]
        results = []
        for d_sequence in (clean, noisy):
            # the backward pass consumes its cache, so each one encodes afresh
            _, cache = _encode(self.params, cfg, batch)
            grads = {name: np.zeros_like(value) for name, value in self.params.items()}
            backprop_encoder(self.params, cfg, cache, d_sequence, None, grads)
            results.append(grads)
        for name in results[0]:
            assert results[0][name].tobytes() == results[1][name].tobytes(), name

    def test_a_consumed_cache_is_refused(self):
        batch = grid_batch(3, 18, "ragged")
        _, cache = _encode(self.params, self.cfg, batch)
        d_pooled = np.ones((3, self.cfg.hidden))
        grads = {name: np.zeros_like(value) for name, value in self.params.items()}
        backprop_encoder(self.params, self.cfg, cache, None, d_pooled, grads)
        with pytest.raises(RuntimeError, match="consumed by an earlier backprop_encoder call"):
            backprop_encoder(self.params, self.cfg, cache, None, d_pooled, grads)

    def test_a_cache_built_for_no_backward_pass_is_refused(self):
        batch = grid_batch(3, 18, "ragged")
        outputs, cache = _encode(self.params, self.cfg, batch, backward=False)
        assert set(cache) == {"rows", "read"}
        recorded, _ = _encode(self.params, self.cfg, batch)
        for key, value in recorded.items():
            assert outputs[key].tobytes() == value.tobytes(), key
        grads = {name: np.zeros_like(value) for name, value in self.params.items()}
        with pytest.raises(RuntimeError, match="built for no backward pass"):
            backprop_encoder(self.params, self.cfg, cache, None, np.ones((3, 64)), grads)


class TestTrailingPadding:
    """Columns that no row attends, added to a batch whose width is a
    multiple of 16, change no output or loss bit: the attention products
    stop at the batch's last attended column rounded up to 16, and every
    other operation runs on the attended rows."""

    cfg = desk_config(vocab_size=300)  # 128 positions

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_and_losses_do_not_depend_on_the_padded_width(self, dtype):
        params = {name: value.astype(dtype) for name, value in init_params(self.cfg, 41).items()}
        # one row of the 16 fills all 64 columns
        base = grid_batch(16, 64, "ragged")
        runs = []
        for width in (64, 96, 128):
            batch = {
                key: value if value.ndim == 1 else np.pad(
                    value, ((0, 0), (0, width - 64)),
                    constant_values=-100 if key == "mlm_labels" else 0)
                for key, value in base.items()
            }
            outputs = forward(params, self.cfg, batch)
            losses, _ = gradients(params, self.cfg, batch)
            for key in ("sequence", "mlm_logits"):
                assert np.all(outputs[key][:, 64:] == 0.0), key
                outputs[key] = outputs[key][:, :64]
            runs.append((outputs, losses))
        (outputs, losses), others = runs[0], runs[1:]
        for other_outputs, other_losses in others:
            assert other_losses == losses
            for key, value in outputs.items():
                assert other_outputs[key].tobytes() == value.tobytes(), key


class TestBatchGuards:
    """The encoder's exactness rests on 0/1 masks that attend [CLS] and put
    no label on padding; anything else is a DataError naming the row."""

    cfg = desk_config(vocab_size=300, max_positions=32)
    params = init_params(cfg, seed=2)

    def _batch(self):
        return make_batch(np.random.default_rng(3), 300, bsz=3, length=10, pad_from=7)

    def test_attention_value_outside_zero_one(self):
        batch = self._batch()
        batch["attention_mask"][1, 3] = 2
        with pytest.raises(DataError, match=r"row 1 holds an attention value outside \{0, 1\}"):
            forward(self.params, self.cfg, batch)

    def test_unattended_first_position(self):
        batch = self._batch()
        batch["attention_mask"][2, 0] = 0
        with pytest.raises(DataError, match="row 2 leaves position 0 unattended"):
            gradients(self.params, self.cfg, batch)

    def test_all_zero_attention_row(self):
        batch = self._batch()
        batch["attention_mask"][0] = 0
        batch["mlm_labels"][0] = -100
        with pytest.raises(DataError, match="row 0 leaves position 0 unattended"):
            forward(self.params, self.cfg, batch)

    def test_mlm_label_on_unattended_position(self):
        batch = self._batch()
        batch["mlm_labels"][1, 8] = 17
        with pytest.raises(DataError, match="row 1 carries an MLM label on an unattended"):
            gradients(self.params, self.cfg, batch)
