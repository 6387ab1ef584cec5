"""The padded encoder: every position runs through every layer.

This is the encoder as it was before token-wise work moved to the
attended rows only, without the dropout it has since lost. It computes in
the parameters' dtype, as the encoder does, so the tests hold the float32
encoder that pretraining runs to a padded run as well as the float64 one.
The tests hold the unpadded encoder in ``farsilm.model`` to its outputs,
losses and gradients within rounding bounds. It keeps its own copies of the helpers, so that a change
to a shared helper cannot move both sides at once, except the normal CDF:
the GELU takes the library's ``_normal_cdf``, whose values the tests in
``test_model.py`` hold to ``scipy.special.ndtr``, so that the byte-equality
grid compares the two encoders, not two CDFs.

``reference_adam_step`` is the Adam update as it was before it ran in
scratch buffers; ``farsilm.training.adam_step`` is held to its bytes.
"""

import math

import numpy as np
from farsilm.model import _MASK_BIAS, LN_EPS, _normal_cdf, _softmax, _validate_batch


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    sig = np.sqrt(var + LN_EPS)
    xhat = (x - mu) / sig
    return g * xhat + b, (xhat, sig, g)


def _layer_norm_back(dy, cache):
    xhat, sig, g = cache
    dxhat = dy * g
    dx = (
        dxhat - dxhat.mean(-1, keepdims=True) - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    ) / sig
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axes)
    db = dy.sum(axes)
    return dx, dg, db


def _gelu(x):
    """Exact GELU; also returns the normal CDF so the backward pass can
    reuse it instead of evaluating it a second time."""
    cdf = _normal_cdf(x)
    return x * cdf, cdf


def _gelu_back(dy, x, cdf):
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return dy * (cdf + x * phi)


def padded_encode(params, config, batch, reads=None):
    """``_encode`` with every position in the (B, L) layout. Every position
    runs through the last layer too, so ``reads`` is accepted and ignored."""
    _validate_batch(config, batch)
    ids = batch["input_ids"]
    segs = batch["segment_ids"]
    attn = batch["attention_mask"]
    bsz, length = ids.shape
    nh = config.heads
    dh = config.hidden // nh

    emb = params["tok_emb"][ids] + params["pos_emb"][:length] + params["seg_emb"][segs]
    x, emb_ln_cache = _layer_norm(emb, params["emb_ln_g"], params["emb_ln_b"])

    # keys with attention 0 get a huge negative bias; exp underflows to an
    # exact zero weight, which is what makes padding invariance exact
    bias = ((1.0 - attn[:, None, None, :]) * _MASK_BIAS).astype(x.dtype)

    layer_caches = []
    for layer in range(config.layers):
        p = f"layer{layer}."
        x_in = x
        q = x @ params[p + "q_w"] + params[p + "q_b"]
        k = x @ params[p + "k_w"] + params[p + "k_b"]
        v = x @ params[p + "v_w"] + params[p + "v_b"]
        qh = q.reshape(bsz, length, nh, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(bsz, length, nh, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(bsz, length, nh, dh).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh) + bias
        probs = _softmax(scores)
        ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(bsz, length, config.hidden)
        attn_out = ctx @ params[p + "o_w"] + params[p + "o_b"]
        x_attn, attn_ln_cache = _layer_norm(
            x_in + attn_out, params[p + "attn_ln_g"], params[p + "attn_ln_b"]
        )

        ffn_pre = x_attn @ params[p + "ffn_w1"] + params[p + "ffn_b1"]
        ffn_act, ffn_cdf = _gelu(ffn_pre)
        ffn_out = ffn_act @ params[p + "ffn_w2"] + params[p + "ffn_b2"]
        x, ffn_ln_cache = _layer_norm(
            x_attn + ffn_out, params[p + "ffn_ln_g"], params[p + "ffn_ln_b"]
        )
        layer_caches.append(
            dict(
                x_in=x_in, q=q, k=k, v=v, qh=qh, kh=kh, vh=vh, probs=probs,
                ctx=ctx, attn_ln=attn_ln_cache, x_attn=x_attn, ffn_pre=ffn_pre,
                ffn_cdf=ffn_cdf, ffn_act=ffn_act, ffn_ln=ffn_ln_cache,
            )
        )

    cls_state = x[:, 0]
    pool_pre = cls_state @ params["pool_w"] + params["pool_b"]
    pooled = np.tanh(pool_pre)
    nsp_logits = pooled @ params["nsp_w"] + params["nsp_b"]

    outputs = {"nsp_logits": nsp_logits, "pooled": pooled, "sequence": x}
    cache = dict(
        ids=ids, segs=segs, length=length, emb_ln=emb_ln_cache,
        layers=layer_caches, cls_state=cls_state, pooled=pooled,
    )
    return outputs, cache


def padded_backprop(params, config, cache, d_sequence, d_pooled, grads):
    """``backprop_encoder`` with every position in the (B, L) layout."""
    ids, segs, length = cache["ids"], cache["segs"], cache["length"]
    bsz = ids.shape[0]
    nh = config.heads
    dh = config.hidden // nh
    dtype = cache["pooled"].dtype
    dx = (np.zeros(ids.shape + (config.hidden,), dtype) if d_sequence is None
          else np.array(d_sequence, dtype))

    if d_pooled is not None:
        dpool_pre = d_pooled * (1.0 - cache["pooled"] ** 2)
        grads["pool_w"] += cache["cls_state"].T @ dpool_pre
        grads["pool_b"] += dpool_pre.sum(0)
        dx[:, 0] += dpool_pre @ params["pool_w"].T

    for layer in reversed(range(config.layers)):
        p = f"layer{layer}."
        c = cache["layers"][layer]

        dsum, dg, db = _layer_norm_back(dx, c["ffn_ln"])
        grads[p + "ffn_ln_g"] += dg
        grads[p + "ffn_ln_b"] += db
        flat_dffn = dsum.reshape(-1, config.hidden)
        flat_act = c["ffn_act"].reshape(-1, config.intermediate)
        grads[p + "ffn_w2"] += flat_act.T @ flat_dffn
        grads[p + "ffn_b2"] += flat_dffn.sum(0)
        dact = dsum @ params[p + "ffn_w2"].T
        dffn_pre = _gelu_back(dact, c["ffn_pre"], c["ffn_cdf"])
        flat_dpre = dffn_pre.reshape(-1, config.intermediate)
        flat_x_attn = c["x_attn"].reshape(-1, config.hidden)
        grads[p + "ffn_w1"] += flat_x_attn.T @ flat_dpre
        grads[p + "ffn_b1"] += flat_dpre.sum(0)
        dx_attn = dsum + dffn_pre @ params[p + "ffn_w1"].T

        dsum, dg, db = _layer_norm_back(dx_attn, c["attn_ln"])
        grads[p + "attn_ln_g"] += dg
        grads[p + "attn_ln_b"] += db
        flat_dattn = dsum.reshape(-1, config.hidden)
        flat_ctx = c["ctx"].reshape(-1, config.hidden)
        grads[p + "o_w"] += flat_ctx.T @ flat_dattn
        grads[p + "o_b"] += flat_dattn.sum(0)
        dctx = (dsum @ params[p + "o_w"].T).reshape(bsz, length, nh, dh)
        dctx = dctx.transpose(0, 2, 1, 3)

        dprobs = dctx @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["probs"].transpose(0, 1, 3, 2) @ dctx
        dscores = c["probs"] * (dprobs - (dprobs * c["probs"]).sum(-1, keepdims=True))
        dscores /= math.sqrt(dh)
        dqh = dscores @ c["kh"]
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"]

        def merge(heads_grad):
            return heads_grad.transpose(0, 2, 1, 3).reshape(bsz, length, config.hidden)

        dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)
        flat_x_in = c["x_in"].reshape(-1, config.hidden)
        for name, dmat in (("q", dq), ("k", dk), ("v", dv)):
            flat = dmat.reshape(-1, config.hidden)
            grads[p + f"{name}_w"] += flat_x_in.T @ flat
            grads[p + f"{name}_b"] += flat.sum(0)
        dx = (
            dsum
            + dq @ params[p + "q_w"].T
            + dk @ params[p + "k_w"].T
            + dv @ params[p + "v_w"].T
        )

    # embedding backward
    demb, dg, db = _layer_norm_back(dx, cache["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    np.add.at(grads["tok_emb"], ids, demb)
    grads["pos_emb"][:length] += demb.sum(0)
    np.add.at(grads["seg_emb"], segs, demb)


def reference_adam_step(params, grads, state, config):
    """``adam_step`` with fresh temporaries for every operation."""
    state.step += 1
    t = state.step
    lr = config.learning_rate
    if config.warmup_steps > 0:
        lr *= min(1.0, t / config.warmup_steps)
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.epsilon)
