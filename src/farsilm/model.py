"""A miniature BERT-style bidirectional encoder with MLM and NSP heads.

Everything is plain NumPy with hand-written backpropagation, so the whole
training story fits on a laptop CPU and every gradient can be audited
against central differences. Conventions follow the original BERT:
post-layer-norm residual blocks, exact GELU, a tanh pooler over [CLS],
and an MLM decoder tied to the token embedding table.

Parameters live in a flat dict of named arrays, views into one buffer per
dtype (:func:`pack`); every shape is a function of :class:`ModelConfig`
and audited by :func:`shape_audit`. Every
activation, cache and gradient takes the parameters' dtype: float32 as
:func:`init_params` returns them, float64 for a float64 dict, which the
gradient check and float64 checkpoints use. Losses are float64 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError, DataError, check_seed
from .pretrain_data import IGNORE_INDEX

LN_EPS = 1e-12
_MASK_BIAS = -1e9
_INIT_STD = 0.02
# segment ids are 0 (sentence A) or 1 (sentence B), as the example file holds them
TYPE_VOCAB = 2


@dataclass(frozen=True)
class ModelConfig:
    """Encoder shape; defaults mirror the full-size configuration."""

    layers: int = 12
    heads: int = 12
    hidden: int = 768
    intermediate: int = 3072
    vocab_size: int = 100_000
    max_positions: int = 512

    def __post_init__(self):
        for name in ("layers", "heads", "hidden", "intermediate", "vocab_size", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} is not divisible by heads {self.heads}")


def desk_config(vocab_size: int, max_positions: int = 128) -> ModelConfig:
    """The laptop-scale profile used throughout the tests and demos."""
    return ModelConfig(
        layers=2,
        heads=2,
        hidden=64,
        intermediate=256,
        vocab_size=vocab_size,
        max_positions=max_positions,
    )


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, i = config.hidden, config.intermediate
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, h),
        "pos_emb": (config.max_positions, h),
        "seg_emb": (TYPE_VOCAB, h),
        "emb_ln_g": (h,),
        "emb_ln_b": (h,),
    }
    for layer in range(config.layers):
        p = f"layer{layer}."
        shapes.update(
            {
                p + "q_w": (h, h), p + "q_b": (h,),
                p + "k_w": (h, h), p + "k_b": (h,),
                p + "v_w": (h, h), p + "v_b": (h,),
                p + "o_w": (h, h), p + "o_b": (h,),
                p + "attn_ln_g": (h,), p + "attn_ln_b": (h,),
                p + "ffn_w1": (h, i), p + "ffn_b1": (i,),
                p + "ffn_w2": (i, h), p + "ffn_b2": (h,),
                p + "ffn_ln_g": (h,), p + "ffn_ln_b": (h,),
            }
        )
    shapes.update(
        {
            "pool_w": (h, h), "pool_b": (h,),
            "mlm_w": (h, h), "mlm_b": (h,),
            "mlm_ln_g": (h,), "mlm_ln_b": (h,),
            "mlm_out_b": (config.vocab_size,),
            "nsp_w": (h, 2), "nsp_b": (2,),
        }
    )
    return shapes


def param_count(config: ModelConfig) -> int:
    """Analytic parameter count (the tied MLM decoder adds no weights)."""
    return sum(int(np.prod(s)) for s in _param_shapes(config).values())


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    # inverse-CDF sampling on [-2 sigma, 2 sigma]: one uniform per element,
    # so the draw count is fixed and the result reproducible
    lo, hi = ndtr(-2.0), ndtr(2.0)
    u = rng.random(shape)
    return ndtri(lo + u * (hi - lo)) * std


class Packed(dict):
    """Named arrays that are views into one 1-D buffer per dtype, as
    :func:`pack` builds them. ``layout`` holds each buffer with the names
    and the views it was cut into, in buffer order: an array's address is
    not cheap to read, so :func:`buffers` checks that each array is still
    the view ``pack`` made instead."""

    layout: tuple = ()  # (names, buffer, views) for each buffer

    def __reduce__(self):
        # a pickled or deep-copied view is an array of its own, so a copy
        # is a plain dict, which holds no layout to misread
        return dict, (dict(self),)


def pack(like, dtype=None, values=None) -> Packed:
    """Arrays shaped like ``like``'s, in its order, as views into one new
    1-D buffer for each dtype among ``like``'s arrays, cut in dict order.

    Each buffer is zeroed or, given ``values``, holds the values of its
    names, copied in one call. ``dtype`` sets every buffer's dtype, which is
    otherwise its group's: Adam's float64 moments take the parameters'
    grouping, so the parameter, gradient and moment buffers line up.
    This is the one constructor of every dict that :func:`adam_step
    <farsilm.training.adam_step>` updates.
    """
    out, layout = {}, []
    for group in dict.fromkeys(value.dtype for value in like.values()):
        names = tuple(name for name, value in like.items() if value.dtype == group)
        sizes = [like[name].size for name in names]
        if values is None:
            buffer = np.zeros(sum(sizes), dtype or group)
        else:
            buffer = np.concatenate([np.ravel(values[name]) for name in names],
                                    dtype=dtype or group)
        views = tuple(view.reshape(like[name].shape) for name, view
                      in zip(names, np.split(buffer, np.cumsum(sizes)[:-1])))
        out.update(zip(names, views))
        layout.append((names, buffer, views))
    packed = Packed((name, out[name]) for name in like)
    packed.layout = tuple(layout)
    return packed


def buffers(named, what: str) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """The (names, buffer) pairs whose views ``named``'s arrays are, one
    per dtype: its :func:`pack` layout while every array is still the view
    it made, else one contiguous array per dtype, which is its own buffer.
    Any other dict is a ValueError naming ``what``."""
    layout = getattr(named, "layout", ())
    if len(named) == sum(len(names) for names, _, _ in layout) and all(
        named.get(name) is view for names, _, views in layout for name, view in zip(names, views)
    ):
        return [(names, buffer) for names, buffer, _ in layout]
    first = {}
    for name, value in named.items():
        if value.dtype in first or not value.flags.c_contiguous:
            raise ValueError(f"{what} is not views into one buffer per dtype; "
                             "build it with farsilm.model.pack")
        first[value.dtype] = ((name,), value.reshape(-1))
    return list(first.values())


def init_params(config: ModelConfig, seed: int) -> Packed:
    """Truncated-normal weights, zero biases, unit layer-norm gains, as
    float32: float64 draws, each rounded once. The arrays are views into
    one buffer (:func:`pack`)."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith(("_g",)):
            params[name] = np.ones(shape, np.float32)
        elif name.endswith(("_b",)) or name == "mlm_out_b":
            params[name] = np.zeros(shape, np.float32)
        else:
            params[name] = _truncated_normal(rng, shape, _INIT_STD).astype(np.float32)
    return pack(params, values=params)


def shape_audit(params: dict[str, np.ndarray], config: ModelConfig) -> None:
    """Raise unless params holds exactly the tensors the config dictates."""
    expected = _param_shapes(config)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise DataError(f"parameter names mismatch: missing {missing}, extra {extra}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise DataError(
                f"parameter {name} has shape {params[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise DataError(f"parameter {name} contains non-finite values")


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(-1, keepdims=True)
    sig = np.sqrt(var + LN_EPS)
    xhat = centered
    xhat /= sig
    y = xhat * g
    y += b
    return y, (xhat, sig, g)


def _layer_norm_back(dy, cache):
    xhat, sig, g = cache
    dxhat = dy * g
    dx = dxhat - dxhat.mean(-1, keepdims=True)
    dx -= xhat * (dxhat * xhat).mean(-1, keepdims=True)
    dx /= sig
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axes)
    db = dy.sum(axes)
    return dx, dg, db


def _gelu(x):
    """Exact GELU; also returns the normal CDF so the backward pass can
    reuse it instead of evaluating ndtr a second time."""
    cdf = ndtr(x)
    return x * cdf, cdf


def _gelu_back(dy, x, cdf):
    # dy * (cdf + x * phi(x)), evaluated in place in that order
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad /= math.sqrt(2.0 * math.pi)
    grad *= x
    grad += cdf
    grad *= dy
    return grad


def _softmax(x):
    shifted = x - x.max(-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(-1, keepdims=True)


def _softmax_xent_grad(logits, gold):
    """Gradient of the mean softmax cross-entropy over the targets in
    ``gold`` that are not IGNORE_INDEX, for logits of shape gold.shape + (C,)."""
    selected = gold != IGNORE_INDEX
    dlogits = _softmax(logits) * selected[..., None]
    picked = np.nonzero(selected)
    dlogits[picked + (gold[picked],)] -= 1.0
    dlogits /= int(selected.sum())
    return dlogits


def _log_softmax(x):
    shifted = x - x.max(-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))


def _validate_batch(config: ModelConfig, batch: dict[str, np.ndarray]) -> None:
    ids = batch["input_ids"]
    if ids.shape[1] > config.max_positions:
        raise DataError(
            f"sequence length {ids.shape[1]} exceeds max_positions {config.max_positions}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise DataError(
            f"token ids must lie in [0,{config.vocab_size}), got range "
            f"[{ids.min()},{ids.max()}]"
        )
    segs = batch["segment_ids"]
    if segs.min() < 0 or segs.max() >= TYPE_VOCAB:
        raise DataError(f"segment ids must lie in [0,{TYPE_VOCAB})")
    # the encoder skips unattended rows, which is exact only for 0/1 masks
    # that attend each row's [CLS] slot and put no MLM label on padding
    attn = batch["attention_mask"]
    checks = [
        ((attn != 0) & (attn != 1), "holds an attention value outside {0, 1}"),
        (attn[:, :1] != 1, "leaves position 0 unattended"),
    ]
    labels = batch.get("mlm_labels")
    if labels is not None:
        checks.append(((labels != IGNORE_INDEX) & (attn == 0),
                       "carries an MLM label on an unattended position"))
    for bad, what in checks:
        if bad.any():
            raise DataError(f"batch row {int(np.flatnonzero(bad.any(1))[0])} {what}")


class _Rows:
    """A set of positions of a (B, L) batch: the attended ones, where every
    layer but the last runs its token-wise work, or the subset of them
    whose final hidden states a head reads, where the last layer runs it.

    Token-wise work runs on arrays of shape (N, K) holding the N rows in
    batch order; a batch without padding takes the same path with
    N = B * L. ``keep`` indexes the set's rows within its parent's token
    rows. The attention products run on each sequence's rows packed into
    S slots (:meth:`split`). A row's slot is its rank among the subset's
    rows of its sequence, so S is the most rows one sequence keeps, and at
    least two: a one-slot product goes to a matrix-vector kernel. For the
    attended set it is the row's position (``positions``, which only this
    set has): the keys' slot, and the queries' too, which is their rank
    under the prefix masks that collate builds. S is then the batch's last
    attended column + 1, rounded up to a multiple of 16 but not past L.
    A (B, heads, S, K) array of slots lives in (B, S, heads * K) memory,
    so a row's heads sit side by side in one row of it. The backward
    pass's products run on the token rows packed into L-row blocks.

    These slot counts keep the padded (L, L) attention's bits at
    pretraining's L = 64. With NumPy's OpenBLAS on AVX-512 three things
    round otherwise: a product whose columns end 1 to 8 past a multiple
    of 16, a product with a transposed right operand and few
    multiply-adds, and a softmax row sum over other than a multiple of 8
    entries. Hence the rounding to 16, and the keys' contiguous (K, S)
    operand for the scores (:meth:`split_t`).
    """

    def __init__(self, shape, heads, flat, keep=slice(None), ranked=False):
        self.bsz, self.length = shape
        self.heads = heads
        self.flat = flat
        self.keep = keep
        self.seqs = flat // self.length
        # _validate_batch guarantees each row attends its position 0
        self.cls = np.searchsorted(flat, np.arange(self.bsz) * self.length)
        if ranked:  # a subset: each row's rank in its sequence; no positions
            self.slot = np.arange(flat.size) - self.cls[self.seqs]
            self.width = max(int(self.slot.max()) + 1, 2)
        else:  # the attended set: each row's position
            self.slot = self.positions = flat % self.length
            self.width = min((int(self.slot.max()) + 16) // 16 * 16, self.length)
        # each row's place in a (B * S, K) array
        self.index = self.seqs * self.width + self.slot

    def subset(self, reads: np.ndarray) -> "_Rows":
        """The rows where the (B, L) mask ``reads`` holds, and every [CLS] row."""
        picked = reads.reshape(-1)[self.flat]
        picked[self.cls] = True
        keep = np.flatnonzero(picked)
        return _Rows((self.bsz, self.length), self.heads, self.flat[keep], keep, ranked=True)

    def gather(self, padded: np.ndarray) -> np.ndarray:
        """Token rows of a (B, L, ...) array."""
        return padded.reshape((-1,) + padded.shape[2:])[self.flat]

    def scatter(self, tokens: np.ndarray) -> np.ndarray:
        """(B, L, K) array with the token rows in place and zeros elsewhere."""
        padded = np.zeros((self.bsz * self.length, tokens.shape[-1]), tokens.dtype)
        padded[self.flat] = tokens
        return padded.reshape(self.bsz, self.length, -1)

    def split(self, tokens: np.ndarray) -> np.ndarray:
        """The (N, K) token rows in their sequences' slots, split into
        heads: a (B, heads, S, K / heads) view of (B, S, K) memory, with
        zeros in the empty slots."""
        packed = np.zeros((self.bsz * self.width, tokens.shape[-1]), tokens.dtype)
        packed[self.index] = tokens
        return packed.reshape(self.bsz, self.width, self.heads, -1).swapaxes(1, 2)

    def split_t(self, tokens: np.ndarray) -> np.ndarray:
        """split's heads transposed into contiguous (B, heads, K / heads, S)
        memory, as the right operand of a product over K / heads."""
        packed = np.zeros((self.bsz, self.heads, tokens.shape[-1] // self.heads, self.width),
                          tokens.dtype)
        packed[self.seqs, :, :, self.slot] = tokens.reshape(len(tokens), self.heads, -1)
        return packed

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for (B, heads, S, m) and (B, heads, m, K) operands, into a
        (B, heads, S, K) view of (B, S, heads * K) memory, as split lays
        its rows out and merge reads them."""
        out = np.empty((self.bsz, self.width, self.heads, b.shape[-1]), a.dtype)
        return np.matmul(a, b, out=out.swapaxes(1, 2))

    def merge(self, packed: np.ndarray) -> np.ndarray:
        """The set's rows of a (B, heads, S, K) view that split or matmul
        made, heads joined: (N, heads * K)."""
        memory = packed.swapaxes(1, 2).reshape(self.bsz * self.width, -1)
        return np.take(memory, self.index, axis=0)


def _affine(x, w, b):
    """x @ w + b, adding the bias in place."""
    out = x @ w
    out += b
    return out


def _blocks(rows: np.ndarray, length: int) -> np.ndarray:
    """The (N, K) ``rows``, in order, in zeroed (ceil(N / L), L, K) blocks."""
    n, width = rows.shape
    blocks = np.zeros((-(-n // length), length, width), rows.dtype)
    blocks.reshape(-1, width)[:n] = rows
    return blocks


def _xty(x: np.ndarray, dy: np.ndarray, length: int, out: np.ndarray) -> None:
    """Add x.T @ dy into ``out`` for (N, K) and (N, K') rows, or their
    :func:`_blocks`, as one (K, L) @ (L, K') product per block, added in
    block order: no BLAS sum runs over more than L rows."""
    xb, dyb = (a if a.ndim == 3 else _blocks(a, length) for a in (x, dy))
    for x_block, dy_block in zip(xb, dyb):
        out += np.matmul(x_block.T, dy_block)


def _affine_back(params, grads, x, dy, w, b, length):
    """Add the gradients of x @ params[w] + params[b] into grads[w] and
    grads[b], for rows ``x`` and upstream rows ``dy``, each (N, K) or in
    (n, L, K) blocks; returns dy @ params[w].T in dy's layout.

    x.T @ dy always runs in L-row blocks (:func:`_xty`). dy @ w.T runs on
    dy as given, because a product's rounding depends on its row count:
    in float32 on one thread with K = 64, 1 to 18 rows padded into a
    64-row block rounded otherwise than the same rows alone in 50 of 50
    trials (19 to 32 matched). The encoder's dense_back hands over L-row
    blocks, the padded encoder's (L, K) products, whose bits training
    keeps. The heads and the pooler hand over their arrays as their
    forward pass laid them out, (N, K) rows or a tagger's (B, L, K):
    their products never ran in blocks, and blocks would move their bits."""
    _xty(x, dy, length, grads[w])
    grads[b] += dy.reshape(-1, dy.shape[-1]).sum(0)
    return np.matmul(dy, params[w].T)


def _encode(params, config, batch, reads=None, backward=True):
    """Run the encoder and the NSP head; returns (outputs, cache).

    outputs holds nsp_logits, pooled and sequence; cache holds what
    :func:`backprop_encoder` reads but the GELU output and the slot
    layouts of queries, keys, values and attention probabilities, which it
    forms again by the operations that formed them here. Both attention
    products run on each sequence's slots (:meth:`_Rows.split`): the
    scores are (B, nh, R, S) for the R query slots the layer keeps and
    the S key slots that reach the batch's last attended column, and the
    softmax runs on them in place. The cache holds the kept query rows'
    probabilities, (N, nh * S). Columns past S take no part, so more
    padding columns on a batch whose width is a multiple of 16 change no
    output bit. The MLM
    head is not run here: callers apply :func:`_mlm_head` to whichever
    rows they score. Unattended positions are skipped: ``sequence`` holds exact zeros
    there, and nothing at an attended position depends on them.

    ``reads``, a (B, L) boolean mask, names the positions whose final
    states the caller reads besides [CLS]: the labelled rows in
    :func:`gradients`, the gold rows in :func:`head_gradients` (none for
    a classifier, each word's first piece for a tagger), and the same in
    prediction; None reads every attended one, as :func:`forward` does.
    The last layer runs its token-wise work on those rows only (see
    :meth:`_Rows.subset`), and ``sequence`` is exactly zero at the others.
    Its keys and values still cover every attended row, which the read
    queries attend to.

    With ``backward`` False no backward pass follows: the cache holds only
    the row sets, and each layer's arrays but its output are freed as the
    layer ends. The outputs are the same bytes either way.
    """
    _validate_batch(config, batch)
    nh = config.heads
    rows = _Rows(batch["attention_mask"].shape, nh, np.flatnonzero(batch["attention_mask"]))
    read = rows if reads is None else rows.subset(reads)
    ids = rows.gather(batch["input_ids"])
    segs = rows.gather(batch["segment_ids"])
    dh = config.hidden // nh

    x = params["tok_emb"][ids] + params["pos_emb"][rows.positions]
    x += params["seg_emb"][segs]
    x, emb_ln_cache = _layer_norm(x, params["emb_ln_g"], params["emb_ln_b"])

    # keys with attention 0 get a huge negative bias; exp underflows to an
    # exact zero weight, which is what makes padding invariance exact
    attended = batch["attention_mask"][:, None, None, :rows.width]
    bias = ((1.0 - attended) * _MASK_BIAS).astype(x.dtype)

    layer_caches = []
    for layer in range(config.layers):
        p = f"layer{layer}."
        # the rows this layer's output keeps: the read ones in the last layer
        out = read if layer == config.layers - 1 else rows
        x_in = x
        q = _affine(x[out.keep], params[p + "q_w"], params[p + "q_b"])
        k = _affine(x, params[p + "k_w"], params[p + "k_b"])
        v = _affine(x, params[p + "v_w"], params[p + "v_b"])
        # each sequence's kept queries against its keys, (B, nh, R, S),
        # scaled, biased and soft-maxed in place: the steps of _softmax
        probs = out.matmul(out.split(q), rows.split_t(k))
        probs /= math.sqrt(dh)
        probs += bias
        probs -= probs.max(-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(-1, keepdims=True)
        ctx = out.merge(out.matmul(probs, rows.split(v)))
        # the kept rows' probabilities, as the backward pass reads them
        probs = out.merge(probs) if backward else None
        attn_out = _affine(ctx, params[p + "o_w"], params[p + "o_b"])
        attn_out += x_in[out.keep]
        x_attn, attn_ln_cache = _layer_norm(
            attn_out, params[p + "attn_ln_g"], params[p + "attn_ln_b"]
        )

        ffn_pre = _affine(x_attn, params[p + "ffn_w1"], params[p + "ffn_b1"])
        ffn_act, ffn_cdf = _gelu(ffn_pre)
        ffn_out = _affine(ffn_act, params[p + "ffn_w2"], params[p + "ffn_b2"])
        ffn_out += x_attn
        x, ffn_ln_cache = _layer_norm(
            ffn_out, params[p + "ffn_ln_g"], params[p + "ffn_ln_b"]
        )
        if backward:
            layer_caches.append(dict(
                out=out, x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx,
                attn_ln=attn_ln_cache, x_attn=x_attn, ffn_pre=ffn_pre,
                ffn_cdf=ffn_cdf, ffn_ln=ffn_ln_cache,
            ))
        else:
            # nothing this layer made but x outlives it
            del (x_in, q, k, v, probs, ctx, attn_out, x_attn, attn_ln_cache, ffn_pre, ffn_act,
                 ffn_cdf, ffn_out, ffn_ln_cache)

    cls_state = x[read.cls]
    pool_pre = cls_state @ params["pool_w"] + params["pool_b"]
    pooled = np.tanh(pool_pre)
    nsp_logits = pooled @ params["nsp_w"] + params["nsp_b"]

    outputs = {"nsp_logits": nsp_logits, "pooled": pooled, "sequence": read.scatter(x)}
    cache = dict(rows=rows, read=read)
    if backward:
        cache.update(ids=ids, segs=segs, emb_ln=emb_ln_cache, layers=layer_caches,
                     cls_state=cls_state, pooled=pooled)
    return outputs, cache


def _mlm_head(params, x):
    """MLM transform plus the tied decoder over final hidden states of
    shape (..., H); returns (logits of shape (..., V), cache)."""
    pre = x @ params["mlm_w"] + params["mlm_b"]
    act, cdf = _gelu(pre)
    tr, ln_cache = _layer_norm(act, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = tr @ params["tok_emb"].T + params["mlm_out_b"]
    return logits, (x, pre, cdf, tr, ln_cache)


def forward(params, config: ModelConfig, batch):
    """Encoder outputs for one batch: mlm_logits, nsp_logits, pooled,
    sequence. The MLM head runs on the attended positions only, so
    ``sequence`` and ``mlm_logits`` are exactly zero at the others."""
    outputs, cache = _encode(params, config, batch, backward=False)
    rows = cache["rows"]
    logits, _ = _mlm_head(params, rows.gather(outputs["sequence"]))
    outputs["mlm_logits"] = rows.scatter(logits)
    return outputs


def _losses(mlm_logits, mlm_gold, nsp_logits, nsp_labels):
    """Loss record from MLM logits gathered at the labelled positions,
    shape (n_sel, V), with their gold ids, and from the NSP logits. Both
    log-softmaxes run in float64, whatever the logits' dtype.

    Also returns the float64 MLM log-softmax, which the backward pass turns
    into the softmax gradient without normalizing a second time.
    """
    n_sel = len(mlm_gold)
    mlm_logp = _log_softmax(mlm_logits.astype(np.float64, copy=False))
    if n_sel:
        mlm_loss = -mlm_logp[np.arange(n_sel), mlm_gold].sum() / n_sel
    else:
        mlm_loss = 0.0
    nsp_logp = _log_softmax(nsp_logits.astype(np.float64, copy=False))
    nsp_loss = -nsp_logp[np.arange(len(nsp_labels)), nsp_labels].mean()
    losses = {
        "mlm_loss": float(mlm_loss),
        "nsp_loss": float(nsp_loss),
        "total": float(mlm_loss + nsp_loss),
        "mlm_positions": n_sel,
    }
    return losses, mlm_logp


def compute_losses(outputs, batch) -> dict:
    """Mean cross-entropies: MLM over non-ignored positions, NSP over items.

    A batch with no masked positions yields mlm_loss 0.0 and the
    mlm_positions count says so; nothing here can produce a NaN.
    """
    labels = batch["mlm_labels"]
    selected = labels != IGNORE_INDEX
    losses, _ = _losses(
        outputs["mlm_logits"][selected], labels[selected],
        outputs["nsp_logits"], batch["nsp_labels"],
    )
    return losses


def zero_gradients(params) -> Packed:
    """Zeroed arrays shaped and typed like ``params``, in the same order:
    :func:`pack`'s views into one buffer per dtype, laid out as a packed
    ``params`` is, so a step allocates and zeroes its gradients in one call
    for a model of one dtype and Adam runs over the buffers."""
    return pack(params)


def gradients(params, config: ModelConfig, batch):
    """Losses plus analytic gradients of the total loss for every parameter.

    Only labelled positions are scored, so the last encoder layer and the
    MLM head run on just the rows that carry a label (and [CLS]).
    """
    labels = batch["mlm_labels"]
    selected = labels != IGNORE_INDEX
    outputs, cache = _encode(params, config, batch, selected)
    gold = labels[selected]
    sequence = outputs["sequence"]
    mlm_logits, (x_sel, mlm_pre, mlm_cdf, mlm_tr, mlm_ln) = _mlm_head(params, sequence[selected])
    nsp_logits, nsp_labels = outputs["nsp_logits"], batch["nsp_labels"]
    losses, mlm_logp = _losses(mlm_logits, gold, nsp_logits, nsp_labels)
    if not np.isfinite(losses["total"]):
        raise DataError(f"non-finite loss {losses['total']}; aborting backward pass")
    # the heads' arrays are dropped at their last use, before the encoder's backward pass
    del outputs, sequence, mlm_logits

    grads = zero_gradients(params)

    # MLM head backward over the labelled rows; with none, every MLM
    # gradient stays exactly zero. The softmax gradient is formed in float64
    # and rounded once to the parameters' dtype.
    n_sel = len(gold)
    length = labels.shape[1]
    dtype = params["tok_emb"].dtype
    dlogits = np.exp(mlm_logp, out=mlm_logp)
    dlogits[np.arange(n_sel), gold] -= 1.0
    dlogits /= max(n_sel, 1)
    dlogits = dlogits.astype(dtype, copy=False)
    _xty(dlogits, mlm_tr, length, grads["tok_emb"])
    grads["mlm_out_b"] += dlogits.sum(0)
    # dlogits @ tok_emb as 64-wide vocabulary slices, added in order: no
    # BLAS sum runs over the whole vocabulary
    dtr = dlogits[:, :64] @ params["tok_emb"][:64]
    for lo in range(64, config.vocab_size, 64):
        dtr += dlogits[:, lo:lo + 64] @ params["tok_emb"][lo:lo + 64]
    dact, dg, db = _layer_norm_back(dtr, mlm_ln)
    grads["mlm_ln_g"] += dg
    grads["mlm_ln_b"] += db
    dpre = _gelu_back(dact, mlm_pre, mlm_cdf)
    dx = np.zeros(selected.shape + (config.hidden,), dtype)
    dx[selected] = _affine_back(params, grads, x_sel, dpre, "mlm_w", "mlm_b", length)
    del mlm_logp, dlogits, dtr, dact, dpre, x_sel, mlm_pre, mlm_cdf, mlm_tr, mlm_ln

    dnsp = _softmax_xent_grad(nsp_logits, nsp_labels)
    dpooled = _affine_back(params, grads, cache["pooled"], dnsp, "nsp_w", "nsp_b", length)
    backprop_encoder(params, config, cache, dx, dpooled, grads)
    return losses, grads


def head_gradients(params, config: ModelConfig, batch, gold):
    """Gradients of the fine-tuning head's (``head_w``, ``head_b``) mean
    softmax cross-entropy for every parameter in ``params``.

    A (B,) ``gold`` holds each item's class, scored on the pooled [CLS]
    state. A (B, L) ``gold`` holds a tag at each position it scores on the
    final states and IGNORE_INDEX elsewhere; the last layer runs on those
    rows and [CLS] only, so a tagger scoring first pieces reads just them.
    """
    tagger = gold.ndim == 2
    reads = gold != IGNORE_INDEX if tagger else np.zeros(batch["input_ids"].shape, bool)
    outputs, cache = _encode(params, config, batch, reads)
    features = outputs["sequence" if tagger else "pooled"]
    dlogits = _softmax_xent_grad(features @ params["head_w"] + params["head_b"], gold)
    grads = zero_gradients(params)
    dfeatures = _affine_back(params, grads, features, dlogits, "head_w", "head_b", reads.shape[1])
    d_sequence, d_pooled = (dfeatures, None) if tagger else (None, dfeatures)
    backprop_encoder(params, config, cache, d_sequence, d_pooled, grads)
    return grads


def backprop_encoder(params, config: ModelConfig, cache, d_sequence, d_pooled, grads):
    """Accumulate encoder gradients for upstream gradients on the final
    hidden states and on the pooled [CLS] vector; either may be None.

    This is the backward half that :func:`gradients` and
    :func:`head_gradients` share, after their heads' :func:`_affine_back`;
    grads is mutated in place. ``d_sequence`` is read at the positions
    ``_encode`` was told are read (every attended one by default) and
    ignored elsewhere, as the outputs there are constant zeros.

    Token-wise work runs on each layer's rows: the read rows in the last
    layer, the attended rows below it. The attention backward runs on the
    forward pass's slots: ``dctx``, the cached probabilities, the queries,
    keys and values go into zeroed (B, nh, R or S, dh) layouts, the values
    transposed as the keys are for the scores, and the four products and
    the softmax backward run there. An empty query slot is a zero row in
    each of them.
    Each dense layer's backward is :func:`_affine_back`: its bias
    gradient sums the token rows, and each product ``x.T @ dy`` and
    ``dy @ w.T`` runs only on the N rows that carry gradient: the read
    rows for the last layer's FFN, output and query weights, the attended
    rows otherwise, packed once into zeroed (ceil(N / L), L, K) blocks.
    ``dy @ w.T`` is one (L, K) product per block, the padded encoder's
    shape; ``x.T @ dy`` is one (K, L) @ (L, K') product per block, added
    in block order (:func:`_xty`), which equals the padded sum to
    rounding. No BLAS sum is longer than L rows, so the gradients do not
    depend on the BLAS thread count; a sum over the B * L padded rows does
    from a few hundred rows up. The pass consumes ``cache``, taking each array out at its
    last use, so it holds the layers below and one layer's working set; a
    second call on the same cache is a RuntimeError.
    """
    rows, read, layers = cache["rows"], cache["read"], cache.get("layers", [])
    if len(layers) != config.layers:
        raise RuntimeError("this encoder cache was consumed by an earlier backprop_encoder "
                           "call or built for no backward pass; encode the batch again "
                           "for another backward pass")
    length = rows.length
    hidden = config.hidden
    dh = hidden // config.heads
    dtype = params["tok_emb"].dtype
    dx = (np.zeros((read.flat.size, hidden), dtype) if d_sequence is None
          else read.gather(d_sequence))

    if d_pooled is not None:
        dpool_pre = d_pooled * (1.0 - cache["pooled"] ** 2)
        dx[read.cls] += _affine_back(params, grads, cache["cls_state"], dpool_pre,
                                     "pool_w", "pool_b", length)

    def dense_back(x, dy, w, b):
        """:func:`_affine_back` on dy's L-row blocks; dy @ w.T for the token rows."""
        dx = _affine_back(params, grads, x, _blocks(dy, length), w, b, length)
        return dx.reshape(-1, dx.shape[-1])[:len(dy)]

    for layer in reversed(range(config.layers)):
        p = f"layer{layer}."
        c = layers.pop()  # each array is taken out of c at its last use
        out = c["out"]

        dsum, dg, db = _layer_norm_back(dx, c.pop("ffn_ln"))
        grads[p + "ffn_ln_g"] += dg
        grads[p + "ffn_ln_b"] += db
        # GELU's output, formed again as _gelu forms it
        dact = dense_back(c["ffn_pre"] * c["ffn_cdf"], dsum, p + "ffn_w2", p + "ffn_b2")
        dpre = _gelu_back(dact, c.pop("ffn_pre"), c.pop("ffn_cdf"))
        dx_attn = dense_back(c.pop("x_attn"), dpre, p + "ffn_w1", p + "ffn_b1")
        del dact, dpre
        dx_attn += dsum

        dsum, dg, db = _layer_norm_back(dx_attn, c.pop("attn_ln"))
        grads[p + "attn_ln_g"] += dg
        grads[p + "attn_ln_b"] += db
        dctx = out.split(dense_back(c.pop("ctx"), dsum, p + "o_w", p + "o_b"))

        probs = out.split(c.pop("probs"))
        dprobs = out.matmul(dctx, rows.split_t(c.pop("v")))
        dvh = rows.matmul(probs.swapaxes(2, 3), dctx)
        # probs * (dprobs - rowsum(dprobs * probs)) / sqrt(dh), in dprobs's buffer
        dscores = dprobs
        dscores -= (dprobs * probs).sum(-1, keepdims=True)
        dscores *= probs
        dscores /= math.sqrt(dh)
        del probs, dprobs, dctx
        dqh = out.matmul(dscores, rows.split(c.pop("k")))
        dkh = rows.matmul(dscores.swapaxes(2, 3), out.split(c.pop("q")))
        del dscores

        # dsum + dq @ q_w.T + dk @ k_w.T + dv @ v_w.T, summed in that order;
        # dq is zero off the kept query rows
        x_in = c.pop("x_in")
        dx = np.zeros((rows.flat.size, hidden), dtype)
        dx[out.keep] = dense_back(x_in[out.keep], out.merge(dqh), p + "q_w", p + "q_b")
        dx[out.keep] += dsum
        x_in = _blocks(x_in, length)
        dx += dense_back(x_in, rows.merge(dkh), p + "k_w", p + "k_b")
        dx += dense_back(x_in, rows.merge(dvh), p + "v_w", p + "v_b")
        del dqh, dkh, dvh, x_in

    # embedding backward: the sums np.add.at forms, added in its order
    demb, dg, db = _layer_norm_back(dx, cache["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    np.add.at(grads["tok_emb"], cache["ids"], demb)
    # a position occurs at most once in each batch row
    bounds = np.append(rows.cls, rows.flat.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        grads["pos_emb"][rows.positions[lo:hi]] += demb[lo:hi]
    # a sequential sum; np.add.reduce would sum an (n, 1) array pairwise
    for seg in range(TYPE_VOCAB):
        terms = np.concatenate([grads["seg_emb"][seg:seg + 1], demb[cache["segs"] == seg]])
        grads["seg_emb"][seg] = np.add.accumulate(terms)[-1]


def finite_difference_check(
    params,
    config: ModelConfig,
    batch,
    coordinates: list[tuple[str, int]],
    h: float = 1e-4,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``coordinates`` are (parameter name, flat index) pairs. Uses the total
    loss; a non-finite loss aborts before any differencing.
    """
    # gradients() raises DataError on a non-finite loss
    _, grads = gradients(params, config, batch)

    worst = 0.0
    for name, flat_index in coordinates:
        perturbed = {k: v.copy() for k, v in params.items()}
        flat = perturbed[name].reshape(-1)
        original = flat[flat_index]

        flat[flat_index] = original + h
        up = compute_losses(forward(perturbed, config, batch), batch)["total"]
        flat[flat_index] = original - h
        down = compute_losses(forward(perturbed, config, batch), batch)["total"]
        flat[flat_index] = original

        numeric = (up - down) / (2.0 * h)
        analytic = grads[name].reshape(-1)[flat_index]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst
