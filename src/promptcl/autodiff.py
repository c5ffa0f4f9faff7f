"""Dense float tensors with reverse-mode differentiation.

The primitives are exactly the ops the program builds: ``add``, ``mul``,
``scale``, ``absolute``, ``matmul``, the row ops ``log_softmax`` and
``l2_normalize``, the reductions ``rsum`` and ``mean``, the shape ops
``concat``, ``stack``, ``swapaxes``, ``reshape``, ``take`` and ``slice_axis``,
and ``frozen_block``, a whole frozen transformer block as one node.
``cli.gradcheck_suite`` checks this same set against finite differences, in
random compositions and in the trainer's own losses, one per training stage.

Graphs are built eagerly and single-threaded; ``backward`` walks the tape in
reverse topological order exactly once. A tensor's precision follows its data:
a float64 array stays float64 (the finite-difference oracle's leaves), anything
else is stored as float32, and ops mixing the two promote under numpy's rules.
The layer-norm statistics inside ``frozen_block`` are computed in the
block's own precision, centred before they are squared.

Importing this module, and so importing ``promptcl``, changes glibc's
allocator for the whole process: freed memory is kept mapped (see
``HEAP_KEPT_MAPPED``), so the block kernel's per-call temporaries are reused
instead of being unmapped and faulted in again on the next call.
"""
from __future__ import annotations

import ctypes
import math

import numpy as np

from . import PromptclError


class ShapeError(PromptclError):
    """Raised when operand shapes do not conform for a primitive op."""


class NonFiniteError(PromptclError, FloatingPointError):
    """Raised when a leaf holds, or a primitive produces, NaN/Inf entries."""


class GraphError(PromptclError, RuntimeError):
    """Raised on graph misuse, e.g. backward called twice on one graph."""


# glibc mallopt parameters (malloc.h) and the values set at import: blocks up
# to 32 MiB come from the heap, and the heap is trimmed only above 64 MiB free
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


def _keep_freed_heap_mapped() -> bool:
    """Apply ``_HEAP_SETTINGS`` in order through glibc's ``mallopt``, each
    only if the one before it was accepted; returns whether all were. A
    rejected mmap threshold leaves the allocator as it was. Without glibc
    ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_SETTINGS)


HEAP_KEPT_MAPPED = _keep_freed_heap_mapped()


def _ensure_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A dense nd-array node in an autodiff graph.

    ``requires_grad`` leaves accumulate their total derivative in ``.grad``
    after ``backward``; intermediate gradients are freed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op",
                 "_backward_done")

    def __init__(self, data, requires_grad=False):
        f64 = isinstance(data, np.ndarray) and data.dtype == np.float64
        self.data = np.asarray(data, dtype=np.float64 if f64 else np.float32)
        _ensure_finite(self.data, "leaf")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward_done:
            raise GraphError("backward already called on this graph; rebuild it first")
        self._backward_done = True

        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g.astype(parent.data.dtype, copy=True)
                else:
                    parent.grad = parent.grad + g.astype(parent.data.dtype)
            if node._parents:  # non-leaf: free its gradient
                node.grad = None


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return list(reversed(order))


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data):
    """A tensor that never requires grad."""
    return Tensor(data, requires_grad=False)


def _make(out, parents, backward, op):
    _ensure_finite(out, op)
    t = Tensor.__new__(Tensor)
    t.data = out
    t.grad = None
    t._backward_done = False
    if any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._backward = backward
        t._op = op
    else:
        t.requires_grad = False
        t._parents = ()
        t._backward = None
        t._op = op
    return t


def _unbroadcast(g, shape):
    """Sum a gradient down to the pre-broadcast shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _check_broadcast(a, b, op):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# numerics of the fused block

# erf(x) = tanh(x * P(x^2)) with P of degree 6, highest power first, fitted to
# atanh(erf(x)) / x on [0, 3.9] by least squares reweighted toward the largest
# erf error. Past the clamp float32 erf is 1 within 4e-8
_ERF_P = np.array([1.5896025e-07, -5.9856911e-06, 8.9712594e-05, -6.2571961e-04,
                   -1.8438368e-04, 1.0276548e-01, 1.1283797e+00], dtype=np.float32)
_ERF_CLAMP = 3.9
# erf(x / sqrt 2) = tanh(x * P(x^2 / 2) / sqrt 2): gelu's P, taking x^2 itself
_GELU_P = (_ERF_P.astype(np.float64) / np.sqrt(2.0)
           / 2.0 ** np.arange(len(_ERF_P) - 1, -1, -1)).astype(np.float32)


_LOG_INV_SQRT_2PI = -0.5 * math.log(2.0 * math.pi)


def _horner(x2, coeffs):
    p = x2 * coeffs[0]
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= x2
        p += c
    return p


def _tanh_poly(x, x2, coeffs, clamp):
    """float32 ``tanh(x * P(min(x2, clamp**2)))`` for ``x2 = x * x``, as a new
    array; ``x2`` is clamped in place, so P stays in its fitted range and an
    infinite square is harmless. Exactly odd in x, since ``np.tanh`` is."""
    np.minimum(x2, clamp * clamp, out=x2)
    p = _horner(x2, coeffs)
    p *= x
    return np.tanh(p, out=p)


def erf32(x):
    """float32 erf in tanh form, computed in place: ``x`` is overwritten with
    the result. Inputs are clamped to +-3.9; the absolute error is below 5e-7
    everywhere."""
    np.clip(x, -_ERF_CLAMP, _ERF_CLAMP, out=x)
    x[...] = _tanh_poly(x, x * x, _ERF_P, _ERF_CLAMP)
    return x


def _gelu_forward(x, with_slope):
    """(gelu(x), d gelu/dx or None), leaving ``x`` untouched. float32 uses
    ``erf32``'s tanh form with the 1/sqrt(2) folded into P; float64, the
    gradient oracle's dtype, ``math.erf`` per entry. x is squared once: the
    slope's Gaussian reads the square before the erf clamps it."""
    x2 = np.square(x)
    slope = None
    if with_slope:  # Phi(x) + x * pdf(x), pdf(x) = exp(log(1/sqrt(2 pi)) - x^2 / 2)
        slope = np.multiply(x2, -0.5)
        slope += _LOG_INV_SQRT_2PI
        np.exp(slope, out=slope)
        slope *= x
    if x.dtype == np.float32:
        phi = _tanh_poly(x, x2, _GELU_P, _ERF_CLAMP * math.sqrt(2.0))
    else:
        phi = np.vectorize(math.erf, otypes=[np.float64])(x / math.sqrt(2.0))
    phi *= 0.5
    phi += 0.5
    out = np.multiply(x, phi, out=x2)  # the square is spent: reuse its buffer
    if with_slope:
        slope += phi
    return out, slope


_LN_EPS = 1e-5


# Row reductions over the short last axis: einsum and vecdot reduce each row
# on its own, several times faster than np.add.reduce's strided loop


def _row_sum(x):
    return np.einsum("...k->...", x)[..., None]


def _row_dot(a, b):
    return np.einsum("...k,...k->...", a, b)[..., None]


def _row_max(x):
    """The max over the last axis as a fold over its columns: np.maximum is
    exact, so this is np.max without its strided reduction loop (bitwise, but
    for the sign of a zero maximum)."""
    m = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j], out=m)
    return m[..., None]


def _layer_norm_forward(x):
    """(y, std) of a scale-1 shift-0 layer norm over the last axis, in x's
    dtype. Two passes: the rows are centred before their squares are summed,
    so a mean far from zero does not cancel the variance."""
    n = x.shape[-1]
    xc = x - _row_sum(x) / n
    var = np.vecdot(xc, xc)[..., None]
    var /= n
    var += _LN_EPS
    std = np.sqrt(var, out=var)
    xc /= std
    return xc, std


def _layer_norm_backward(g, y, std):
    n = g.shape[-1]
    gy = _row_dot(g, y) / n
    out = g - _row_sum(g) / n
    out -= y * gy
    out /= std
    return out


def _softmax_forward(x):
    e = np.subtract(x, _row_max(x))
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def _softmax_backward(g, s):
    out = g - _row_dot(g, s)
    out *= s
    return out


def _dense(x, w):
    """``x @ w`` for a 2-D ``w`` as one BLAS call over all leading axes."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "add")
    out = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), backward, "add")


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "mul")
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), backward, "mul")


def scale(a, s):
    s = float(s)
    out = a.data * np.asarray(s, dtype=a.data.dtype)

    def backward(g):
        return (g * s,)

    return _make(out, (a,), backward, "scale")


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: ranks {a.ndim} and {b.ndim} unsupported")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(out, (a, b), backward, "matmul")


def log_softmax(a):
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True, dtype=np.float64)).astype(x.dtype)
    out = shifted - lse

    def backward(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), backward, "log_softmax")


_NORM_EPS = 1e-8


def l2_normalize(a):
    """Per-row unit normalization; rows with norm below 1e-8 map to zero."""
    x = a.data
    norm = np.sqrt(np.square(x.astype(np.float64)).sum(axis=-1, keepdims=True)).astype(x.dtype)
    ok = norm >= _NORM_EPS
    safe = np.where(ok, norm, 1.0)
    y = np.where(ok, x / safe, 0.0).astype(x.dtype)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (np.where(ok, (g - y * dot) / safe, 0.0),)

    return _make(y, (a,), backward, "l2_normalize")


def rsum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)
    out = np.asarray(out, dtype=a.data.dtype)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), backward, "sum")


def mean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(rsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def absolute(a):
    out = np.abs(a.data)

    def backward(g):
        return (g * np.sign(a.data),)

    return _make(out, (a,), backward, "abs")


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), backward, "concat")


def stack(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack: empty input list")
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.squeeze(piece, axis=axis)
                     for piece in np.split(g, len(tensors), axis=axis))

    return _make(out, tuple(tensors), backward, "stack")


def swapaxes(a, ax1, ax2):
    """Exchange two axes (a contiguous copy, so later matmuls see C order)."""
    if not (-a.ndim <= ax1 < a.ndim and -a.ndim <= ax2 < a.ndim):
        raise ShapeError(f"swapaxes: axes ({ax1}, {ax2}) out of range for rank {a.ndim}")
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out.copy(), (a,), backward, "transpose")


def reshape(a, shape):
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(out.copy(), (a,), backward, "reshape")


def take(a, idx):
    """Gather rows along axis 0; repeated rows sum their gradients."""
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), backward, "take")


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(out.copy(), (a,), backward, "slice")


def frozen_block(h, w, heads, residual=None, prefix_kv=None, cls_only=False):
    """One pre-norm transformer block with frozen weights, as one graph node.

    ``w`` maps ``wq wk wv wo w1 w2`` to constant matrices; the block has no
    biases. ``h`` is ``(..., n, D)``. ``residual`` is added to the
    post-attention activation (before the MLP branch) and broadcasts against it.
    ``prefix_kv`` ``(..., 2p, D)`` prepends its first p rows to the keys and
    its last p rows to the values. With ``cls_only`` only row 0 is computed
    and returned, ``(..., 1, D)``: the keys and values still see every token.
    Gradients flow to ``h``, ``residual`` and ``prefix_kv``, never to ``w``.
    """
    parents = [t for t in (h, residual, prefix_kv) if t is not None]
    need_h = h.requires_grad
    need_res = residual is not None and residual.requires_grad
    need_pre = prefix_kv is not None and prefix_kv.requires_grad
    x = h.data
    dim = x.shape[-1]
    if dim % heads or w["wq"].shape[0] != dim:
        raise ShapeError(f"frozen_block: width {dim} with {heads} heads, weights {w['wq'].shape}")
    dh = dim // heads
    nq = 1 if cls_only else x.shape[-2]
    # the scores' 1/sqrt(dh) rides on the query weights (exact when dh is a
    # power of 4), so neither the scores nor their gradient take a pass for it
    wq = w["wq"] * np.asarray(1.0 / np.sqrt(dh), dtype=x.dtype)

    def split(t):  # (..., m, D) -> (..., heads, m, dh)
        return np.swapaxes(t.reshape(t.shape[:-1] + (heads, dh)), -3, -2)

    def merge(t):  # (..., heads, m, dh) -> (..., m, D)
        return np.swapaxes(t, -3, -2).reshape(t.shape[:-3] + (t.shape[-2], dim))

    # forward products run per sample (np.matmul, not _dense's one BLAS
    # call): a forward row's bits then do not depend on the batch it came in.
    # K and V come from one product over the concatenated weights
    xn, std_h = _layer_norm_forward(x)
    q = np.matmul(xn[..., :nq, :], wq)
    kv = np.matmul(xn, np.concatenate([w["wk"], w["wv"]], axis=1))
    k, v = kv[..., :dim], kv[..., dim:]
    n_pre = 0
    if prefix_kv is not None:
        pre = prefix_kv.data
        n_pre = pre.shape[-2] // 2
        k = np.concatenate([pre[..., :n_pre, :], k], axis=-2)
        v = np.concatenate([pre[..., n_pre:, :], v], axis=-2)
    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2))
    probs = _softmax_forward(scores)
    e = np.matmul(merge(np.matmul(probs, vh)), w["wo"])
    e += x[..., :nq, :]
    if residual is not None:
        e = e + residual.data
    yn, std_e = _layer_norm_forward(e)
    act, slope = _gelu_forward(np.matmul(yn, w["w1"]),
                               with_slope=need_h or need_res or need_pre)
    out = np.matmul(act, w["w2"])
    out += e

    def backward(g):
        g_act = _dense(g, w["w2"].T)
        g_act *= slope
        g_e = _layer_norm_backward(_dense(g_act, w["w1"].T), yn, std_e)
        g_e += g
        g_h = g_pre = None
        g_res = _unbroadcast(g_e, residual.shape) if need_res else None
        if need_h or need_pre:
            g_ctx = split(_dense(g_e, w["wo"].T))
            g_scores = _softmax_backward(np.matmul(g_ctx, np.swapaxes(vh, -1, -2)), probs)
            cols = slice(None) if need_h else slice(0, n_pre)  # key/value rows that need a gradient
            g_k = merge(np.matmul(np.swapaxes(g_scores[..., cols], -1, -2), qh))
            g_v = merge(np.matmul(np.swapaxes(probs[..., cols], -1, -2), g_ctx))
            if need_pre:
                g_pre = np.concatenate([g_k[..., :n_pre, :], g_v[..., :n_pre, :]], axis=-2)
            if need_h:
                g_xn = _dense(g_k[..., n_pre:, :], w["wk"].T)
                g_xn += _dense(g_v[..., n_pre:, :], w["wv"].T)
                g_xn[..., :nq, :] += _dense(merge(np.matmul(g_scores, kh)), wq.T)
                g_h = _layer_norm_backward(g_xn, xn, std_h)
                g_h[..., :nq, :] += g_e
        return tuple(g for t, g in ((h, g_h), (residual, g_res), (prefix_kv, g_pre))
                     if t is not None)

    return _make(out, parents, backward, "frozen_block")
