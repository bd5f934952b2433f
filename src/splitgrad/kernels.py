"""Hot numeric kernels, in numpy.

The matmul-style kernels are deliberately *not* routed through BLAS: BLAS
gemm picks different accumulation strategies for different row counts, so
the product of a row subset is not bit-identical to the same rows of the
full product. ``einsum`` without ``optimize`` accumulates over the
reduction axis in a fixed order per output element, which makes chunked
forwards reproduce full-batch forwards exactly. Everything runs in float64.
"""

import numpy as np


def active_backend() -> str:
    """Name of the kernel lane in use."""
    return "numpy"


def _c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _einsum_matmul(x, w):
    # einsum without optimize never calls BLAS; fixed loop order keeps the
    # per-row accumulation identical for any row subset.
    return np.einsum("ij,jk->ik", x, w, optimize=False)


def matmul(x, w):
    """Row-deterministic x @ w: rows of a chunk match the full product."""
    return _einsum_matmul(_c64(x), _c64(w))


def pair_scores(a, b):
    """Block-deterministic a @ b.T over all row pairs."""
    return _einsum_matmul(_c64(a), np.ascontiguousarray(_c64(b).T))


def row_softmax(x):
    x = _c64(x)
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def row_logsumexp(x, scale=1.0):
    """Log-sum-exp of each row of scale * x, and that row softmax.

    Returns (lse [n x 1], p [n x m]). The scaled rows are shifted by
    their max before exponentiation, so no finite input overflows, and p
    is the only n x m buffer made: scale, subtract, exp and normalise all
    run in place on it.
    """
    p = scale * _c64(x)
    m = p.max(axis=1, keepdims=True)
    p -= m
    np.exp(p, out=p)
    s = p.sum(axis=1, keepdims=True)
    p /= s
    return m + np.log(s), p


def row_softmax_vjp(p, g):
    p, g = _c64(p), _c64(g)
    s = (g * p).sum(axis=1, keepdims=True)
    return p * (g - s)


def scatter_add_rows(out, idx, rows):
    """out[idx[k]] += rows[k], accumulated in ascending k order."""
    np.add.at(out, np.ascontiguousarray(idx, dtype=np.int64), _c64(rows))
    return out


def relu_vjp(x, g):
    return _c64(g) * (_c64(x) > 0.0)


def tanh_vjp(y, g):
    y = _c64(y)
    return _c64(g) * (1.0 - y * y)


def adam_update(p, m, v, g, lr, beta1, beta2, eps, t):
    """One bias-corrected Adam step, in place on p, m, v."""
    g = _c64(g)
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)
    return p
