"""Hot numeric kernels, in numpy.

The matmul-style kernels run on BLAS through one tiled lane. A plain
gemm picks its blocking and accumulation order from the shape it is
given, so the product of a row subset is not bit-identical to the same
rows of the full product. ``_tiled_matmul`` therefore hands BLAS only
products of one shape: the rows of x are cut into tiles of ``TILE`` rows
(a ragged tail is zero-padded to a full tile) and every tile is one
``TILE x k @ k x m`` gemm. On a BLAS that computes every row of a tile
alike, a row's result then depends only on its own values and on w,
never on its offset or on the rows around it, which makes chunked
forwards reproduce full-batch forwards exactly. Everything runs in
float64.

Nothing here checks that property at run time; the chunk-invariance
tests in ``tests/test_kernels.py`` check it on the BLAS in use, at the
default thread count and with one thread.

This module also owns the activations: ``ACTIVATIONS`` names them, and
``activate`` and ``activation_vjp`` are the only code that dispatches
on a name (``head_strip_loss`` applies the slope in place through
``_activation_slope``). The taped ops, the encoders and the config
check all go through them.
"""

import numpy as np

from .memtrace import register

TILE = 16
# anchor rows per strip of strip_logsumexp; a multiple of TILE, so only
# the last strip can end in a zero-padded tile
STRIP = 64
# anchor rows per strip of head_strip_loss: a strip holds about
# HEAD_STRIP * m * (h + 2) floats for m targets and a head h wide
HEAD_STRIP = 8
ACTIVATIONS = ("tanh", "relu", "linear")


def active_backend() -> str:
    """Name of the kernel lane in use."""
    return "numpy"


def _c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _tiled_matmul(x, w):
    # one gemm shape for every tile: TILE rows of x (zero-padded in the
    # ragged tail) times all of w, written into a fresh n x m array
    n, k = x.shape
    m = w.shape[1]
    tiles, ragged = divmod(n, TILE)
    body = n - ragged
    out = np.empty((n, m))
    np.matmul(x[:body].reshape(tiles, TILE, k), w,
              out=out[:body].reshape(tiles, TILE, m))
    if ragged:
        tail = np.zeros((TILE, k))
        tail[:ragged] = x[body:]
        out[body:] = np.matmul(tail, w)[:ragged]
    return out


def matmul(x, w):
    """Row-deterministic x @ w: rows of a chunk match the full product."""
    return _tiled_matmul(_c64(x), _c64(w))


def pair_scores(a, b):
    """a @ b.T over all row pairs, row-deterministic in a only.

    Any row subset of a gives bitwise the same rows as the full product.
    A column slice (a subset of the rows of b) changes the gemm shape and
    may change the last bits; no caller slices b.
    """
    return matmul(a, b.T)


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


def strip_logsumexp(F, G, scale, weight):
    """Row log-sum-exp of scale * F @ G.T, with its gradients, in strips.

    For a loss that gives every lse_i the gradient weight, returns
    (lse [n x 1], dF [n x d], dG [m x d]) with dF = gS @ G and
    dG = gS.T @ F, where gS = (scale * weight) * softmax(scale * F @ G.T).
    The n x m scores never exist: anchors go in strips of STRIP rows, and
    each strip's scores and softmax are dropped before the next strip
    starts. Every row goes through the row-stable pair_scores,
    row_logsumexp and matmul, so lse and dF are bitwise the dense ones
    whatever STRIP is; dG sums the strips in order. The live state is two
    STRIP x m buffers plus the O((n + m) * d) outputs, and every buffer
    of STRIP or more rows is counted by the active meter.
    """
    F, G = _c64(F), _c64(G)
    n, m = F.shape[0], G.shape[0]
    # G.T once, contiguous: pair_scores(a, Gt.T) then copies nothing
    Gt = register(_c64(G.T))
    lse = register(np.empty((n, 1)))
    dF = register(np.empty(F.shape))
    dG = register(np.zeros(G.shape))
    coef = scale * weight
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
        scores = register(pair_scores(F[lo:hi], Gt.T))
        lse[lo:hi], p = row_logsumexp(scores, scale)
        register(p)
        del scores
        p *= coef
        dF[lo:hi] = register(matmul(p, G))
        dG += register(np.matmul(p.T, F[lo:hi]))
    return lse, dF, dG


def activate(name, x):
    """Apply the named activation to x in place; return x."""
    if name == "tanh":
        np.tanh(x, out=x)
    elif name == "relu":
        np.maximum(x, 0.0, out=x)
    elif name != "linear":
        raise ValueError(f"unknown activation {name!r}")
    return x


def activation_vjp(name, y, g):
    """g times the named activation's slope, read off its output y.

    relu's slope comes from y: y > 0 exactly where the input was, and NaN
    passes neither test. For linear the result is g itself.
    """
    if name == "tanh":
        return tanh_vjp(y, g)
    if name == "relu":
        return relu_vjp(y, g)
    return g


def _activation_slope(name, y):
    # overwrite the activation's output y with its derivative there; the
    # in-place form of activation_vjp for head_strip_loss's strips
    if name == "tanh":
        y *= y
        np.subtract(1.0, y, out=y)
    elif name == "relu":
        np.sign(y, out=y)
    else:
        y.fill(1.0)


def head_strip_loss(A, B, r, scale, b1, w2, b2, activation):
    """Softmax loss over an MLP head's pair scores, with its gradients.

    The head scores the pair (i, j) as d_ij = act(A_i + B_j + b1) @ w2 + b2,
    where A = F @ w1a and B = G @ w1b are its first layer, split by side;
    the loss is L = (1/n) * sum_i [lse_i(z) - z_{i, r_i}] with z = scale * d.
    Returns (L, gA, gB, [gb1, gw2, gb2]): dL/dA, dL/dB and the gradients
    of the head's other parameters.

    Anchors go in strips of HEAD_STRIP rows. A strip runs the head forward
    over all its pairs, takes row_logsumexp and the positives of z, forms
    dL/dd = scale * ((1/n) * softmax - (1/n) * onehot) and runs the head
    backward at once, so every pair passes through the head once each way
    and nothing n x m is ever held. The live buffers are one
    HEAD_STRIP x m x h hidden layer, reused by every strip and overwritten
    in place by the backward with dL/dpre; the strip's z and softmax; one
    m x h row buffer; and the n x 1 per-anchor losses: about
    HEAD_STRIP * m * (h + 2) + m * h + n floats, each counted by the
    active meter. Each row goes through the row-stable matmul and
    row_logsumexp, so L is bitwise that of the same head on a dense tape;
    L and gA do not depend on HEAD_STRIP, and gB and the parameter
    gradients sum the strips in order.
    """
    A, B = _c64(A), _c64(B)
    r = np.asarray(r, dtype=np.int64)
    n, m, h = A.shape[0], B.shape[0], B.shape[1]
    inv_n = 1.0 / n
    gap = register(np.empty((n, 1)))
    gA = np.empty(A.shape)
    gB = np.zeros(B.shape)
    gb1, gw2, gb2 = np.zeros(h), np.zeros((h, 1)), np.zeros(1)
    w2_row = w2[:, 0]
    strip = register(np.empty((min(HEAD_STRIP, n), m, h)))
    row = register(np.empty((m, h)))
    for lo in range(0, n, HEAD_STRIP):
        hi = min(lo + HEAD_STRIP, n)
        rows = np.arange(hi - lo)
        hid = strip[:hi - lo]
        np.add(A[lo:hi, None], B[None], out=hid)
        hid += b1
        activate(activation, hid)
        flat = hid.reshape(-1, h)
        d = register(matmul(flat, w2))
        d += b2
        d *= scale
        z = d.reshape(hi - lo, m)
        lse, p = row_logsumexp(z)
        register(p)
        gap[lo:hi] = lse - z[rows, r[lo:hi]][:, None]
        del d, z
        # p becomes dL/dd, then dL/dpre overwrites the hidden layer
        p *= inv_n
        p[rows, r[lo:hi]] -= inv_n
        p *= scale
        gb2 += p.sum()
        gw2 += np.matmul(flat.T, p.reshape(-1, 1))
        _activation_slope(activation, hid)
        for i in rows:
            # dL/dpre = (dL/dd * w2) * slope, in the dense tape's order
            np.multiply(p[i, :, None], w2_row, out=row)
            hid[i] *= row
        del p
        np.sum(hid, axis=1, out=gA[lo:hi])
        gB += np.sum(hid, axis=0, out=row)
        gb1 += hid.sum(axis=(0, 1))
    return inv_n * float(gap.sum()), gA, gB, [gb1, gw2, gb2]


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
