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
# anchor rows per strip of head_strip_loss: a strip holds
# HEAD_STRIP * m * (h + 1) floats for m targets and a head h wide
HEAD_STRIP = 8
ACTIVATIONS = ("tanh", "relu", "linear")


def active_backend() -> str:
    """Name of the kernel lane in use."""
    return "numpy"


def _c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _tiled_matmul(x, w, out=None):
    # one gemm shape for every tile: TILE rows of x (zero-padded in the
    # ragged tail) times all of w, written into out, or into a fresh
    # n x m array; out must be C-contiguous (a row slice of a buffer is),
    # or the reshape below would write into a copy
    n, k = x.shape
    m = w.shape[1]
    tiles, ragged = divmod(n, TILE)
    body = n - ragged
    if out is None:
        out = np.empty((n, m))
    np.matmul(x[:body].reshape(tiles, TILE, k), w,
              out=out[:body].reshape(tiles, TILE, m))
    if ragged:
        tail = register(np.zeros((TILE, k)))
        tail[:ragged] = x[body:]
        out[body:] = register(np.matmul(tail, w))[:ragged]
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

    Returns (lse [n x 1], p [n x m]). p is the only n x m buffer made:
    scale, shift, exp and normalise all run in place on it.
    """
    p = scale * _c64(x)
    lse, s = exp_rows(p)
    p /= s
    return lse, p


def exp_rows(p):
    """Overwrite the rows of p with exp(p - rowmax); return the rows'
    log-sum-exp and sums s [n x 1], so that p / s is their softmax."""
    m = p.max(axis=1, keepdims=True)
    p -= m
    np.exp(p, out=p)
    s = p.sum(axis=1, keepdims=True)
    return m + np.log(s), s


def strip_logsumexp(F, G, scale, weight):
    """Row log-sum-exp of scale * F @ G.T, with its gradients, in strips.

    For a loss that gives every lse_i the gradient weight, returns
    (lse [n x 1], dF [n x d], dG [m x d]) with dF = gS @ G and
    dG = gS.T @ F, where gS = (scale * weight / s) * e for the row
    exponentials e and their sums s of ``exp_rows``. The n x m scores
    never exist: anchors go in strips of STRIP rows, and one STRIP x m
    buffer, made before the loop, holds each strip's scores and becomes
    e and then gS in place. The dF rows are written straight into dF,
    and dG adds each strip's product through one m x d buffer. Every row
    goes through the row-stable tiled matmul and ``exp_rows``'
    arithmetic, so lse and dF are bitwise the dense ones whatever STRIP
    is; dG sums the strips in order. Each array is counted by the active
    meter when it is made: dF and dG, the cached step's gradient cache,
    as n * d + m * d "gradient-cache" floats, and the strip buffer, G
    transposed, the product buffer and lse as STRIP * m + 2 * m * d + n
    "activation" floats (min(STRIP, n) rows of strip). The number of
    buffers does not depend on n.
    """
    F, G = _c64(F), _c64(G)
    n, m = F.shape[0], G.shape[0]
    # G.T once, contiguous, so every strip's scores copy nothing
    Gt = register(_c64(G.T))
    lse = register(np.empty((n, 1)))
    dF = register(np.empty(F.shape), "gradient-cache")
    dG = register(np.zeros(G.shape), "gradient-cache")
    strip = register(np.empty((min(STRIP, n), m)))
    prod = register(np.empty(G.shape))
    coef = scale * weight
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
        # the short last strip is a view of the leading rows
        p = _tiled_matmul(F[lo:hi], Gt, out=strip[:hi - lo])
        p *= scale
        lse[lo:hi], s = exp_rows(p)
        p *= coef / s
        _tiled_matmul(p, G, out=dF[lo:hi])
        dG += np.matmul(p.T, F[lo:hi], out=prod)
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


def activation_vjp(name, y, g, out=None):
    """g times the named activation's slope, read off its output y.

    The product goes into out, a fresh array if None; out may be y itself,
    which is then overwritten. relu's slope comes from y: y > 0 exactly
    where the input was, and NaN passes neither test. For linear the
    result is g itself, or a copy of it in out.
    """
    if name == "tanh":
        return tanh_vjp(y, g, out)
    if name == "relu":
        return relu_vjp(y, g, out)
    if out is None:
        return g
    np.copyto(out, g)
    return out


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
    over all its pairs, reads the positives of z, turns z into its row
    exponentials e in place with exp_rows' arithmetic, forms
    dL/dd = scale * (((1/n) / s) * e - (1/n) * onehot) there too, s being
    the row sums, as a dense tape's row-logsumexp gradient does, and runs
    the head backward at once, so every pair passes through the head once
    each way and nothing n x m is ever held. The live buffers are made
    once and reused by every strip: one HEAD_STRIP x m x h hidden layer,
    overwritten in place by the backward with dL/dpre; one HEAD_STRIP x m
    buffer for z, e and dL/dd; one m x h row buffer; and the
    n x 1 per-anchor losses: HEAD_STRIP * m * (h + 1) + m * h + n floats,
    each counted by the active meter. The gradients are counted from when
    they are made: gA and gB, deep mode's distance gradient cache, as
    (n + m) * h "gradient-cache" floats, the others as "parameters". Each
    row goes through the row-stable tiled matmul and exp_rows'
    arithmetic, so L is bitwise that of the same head on a dense tape; L
    and gA do not depend on HEAD_STRIP, and gB and the parameter
    gradients sum the strips in order.
    """
    A, B, w2 = _c64(A), _c64(B), _c64(w2)
    r = np.asarray(r, dtype=np.int64)
    n, m, h = A.shape[0], B.shape[0], B.shape[1]
    inv_n = 1.0 / n
    gap = register(np.empty((n, 1)))
    gA = register(np.empty(A.shape), "gradient-cache")
    gB = register(np.zeros(B.shape), "gradient-cache")
    gb1, gw2, gb2 = (register(np.zeros(shape), "parameters")
                     for shape in (h, (h, 1), 1))
    w2_row = w2[:, 0]
    strip = register(np.empty((min(HEAD_STRIP, n), m, h)))
    zs = register(np.empty((min(HEAD_STRIP, n) * m, 1)))
    row = register(np.empty((m, h)))
    for lo in range(0, n, HEAD_STRIP):
        hi = min(lo + HEAD_STRIP, n)
        rows = np.arange(hi - lo)
        hid = strip[:hi - lo]
        np.add(A[lo:hi, None], B[None], out=hid)
        hid += b1
        activate(activation, hid)
        flat = hid.reshape(-1, h)
        z = _tiled_matmul(flat, w2, out=zs[:(hi - lo) * m])
        z = z.reshape(hi - lo, m)
        z += b2
        z *= scale
        pos = z[rows, r[lo:hi]][:, None]
        lse, s = exp_rows(z)
        gap[lo:hi] = lse - pos
        # z, now e, becomes dL/dd; then dL/dpre overwrites the hidden
        # layer
        p = z
        p *= inv_n / s
        p[rows, r[lo:hi]] -= inv_n
        p *= scale
        gb2 += p.sum()
        gw2 += np.matmul(flat.T, p.reshape(-1, 1))
        _activation_slope(activation, hid)
        for i in rows:
            # dL/dpre = (dL/dd * w2) * slope, in the dense tape's order
            np.multiply(p[i, :, None], w2_row, out=row)
            hid[i] *= row
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


def relu_vjp(y, g, out=None):
    # the slope, 1.0 or 0.0, then times g: g * (y > 0) bitwise
    out = np.greater(y, 0.0, out=np.empty(y.shape) if out is None else out)
    out *= g
    return out


def tanh_vjp(y, g, out=None):
    # 1 - y * y, then times g: g * (1 - y * y) bitwise
    out = np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    out *= g
    return out


def adam_update(p, m, v, g, lr, beta1, beta2, eps, t, scratch):
    """One bias-corrected Adam step; returns the new (p, m, v).

    p, m, v and g are left as they are. The three results are the only
    arrays made: every intermediate goes through scratch, a pair of flat
    float64 buffers of at least p.size floats each, which the caller may
    reuse across arrays. The arithmetic is the textbook update's, in its
    order: m' = beta1 * m + (1 - beta1) * g,
    v' = beta2 * v + (1 - beta2) * g * g, and
    p' = p - lr * (m' / c1) / (sqrt(v' / c2) + eps) with c_i = 1 - beta_i**t.
    """
    g = _c64(g)
    a = scratch[0][:g.size].reshape(g.shape)
    b = scratch[1][:g.size].reshape(g.shape)
    m2 = np.multiply(m, beta1)
    m2 += np.multiply(1.0 - beta1, g, out=a)
    v2 = np.multiply(v, beta2)
    np.multiply(1.0 - beta2, g, out=a)
    a *= g
    v2 += a
    np.divide(m2, 1.0 - beta1 ** t, out=a)
    a *= lr
    np.divide(v2, 1.0 - beta2 ** t, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    return np.subtract(p, a), m2, v2
