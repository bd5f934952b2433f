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


def tail_floats(widths, chunks):
    """Floats ``_tiled_matmul`` registers, a zero-padded tail tile and its
    product, when chunks of rows pass through products w0 x w1, w1 x w2,
    ... of widths w0, w1, ...: the widest product's, if some chunk is
    short of a whole tile, else none."""
    if all((hi - lo) % TILE == 0 for lo, hi in chunks):
        return 0
    return TILE * max((a + b for a, b in zip(widths, widths[1:])), default=0)


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
    # in-place form of activation_vjp for head_strip_loss's strips, with
    # its bits (relu's slope is y > 0, as relu_vjp takes it)
    if name == "tanh":
        y *= y
        np.subtract(1.0, y, out=y)
    elif name == "relu":
        np.greater(y, 0.0, out=y)
    else:
        y.fill(1.0)


def _head_strip(A, B, b1, w2, b2, activation, hid, z):
    # the head over every pair of a strip of anchor rows A and the target
    # rows B: act(A_i + B_j + b1) into hid [len(A) x m x h], then that
    # times w2, plus b2, into the anchor-major column z; returns z
    np.add(A[:, None], B[None], out=hid)
    hid += b1
    activate(activation, hid)
    _tiled_matmul(hid.reshape(-1, hid.shape[2]), w2, out=z)
    z += b2
    return z


def head_scores(F, G, w1a, w1b, b1, w2, b2, activation):
    """An MLP head's n x m scores of the rows of F against those of G,
    act(A_i + B_j + b1) @ w2 + b2 with A = F @ w1a and B = G @ w1b.

    Anchors go in strips of HEAD_STRIP rows through one registered
    HEAD_STRIP x m x h buffer, with ``head_strip_loss``' arithmetic, so
    nothing n x m x h is held and a score is bitwise the one that kernel
    scales (and ``deep.phi_pairs``').
    """
    A, B, w2 = matmul(F, w1a), matmul(G, w1b), _c64(w2)
    n, m, h = A.shape[0], B.shape[0], B.shape[1]
    scores = register(np.empty((n, m)))
    strip = register(np.empty((min(HEAD_STRIP, n), m, h)))
    for lo in range(0, n, HEAD_STRIP):
        hi = min(lo + HEAD_STRIP, n)
        _head_strip(A[lo:hi], B, b1, w2, b2, activation, strip[:hi - lo],
                    scores[lo:hi].reshape(-1, 1))
    return scores


def head_strip_loss(A, B, r, scale, b1, w2, b2, activation):
    """Softmax loss over an MLP head's pair scores, with its gradients.

    The head scores the pair (i, j) as d_ij = act(A_i + B_j + b1) @ w2 + b2,
    where A = F @ w1a and B = G @ w1b are its first layer, split by side;
    the loss is L = (1/n) * sum_i [lse_i(z) - z_{i, r_i}] with z = scale * d.
    Returns (L, gA, gB, [gb1, gw2, gb2]): dL/dA, dL/dB and the gradients
    of the head's other parameters.

    Anchors go in strips of HEAD_STRIP rows, and each pair passes through
    the head once each way. A strip runs the head forward, reads the
    positives of z, and turns z in place into its row exponentials e
    (exp_rows' arithmetic), then into dL/dd = scale * (((1/n) / s) * e -
    (1/n) * onehot) for the row sums s, as a dense tape's row-logsumexp
    gradient does. The backward overwrites the hidden layer with its slope:
    the strip's gA rows are one batched product dL/dd_i @ slope_i, times
    w2, and gb1 adds their sum; the hidden layer then becomes
    slope * dL/dd, and gB adds its axis-0 sum, taken through the m x h row
    buffer, times w2. gb2 is returned as an exact zero, b2's true
    gradient: b2 shifts every z of a row alike, which the row softmax
    ignores, so the rows of dL/dd sum to zero and their computed sum is
    roundoff alone, on which an optimizer would step b2 (Adam at full
    rate, whatever its size). Nothing n x m is held: the buffers, made once and
    counted by the active meter, are the HEAD_STRIP x m x h hidden layer, a
    HEAD_STRIP x m one for z, e and dL/dd, the row buffer and the n x 1
    per-anchor losses, HEAD_STRIP * m * (h + 1) + m * h + n floats. The
    gradients are counted when made: gA and gB, deep mode's distance
    gradient cache, as (n + m) * h "gradient-cache" floats, the others as
    "parameters". Rows go through the row-stable tiled matmul and exp_rows'
    arithmetic, so L is bitwise a dense tape's; L and gA do not depend on
    HEAD_STRIP, and gB and the parameter gradients sum the strips in order.
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
    strip = register(np.empty((min(HEAD_STRIP, n), m, h)))
    zs = register(np.empty((min(HEAD_STRIP, n) * m, 1)))
    row = register(np.empty((m, h)))
    for lo in range(0, n, HEAD_STRIP):
        hi = min(lo + HEAD_STRIP, n)
        rows = np.arange(hi - lo)
        hid = strip[:hi - lo]
        flat = hid.reshape(-1, h)
        z = _head_strip(A[lo:hi], B, b1, w2, b2, activation, hid,
                        zs[:(hi - lo) * m]).reshape(-1, m)
        z *= scale
        pos = z[rows, r[lo:hi]][:, None]
        lse, s = exp_rows(z)
        gap[lo:hi] = lse - pos
        p = z  # now e, it becomes dL/dd
        p *= inv_n / s
        p[rows, r[lo:hi]] -= inv_n
        p *= scale
        gw2 += np.matmul(flat.T, p.reshape(-1, 1))
        _activation_slope(activation, hid)
        g = gA[lo:hi]
        np.matmul(p[:, None, :], hid, out=g[:, None, :])
        g *= w2[:, 0]
        gb1 += g.sum(axis=0)
        hid *= p[:, :, None]
        gB += np.multiply(np.sum(hid, axis=0, out=row), w2[:, 0], out=row)
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
