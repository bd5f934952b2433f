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

The loss kernels' strip loops run inside ``_row_buffer``. numpy (2.x)
copies a broadcast operand, such as a strip's per-row max or sum
column, through its ufunc iteration buffer (``np.getbufsize()``
elements, 8192 by default) whenever a row is shorter than that buffer:
on a 64 x 1024 strip, ``p -= m`` took 57 µs against 25 µs for a
contiguous pass of the same size (numpy 2.4, one core of a 2-core
AVX-512 host). ``_row_buffer`` sets the buffer to one row, rounded up
to a multiple of 16, for the loop, and gives the caller's size back
after it. Elementwise results do not depend on the buffer size, so
every output keeps its bits, and the buffer, which no meter sees,
holds at most one row. The encoder passes' loops run at
``PASS_BUFSIZE``, bounding each bias add's buffer: 80 x 128 ``y += b``
took 4.2 µs against 6.0 at the default; one row was 2x slower at 32 wide.
"""

from contextlib import contextmanager

import numpy as np

from .memtrace import register

TILE = 16
# anchor rows per strip of strip_logsumexp; a multiple of TILE, so only
# the last strip can end in a zero-padded tile
STRIP = 32
PROD_FLOATS = 8192  # most floats per target block of strip_logsumexp's dG
# anchor rows per strip of head_strip_loss and head_scores; the loss
# kernel's buffers are in its docstring
HEAD_STRIP = 8
ACTIVATIONS = ("tanh", "relu", "linear")
# numpy's default ufunc iteration buffer, in elements
UFUNC_BUFSIZE = 8192
PASS_BUFSIZE = 1024  # the encoder passes' loops' ufunc buffer


def active_backend() -> str:
    """Name of the kernel lane in use."""
    return "numpy"


@contextmanager
def _row_buffer(row):
    # run a strip loop with numpy's ufunc iteration buffer at row elements,
    # rounded up to a multiple of 16 and capped at numpy's default (see
    # the module docstring); np.errstate gives the caller's size back on
    # exit and on a raise
    with np.errstate():
        np.setbufsize(min(16 * max(1, -(-row // 16)), UFUNC_BUFSIZE))
        yield


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


def tail_floats(widths, n, R):
    """Floats ``_tiled_matmul`` registers, a zero-padded tail tile and its
    product, when n rows pass in R-row passes (the last holds n mod R)
    through products w0 x w1, w1 x w2, ... of widths w0, w1, ...: the
    widest product's, if some pass is short of a whole tile, else none."""
    if min(R, n) % TILE == 0 and n % R % TILE == 0:
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
    e and then gS in place. The dF rows are written straight into dF;
    dG adds each strip's product in nb = min(ceil(m * d / PROD_FLOATS),
    m // 2) or 1 near-equal target blocks through one ceil(m / nb) x d
    buffer (no block is one row, whose matrix-vector product changed
    dG's bits). Rows go through the row-stable tiled matmul and
    ``exp_rows``, so lse and dF are bitwise the dense ones whatever
    STRIP is; dG sums the strips in order, whatever nb is. Arrays are
    counted by the active meter when made: dF and dG, the cached step's
    gradient cache, as n * d + m * d "gradient-cache" floats, and the
    strip buffer, G transposed, the product buffer and lse as
    min(STRIP, n) * m + m * d + ceil(m / nb) * d + n "activation"
    floats, plus TILE * (m + d) (``tail_floats``) if TILE does not
    divide n: step2's kernel term (``loss.loss_graph_from_reps`` has the
    other), 58368 at n = m = 1024 and d = 16, 73256 at n = m = 1000.
    The number of buffers does not depend on n or nb.
    """
    F, G = _c64(F), _c64(G)
    n, (m, d) = F.shape[0], G.shape
    # G.T once, contiguous, so every strip's scores copy nothing
    Gt = register(_c64(G.T))
    lse = register(np.empty((n, 1)))
    dF = register(np.empty(F.shape), "gradient-cache")
    dG = register(np.zeros(G.shape), "gradient-cache")
    strip = register(np.empty((min(STRIP, n), m)))
    # each target block's columns and its views of dG and prod, made once;
    # one block skips the block loop, which took 1.7% longer at n = 256
    nb = min(-(-m * d // PROD_FLOATS), m // 2) or 1
    prod = register(np.empty((-(-m // nb), d)))
    blocks = None if nb == 1 else [
        (slice(a, b), dG[a:b], prod[:b - a])
        for a, b in ((j * m // nb, (j + 1) * m // nb) for j in range(nb))]
    coef = scale * weight
    with _row_buffer(m):
        for lo in range(0, n, STRIP):
            hi = min(lo + STRIP, n)
            f = F[lo:hi]
            # the short last strip is a view of the leading rows
            p = _tiled_matmul(f, Gt, out=strip[:hi - lo])
            # x * 1.0 is x bitwise: at the default temperature this skips
            # a pass over the strip
            if scale != 1.0:
                p *= scale
            lse[lo:hi], s = exp_rows(p)
            p *= coef / s
            _tiled_matmul(p, G, out=dF[lo:hi])
            if blocks is None:
                dG += np.matmul(p.T, f, out=prod)
                continue
            for cols, dg, out in blocks:
                dg += np.matmul(p[:, cols].T, f, out=out)
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


def head_target_side(G, w1b, b1):
    """The target side of an MLP head's first layer, B = G @ w1b + b1.

    b1 rides on the target side, added once per target row, so the
    strip kernels form the hidden layer as A_i + B_j with no per-pair
    bias pass. With ``deep.phi_pairs``, which adds b1 to its target
    product before the anchor product, this is the only code that
    decides where b1 goes.
    """
    B = matmul(G, w1b)
    B += b1
    return B


def _head_strip(A, B, w2, b2, activation, hid, z):
    # the head over every pair of a strip of anchor rows A and the target
    # rows B, which carry b1 (head_target_side): act(A_i + B_j) into hid
    # [len(A) x m x h], then that times w2, plus b2, into the anchor-major
    # column z; returns z
    np.add(A[:, None], B[None], out=hid)
    activate(activation, hid)
    _tiled_matmul(hid.reshape(-1, hid.shape[2]), w2, out=z)
    z += b2
    return z


def head_scores(F, G, w1a, w1b, b1, w2, b2, activation):
    """An MLP head's n x m scores of the rows of F against those of G,
    act(A_i + B_j) @ w2 + b2 with A = F @ w1a and B = G @ w1b + b1
    (``head_target_side``).

    Anchors go in strips of HEAD_STRIP rows through one registered
    HEAD_STRIP x m x h buffer, with ``head_strip_loss``' arithmetic, so
    nothing n x m x h is held and a score is bitwise the one that kernel
    scales (and ``deep.phi_pairs``').
    """
    A, B, w2 = matmul(F, w1a), head_target_side(G, w1b, b1), _c64(w2)
    n, m, h = A.shape[0], B.shape[0], B.shape[1]
    scores = register(np.empty((n, m)))
    strip = register(np.empty((min(HEAD_STRIP, n), m, h)))
    with _row_buffer(m * h):
        for lo in range(0, n, HEAD_STRIP):
            hi = min(lo + HEAD_STRIP, n)
            _head_strip(A[lo:hi], B, w2, b2, activation, strip[:hi - lo],
                        scores[lo:hi].reshape(-1, 1))
    return scores


def head_strip_loss(A, B, r, scale, w2, b2, activation):
    """Softmax loss over an MLP head's pair scores, with its gradients.

    The head scores the pair (i, j) as d_ij = act(A_i + B_j) @ w2 + b2,
    where A = F @ w1a and B = G @ w1b + b1 are its first layer, split by
    side, with b1 on the target side (``head_target_side``); the loss is
    L = (1/n) * sum_i [lse_i(z) - z_{i, r_i}] with z = scale * d.
    Returns (L, gA, gB, [gb1, gw2, gb2]): dL/dA, dL/dB and the gradients
    of the head's other parameters. gb1 is the sum of the gA rows, as b1
    enters every pair's hidden layer once.

    Anchors go in strips of HEAD_STRIP rows, and each pair passes through
    the head once each way. A strip runs the head forward, reads the
    positives of z, and turns z in place into its row exponentials e
    (exp_rows' arithmetic), then into dL/dd = scale * (((1/n) / s) * e -
    (1/n) * onehot) for the row sums s, as a dense tape's row-logsumexp
    gradient does; at scale 1.0 both scale passes are skipped, as
    x * 1.0 is x. One flat offset per anchor, i * m + r_i within its
    strip, reads the positives and subtracts 1/n. The backward
    overwrites the hidden layer with its slope: the strip's gA rows are
    one batched product dL/dd_i @ slope_i, times w2, and gb1 adds their
    sum; the hidden layer then becomes slope * dL/dd, and gB adds its
    axis-0 sum, taken into an m x h row buffer, times w2. gb2 is
    returned as an exact zero, b2's true gradient: b2 shifts every z of
    a row alike, which the row softmax ignores, so the rows of dL/dd sum
    to zero and their computed sum is roundoff alone, on which an
    optimizer would step b2 (Adam at full rate, whatever its size).

    Nothing n x m is held. The buffers, made once and counted by the
    active meter, are the HEAD_STRIP x m x h hidden layer, one buffer of
    max(HEAD_STRIP * m, m * h) floats and the n x 1 per-anchor losses:
    HEAD_STRIP * m * h + max(HEAD_STRIP * m, m * h) + n floats, with
    min(HEAD_STRIP, n) for HEAD_STRIP. That is deep mode's loss-phase
    peak, plus TILE * (h + 1) floats (``tail_floats``) when a strip's
    pair count is not a multiple of TILE. The shared buffer's first
    HEAD_STRIP * m floats hold z, then e, then dL/dd, and its first
    m * h the row buffer: z is read for the last time by the hidden
    layer's product with dL/dd, before the row sum is written. The
    gradients are counted when made: gA and gB, deep mode's distance
    gradient cache, as (n + m) * h "gradient-cache" floats, the others
    as "parameters". Rows go through the row-stable tiled matmul and
    exp_rows' arithmetic, so L is bitwise a dense tape's; L and gA do
    not depend on HEAD_STRIP, and gB and the parameter gradients sum the
    strips in order.
    """
    A, B, w2 = _c64(A), _c64(B), _c64(w2)
    r = np.asarray(r, dtype=np.int64)
    n, m, h = A.shape[0], B.shape[0], B.shape[1]
    # a flat offset would read a neighbour's score where r_i is out of
    # range, so that raises here
    if r.size and not 0 <= r.min() <= r.max() < m:
        raise IndexError(f"positive index out of range for {m} targets")
    rows = min(HEAD_STRIP, n)
    inv_n = 1.0 / n
    gap = register(np.empty((n, 1)))
    gA = register(np.empty(A.shape), "gradient-cache")
    gB = register(np.zeros(B.shape), "gradient-cache")
    gb1, gw2, gb2 = (register(np.zeros(shape), "parameters")
                     for shape in (h, (h, 1), 1))
    strip = register(np.empty((rows, m, h)))
    shared = register(np.empty(max(rows * m, m * h)))
    row = shared[:m * h].reshape(m, h)
    w2c = w2[:, 0]
    # each anchor's positive as a flat offset into its strip's z,
    # i * m + r_i, as a column, so that the positives come out as one
    pos_at = (np.arange(n) % HEAD_STRIP * m + r)[:, None]
    with _row_buffer(m * h):
        for lo in range(0, n, HEAD_STRIP):
            hi = min(lo + HEAD_STRIP, n)
            hid = strip[:hi - lo]
            zf = shared[:(hi - lo) * m]
            z = _head_strip(A[lo:hi], B, w2, b2, activation, hid,
                            zf.reshape(-1, 1)).reshape(-1, m)
            # x * 1.0 is x bitwise: at the default temperature this
            # skips two passes over the strip
            if scale != 1.0:
                z *= scale
            at = pos_at[lo:hi]
            pos = zf[at]
            lse, s = exp_rows(z)
            np.subtract(lse, pos, out=gap[lo:hi])
            p = z  # now e, it becomes dL/dd
            p *= inv_n / s
            zf[at] -= inv_n
            if scale != 1.0:
                p *= scale
            gw2 += np.matmul(hid.reshape(-1, h).T, zf.reshape(-1, 1))
            _activation_slope(activation, hid)
            g = gA[lo:hi]
            np.matmul(p[:, None, :], hid, out=g[:, None, :])
            g *= w2c
            gb1 += np.add.reduce(g, axis=0)
            hid *= p[:, :, None]
            # p's last read is above: the row sum overwrites its floats
            np.add.reduce(hid, axis=0, out=row)
            row *= w2c
            gB += row
    return inv_n * float(gap.sum()), gA, gB, [gb1, gw2, gb2]


def row_softmax_vjp(p, g):
    p, g = _c64(p), _c64(g)
    s = (g * p).sum(axis=1, keepdims=True)
    return p * (g - s)


def scatter_add_rows(out, idx, rows):
    """Add into out, for every row j, the sum of the rows[k] with idx[k] = j;
    return out. idx must lie in [0, len(out)).

    Each column is one np.bincount, which sums a row's terms from zero in
    ascending k order, so into an out of zeros the result is bitwise
    np.add.at's. Besides out, the call holds one column of rows and one
    of out, where np.add.at holds about 5.5 KB of index-iterator state
    whatever the shapes; at 1024 x 16 it takes 0.12 ms against
    np.add.at's 0.20.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    rows = _c64(rows)
    for c in range(out.shape[1]):
        out[:, c] += np.bincount(idx, weights=rows[:, c],
                                 minlength=out.shape[0])
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
