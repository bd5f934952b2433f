"""Batch contrastive loss over paired sets, three ways.

Given anchor embeddings F, target embeddings G, and a positive map r,
the loss is the mean cross-entropy of each anchor's positive target
under a softmax over temperature-scaled logits, written as a
log-sum-exp minus the positive logit:

    L = (1/|S|) sum_i [lse_i - pos_i],
    lse_i = log sum_j exp(F_i . G_j / tau),   pos_i = F_i . G_{r_i} / tau.

lse is the uniformity term and pos the alignment term of Wang & Isola
(arXiv 2005.10242). Every path takes lse through one arithmetic,
``kernels.exp_rows``, over the scores scaled by 1/tau: it subtracts the
row max before the exp, and no probability is ever logged, so the loss
stays finite whenever the scaled scores F_i . G_j / tau are.

Three implementations coexist on purpose:

* ``contrastive_loss``: plain-numpy reference producing logits, p, loss;
* ``loss_graph_from_reps``: the cached step's loss with its gradients
  with respect to F and G, and ``loss_graph_from_logits``: a taped tail
  over scaled logits, for deep mode's one-graph reference;
* ``analytic_rep_grads``: closed-form gradients with respect to F and G,
  kept independent of the tape as a cross-check oracle.

``loss_graph_from_reps`` (the cached step's step2, in multi mode too)
makes one ``kernels.strip_logsumexp`` call, which streams lse over
strips of ``kernels.STRIP`` anchors through one reused buffer and
returns dL/dF and dL/dG, the gradient cache; a small tape of the
alignment term then adds its gradients into them in place. Neither
holds the n_s x n_t scores (the peak is in ``loss_graph_from_reps``).
``direct_param_grads`` keeps the dense tail (scores, softmax and the
scores' gradient, about 3 * n_s * n_t floats), for two reasons: the
direct step is the baseline the cached step is checked against, so it
shares none of the strip code; and it stands for plain large-batch
training, whose activation peak the acceptance suite requires to grow
at least 3.9x from batch 64 to 256 (with the streamed tail it grew
3.81x).

The reference and both loss paths call the same kernels, row by row in
the same order, so their loss values agree bitwise.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import kernels


@dataclass
class Batch:
    """Anchor rows, target rows, and the positive map between them.

    Hard negatives are plain rows of targets with no entry in r; the
    loss treats them identically to in-batch negatives. Anchors and
    targets must be non-empty 2-D arrays of finite rows, and r a 1-D map
    of whole numbers, one per anchor, each a target index: anything else
    raises ValueError here, before any step can train on it.
    """

    anchors: np.ndarray
    targets: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        for name, rows in (("anchors", self.anchors), ("targets", self.targets)):
            if rows.ndim != 2 or rows.shape[0] == 0:
                raise ValueError(
                    f"{name} must be a non-empty 2-D array of rows, got "
                    f"shape {rows.shape}"
                )
            bad = rows.size - int(np.isfinite(rows).sum())
            if bad:
                raise ValueError(
                    f"{name} hold {bad} non-finite entries (NaN or inf) "
                    f"out of {rows.size}"
                )
        r = np.asarray(self.r)
        if r.ndim != 1:
            raise ValueError(f"positive map must be 1-D, got shape {r.shape}")
        whole = r.dtype.kind in "iu" or (
            r.dtype.kind == "f" and np.all(np.isfinite(r) & (r == np.floor(r))))
        if not whole:
            raise ValueError(f"positive map must hold whole numbers, got "
                             f"{r.dtype} values {r[:8].tolist()}")
        validate_positive_map(r, self.targets.shape[0])
        self.r = r.astype(np.int64)
        if self.r.shape[0] != self.anchors.shape[0]:
            raise ValueError(
                f"positive map length {self.r.shape[0]} does not match "
                f"{self.anchors.shape[0]} anchors"
            )

    @property
    def n_anchors(self):
        return self.anchors.shape[0]

    @property
    def n_targets(self):
        return self.targets.shape[0]


def aligned_batch(anchors, targets):
    """Batch where anchor i's positive is target i."""
    anchors = np.asarray(anchors, dtype=np.float64)
    return Batch(anchors, targets, np.arange(anchors.shape[0]))


def validate_positive_map(r, n_targets):
    r = np.asarray(r)
    if r.size and (r.min() < 0 or r.max() >= n_targets):
        raise ValueError(
            f"invalid r index: values must lie in [0, {n_targets}), "
            f"got range [{r.min()}, {r.max()}]"
        )


def validate_temperature(tau):
    """Reject a temperature the loss cannot use, with ValueError.

    The loss scales every score by 1/tau, so tau must be finite and > 0
    and 1/tau finite: NaN, 0, a negative, inf and a subnormal such as
    1e-310 are refused.
    """
    tau = float(tau)
    if not (tau > 0 and math.isfinite(tau) and math.isfinite(1.0 / tau)):
        raise ValueError(
            f"temperature must be finite and > 0 with a finite inverse, "
            f"got {tau}"
        )


@dataclass
class SimilarityResult:
    logits: np.ndarray
    p: np.ndarray
    loss: float


@dataclass
class RepresentationGradients:
    u: np.ndarray
    v: np.ndarray
    epsilon: np.ndarray


def contrastive_loss(F, G, r, tau=1.0):
    """Reference loss over embedding matrices; returns logits, p, loss."""
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    r = np.asarray(r, dtype=np.int64)
    if F.shape[1] != G.shape[1]:
        raise ad.ShapeMismatchError(
            f"contrastive_loss: embedding dims differ, {F.shape} vs {G.shape}"
        )
    validate_positive_map(r, G.shape[0])
    scores = kernels.pair_scores(F, G)
    p = (1.0 / tau) * scores
    lse, s = kernels.exp_rows(p)
    p /= s
    neg_pos = (-1.0 / tau) * kernels.matmul(F * G[r], np.ones((F.shape[1], 1)))
    loss = (1.0 / F.shape[0]) * (lse + neg_pos).sum()
    return SimilarityResult(logits=(1.0 / tau) * scores, p=p, loss=float(loss))


def _mean_gap(lse, neg_pos):
    """Taped (1/n_s) * sum_i (lse_i - pos_i), given lse and -pos."""
    n_s = lse.data.shape[0]
    return ad.scalar_mul(1.0 / n_s, ad.sum_all(ad.add(lse, neg_pos)))


def loss_graph_from_logits(z, r):
    """Taped loss tail from scaled logits [n_s x n_t] to a scalar Tensor."""
    validate_positive_map(r, z.data.shape[1])
    pos = ad.pick_per_row(z, r)
    return _mean_gap(ad.row_logsumexp(z), ad.scalar_mul(-1.0, pos))


def _neg_positive_logits(F_t, G_t, r, tau):
    """Taped -pos_i = -(1/tau) * rowsum(F * G[r]), an O(n_s * d) column."""
    validate_positive_map(r, G_t.data.shape[0])
    ones = np.ones((F_t.data.shape[1], 1))
    aligned = ad.matmul(ad.mul(F_t, ad.index_rows(G_t, r)), ones)
    return ad.scalar_mul(-1.0 / tau, aligned)


def loss_graph_from_reps(F, G, r, tau):
    """Loss over embedding rows, and its gradients (loss, dL/dF, dL/dG).

    The cached step's step2, streamed over anchor strips: one
    ``kernels.strip_logsumexp`` call gives lse with its gradients, which
    are the gradient cache from the start. A small tape then records only
    the O(n_s * d) alignment term over leaves whose gradient buffers are
    those two arrays, so its backward adds c * G[r] and scatter_r(c * F),
    c = -1 / (tau * n_s), into them in place. The step benchmark wraps
    this function by name. Besides the cache it holds the larger of the
    kernel's term (in its docstring) and the tape's, 4 * n_s * d +
    max(n_s, n_t) * d + 6 * n_s + 4: G[r], F * G[r] and the latter's
    gradient, six n_s x 1 columns, four scalars, and either the mul
    VJP's two n_s x d results or G[r]'s gradient and the n_t x d
    scatter made of it. At d = 16 and n_s = n_t = n the tape's binds
    from n = 1552 where TILE divides n, and never where it does not.
    """
    lse, dF, dG = kernels.strip_logsumexp(F, G, 1.0 / tau, 1.0 / F.shape[0])
    tape = ad.Tape()
    with ad.recording(tape):
        neg_pos = _neg_positive_logits(tape.leaf(F, dF), tape.leaf(G, dG),
                                       r, tau)
        loss_t = _mean_gap(ad.constant(lse), neg_pos)
    # the add node holds lse + neg_pos; lse itself is not needed again
    del lse
    tape.backward(loss_t)
    return float(loss_t.data), dF, dG


def _dense_loss_graph_from_reps(F_t, G_t, r, tau):
    """The same loss through the dense n_s x n_t scores and their softmax.

    ``direct_param_grads`` keeps this tail (see the module docstring): it
    shares none of the strip code it checks, and its activation peak
    grows with n^2, as plain large-batch training's does.
    """
    neg_pos = _neg_positive_logits(F_t, G_t, r, tau)
    lse = ad.row_logsumexp(ad.dot_product_matrix(F_t, G_t), 1.0 / tau)
    return _mean_gap(lse, neg_pos)


def analytic_rep_grads(F, G, r, tau=1.0, result=None):
    """Closed-form dL/dF and dL/dG rows, independent of the tape.

    The per-target aggregate epsilon_j sums f(s_k) over every anchor k
    whose positive is j; with unique positives this picks the single
    matching anchor row.
    """
    F = np.asarray(F, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    r = np.asarray(r, dtype=np.int64)
    if result is None:
        result = contrastive_loss(F, G, r, tau)
    p = result.p
    n_s = F.shape[0]
    coef = -1.0 / (n_s * tau)
    u = coef * (G[r] - np.matmul(p, G))
    epsilon = kernels.scatter_add_rows(np.zeros_like(G), r, F)
    v = coef * (epsilon - np.matmul(p.T, F))
    return RepresentationGradients(u=u, v=v, epsilon=epsilon)


def direct_param_grads(batch, params_f, params_g, tau=1.0):
    """Ground-truth baseline: one taped pass through everything.

    Encodes all anchors and targets on a single tape, computes the loss,
    and backpropagates through encoders and loss together. Returns flat
    gradient lists for both encoders plus the loss value.
    """
    tape = ad.Tape()
    with ad.recording(tape):
        leaves_f = encoders.make_leaves(params_f)
        leaves_g = encoders.make_leaves(params_g)
        F_t = encoders.encode_graph(leaves_f, ad.constant(batch.anchors))
        G_t = encoders.encode_graph(leaves_g, ad.constant(batch.targets))
        loss_t = _dense_loss_graph_from_reps(F_t, G_t, batch.r, tau)
    tape.backward(loss_t)
    grads_f = encoders.leaf_grads(tape, leaves_f)
    grads_g = encoders.leaf_grads(tape, leaves_g)
    return grads_f, grads_g, float(loss_t.data)
