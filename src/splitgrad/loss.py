"""Batch contrastive loss over paired sets, three ways.

Given anchor embeddings F, target embeddings G, and a positive map r,
the loss is the mean cross-entropy of each anchor's positive target
under a softmax over temperature-scaled logits, written as a
log-sum-exp minus the positive logit:

    L = (1/|S|) sum_i [lse_i - pos_i],
    lse_i = log sum_j exp(F_i . G_j / tau),   pos_i = F_i . G_{r_i} / tau.

lse is the uniformity term and pos the alignment term of Wang & Isola
(arXiv 2005.10242). ``kernels.row_logsumexp`` computes lse stably (it
subtracts the row max), folds 1/tau in, and keeps the row softmax as
its only n_s x n_t buffer; no probability is ever logged, so the loss
stays finite whenever the scaled scores F_i . G_j / tau are.

Three implementations coexist on purpose:

* ``contrastive_loss``: plain-numpy reference producing logits, p, loss;
* ``loss_graph_from_reps`` / ``loss_graph_from_logits``: the taped
  graphs used by training paths;
* ``analytic_rep_grads``: closed-form gradients with respect to F and G,
  kept independent of the tape as a cross-check oracle.

The reference and the taped graph from representations call the same
kernels in the same order, so their loss values agree bitwise.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import kernels


@dataclass
class Batch:
    """Anchor rows, target rows, and the positive map between them.

    Hard negatives are plain rows of targets with no entry in r; the
    loss treats them identically to in-batch negatives.
    """

    anchors: np.ndarray
    targets: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.r = np.asarray(self.r, dtype=np.int64)
        validate_positive_map(self.r, self.targets.shape[0])
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
    lse, p = kernels.row_logsumexp(scores, 1.0 / tau)
    neg_pos = (-1.0 / tau) * kernels.matmul(F * G[r], np.ones((F.shape[1], 1)))
    loss = (1.0 / F.shape[0]) * (lse + neg_pos).sum()
    return SimilarityResult(logits=(1.0 / tau) * scores, p=p, loss=float(loss))


def _mean_gap(lse, neg_pos):
    """Taped (1/n_s) * sum_i (lse_i - pos_i), given lse and -pos."""
    n_s = lse.data.shape[0]
    return ad.scalar_mul(1.0 / n_s, ad.sum_all(ad.add(lse, neg_pos)))


def loss_graph_from_logits(z, r):
    """Taped loss tail from scaled logits [n_s x n_t] to a scalar Tensor."""
    n_s, n_t = z.data.shape
    validate_positive_map(r, n_t)
    flat_pos = np.arange(n_s) * n_t + np.asarray(r, dtype=np.int64)
    pos = ad.index_rows(ad.reshape(z, (n_s * n_t, 1)), flat_pos)
    return _mean_gap(ad.row_logsumexp(z), ad.scalar_mul(-1.0, pos))


def loss_graph_from_reps(F_t, G_t, r, tau):
    """Taped loss from embedding Tensors; 1/tau folds into the tail.

    The positive logit is the O(n_s * d) alignment row sum of F * G[r],
    so no scaled n_s x n_t logits array or its gradient is ever built.
    """
    validate_positive_map(r, G_t.data.shape[0])
    ones = np.ones((F_t.data.shape[1], 1))
    aligned = ad.matmul(ad.mul(F_t, ad.index_rows(G_t, r)), ones)
    lse = ad.row_logsumexp(ad.dot_product_matrix(F_t, G_t), 1.0 / tau)
    return _mean_gap(lse, ad.scalar_mul(-1.0 / tau, aligned))


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
    epsilon = np.zeros_like(G)
    kernels.scatter_add_rows(epsilon, r, F)
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
        loss_t = loss_graph_from_reps(F_t, G_t, batch.r, tau)
    tape.backward(loss_t)
    grads_f = encoders.leaf_grads(tape, leaves_f)
    grads_g = encoders.leaf_grads(tape, leaves_g)
    return grads_f, grads_g, float(loss_t.data)
