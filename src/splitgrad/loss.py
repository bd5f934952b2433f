"""Batch contrastive loss over paired sets, three ways.

Given anchor embeddings F, target embeddings G, and a positive map r,
the loss is the mean negative log of the softmax probability assigned
to each anchor's positive target, with a temperature dividing the
logits:

    L = -(1/|S|) sum_i log p_{i, r_i},
    p_ij = softmax_j(F_i . G_j / tau).

Three implementations coexist on purpose:

* ``contrastive_loss``: plain-numpy reference producing logits, p, loss;
* ``loss_graph_from_logits``: the taped graph used by training paths;
* ``analytic_rep_grads``: closed-form gradients with respect to F and G,
  kept independent of the tape as a cross-check oracle.

The reference and the taped graph call the same kernels in the same
order, so their loss values agree bitwise.
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


def positive_mask(n_anchors, n_targets, r):
    """0/1 matrix with a single 1 per row at the positive column."""
    validate_positive_map(r, n_targets)
    mask = np.zeros((n_anchors, n_targets))
    mask[np.arange(n_anchors), r] = 1.0
    return mask


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
    n_s = F.shape[0]
    logits = (1.0 / tau) * kernels.pair_scores(F, G)
    p = kernels.row_softmax(logits)
    mask = positive_mask(n_s, G.shape[0], r)
    picked = kernels.matmul(p * mask, np.ones((G.shape[0], 1)))
    loss = (-1.0 / n_s) * np.log(picked).sum()
    return SimilarityResult(logits=logits, p=p, loss=float(loss))


def loss_graph_from_logits(z, r):
    """Taped loss tail from scaled logits [n_s x n_t] to a scalar Tensor."""
    n_s, n_t = z.data.shape
    p = ad.row_softmax(z)
    mask = positive_mask(n_s, n_t, r)
    picked = ad.matmul(ad.mul(p, mask), np.ones((n_t, 1)))
    logp = ad.log(picked)
    return ad.scalar_mul(-1.0 / n_s, ad.sum_all(logp))


def loss_graph_from_reps(F_t, G_t, r, tau):
    """Taped loss from embedding Tensors, temperature inside the logits."""
    z = ad.scalar_mul(1.0 / tau, ad.dot_product_matrix(F_t, G_t))
    return loss_graph_from_logits(z, r)


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
