"""Memory-constant contrastive training via a representation gradient cache.

A training step over a large batch is split into a graph-less forward,
a representation-level backward whose output is a small gradient cache,
and per-sub-batch re-encoding passes seeded from that cache. Parameter
gradients match direct large-batch training while peak activation
memory stays at the sub-batch scale.
"""

from .autodiff import (
    FiniteDiffReport,
    NoGraphError,
    ShapeMismatchError,
    Tape,
    TapeReuseError,
    finite_diff_check,
    flat_max_rel_err,
    max_rel_err,
    no_graph,
)
from .bench import ConfigError, RunConfig, evaluate_topk, generate_task, run_experiment
from .deep import (
    DeepConfig,
    DistanceHead,
    deep_direct_grads,
    dot_head,
    init_distance_head,
    train_step_deep,
)
from .encoders import (
    EncoderParams,
    encode,
    init_optimizer,
    init_params,
    load_params_file,
    optimizer_step,
    save_params_file,
)
from .kernels import active_backend
from .loss import Batch, aligned_batch, analytic_rep_grads, contrastive_loss, direct_param_grads
from .memtrace import BudgetExceededError, MemCounter, use_meter
from .multiworker import WorkerGroup, all_gather, reduce_grads, train_step_multi
from .trainer import (
    CacheNotFilledError,
    TrainConfig,
    plan_subbatches,
    train_step_accumulation,
    train_step_cached,
    train_step_direct,
)

__all__ = [
    "Batch",
    "BudgetExceededError",
    "CacheNotFilledError",
    "ConfigError",
    "DeepConfig",
    "DistanceHead",
    "EncoderParams",
    "FiniteDiffReport",
    "MemCounter",
    "NoGraphError",
    "RunConfig",
    "ShapeMismatchError",
    "Tape",
    "TapeReuseError",
    "TrainConfig",
    "WorkerGroup",
    "active_backend",
    "aligned_batch",
    "all_gather",
    "analytic_rep_grads",
    "contrastive_loss",
    "deep_direct_grads",
    "direct_param_grads",
    "dot_head",
    "encode",
    "evaluate_topk",
    "finite_diff_check",
    "flat_max_rel_err",
    "generate_task",
    "init_distance_head",
    "init_optimizer",
    "init_params",
    "load_params_file",
    "max_rel_err",
    "no_graph",
    "optimizer_step",
    "plan_subbatches",
    "reduce_grads",
    "run_experiment",
    "save_params_file",
    "train_step_accumulation",
    "train_step_cached",
    "train_step_deep",
    "train_step_direct",
    "train_step_multi",
    "use_meter",
]
