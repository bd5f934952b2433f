"""Synthetic retrieval experiments: data generation, training runs,
top-k evaluation, and machine-readable reports.

The task is linear-latent: each pair shares a latent vector z, with
anchor = z A + noise and target = z B + noise for fixed random A, B.
Retrieval improves with training and with more in-batch negatives,
which is what makes the mode comparison observable at desk scale.

Per-step metric records use the documented jsonl schema (see
METRICS_FIELDS); the run summary goes to CSV. A (config, seed) pair
fully determines every emitted value except wall-clock fields.
"""

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import deep as deep_mod
from . import encoders
from . import kernels
from . import loss as loss_mod
from . import memtrace
from . import multiworker
from . import trainer

SCHEMA_VERSION = 2
METRICS_FIELDS = (
    "step", "loss", "fwd_count", "bwd_count", "act_peak", "cache_floats",
    "wall_ms", "loss_phase_peak",
)
# a run's summary row, before its hit@k columns
SUMMARY_FIELDS = (
    "schema_version", "mode", "batch_size", "sub_batch_s", "sub_batch_t",
    "workers", "temperature", "epochs", "seed", "steps", "final_loss",
    "act_peak", "cache_floats", "loss_phase_peak",
)


class ConfigError(ValueError):
    """A run configuration failed validation."""


class NonFiniteError(RuntimeError):
    """A training step produced a non-finite loss or parameter."""


@dataclass
class RunConfig:
    mode: str = "direct"
    batch_size: int = 128
    sub_batch_s: int = 16
    sub_batch_t: int = 16
    workers: int = 1
    temperature: float = 1.0
    epochs: int = 1
    seed: int = 0
    optimizer: str = "adam"
    lr: float = 1.5e-2
    encoder_hidden: int = 32
    embed_dim: int = 16
    encoder_activation: str = "tanh"
    phi_hidden: int = 8
    train_encoders: bool = True
    n_pairs: int = 1000
    in_dim_s: int = 24
    in_dim_t: int = 24
    latent_dim: int = 16
    noise: float = 0.5
    eval_frac: float = 0.1
    eval_k: tuple = (1, 5, 20)
    activation_budget: int = None


def validate_config(cfg):
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; choose from {MODES}")
    if cfg.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.mode in ("cache", "deep", "multi", "accumulation"):
        if cfg.sub_batch_s < 1 or cfg.sub_batch_t < 1:
            raise ConfigError(
                f"mode {cfg.mode!r} requires positive sub-batch sizes, got "
                f"{cfg.sub_batch_s} / {cfg.sub_batch_t}"
            )
    if cfg.mode == "multi" and not 1 <= cfg.workers <= cfg.batch_size:
        raise ConfigError(f"workers must be in [1, batch_size "
                          f"{cfg.batch_size}], got {cfg.workers}")
    try:
        loss_mod.validate_temperature(cfg.temperature)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.optimizer not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")
    if not (cfg.lr > 0 and np.isfinite(cfg.lr)):
        raise ConfigError(f"lr must be finite and > 0, got {cfg.lr}")
    if cfg.encoder_activation not in kernels.ACTIVATIONS:
        raise ConfigError(
            f"unknown encoder_activation {cfg.encoder_activation!r}; choose "
            f"from {kernels.ACTIVATIONS}"
        )
    for name in ("encoder_hidden", "embed_dim", "phi_hidden", "in_dim_s",
                 "in_dim_t", "latent_dim"):
        if getattr(cfg, name) < 1:
            raise ConfigError(
                f"{name} must be >= 1, got {getattr(cfg, name)}"
            )
    if not (cfg.noise >= 0 and np.isfinite(cfg.noise)):
        raise ConfigError(f"noise must be finite and >= 0, got {cfg.noise}")
    if cfg.n_pairs < 2:
        raise ConfigError(f"n_pairs must be >= 2, got {cfg.n_pairs}")
    if not 0.0 < cfg.eval_frac < 1.0:
        raise ConfigError(f"eval_frac must be in (0, 1), got {cfg.eval_frac}")
    if not cfg.eval_k or any(k < 1 for k in cfg.eval_k):
        raise ConfigError(f"eval_k entries must be >= 1, got {cfg.eval_k}")
    if cfg.activation_budget is not None and cfg.activation_budget < 1:
        raise ConfigError(
            f"activation_budget must be >= 1 float, got "
            f"{cfg.activation_budget}"
        )
    return cfg


def split_sizes(cfg):
    """(n_train, n_eval): eval pairs are the held-out tail of n_pairs."""
    n_eval = int(round(cfg.n_pairs * cfg.eval_frac))
    return cfg.n_pairs - n_eval, n_eval


def check_task_fits(cfg, train=True):
    """Reject a batch larger than the training split (when training) and
    a k larger than the eval split, before any step runs."""
    n_train, n_eval = split_sizes(cfg)
    if train and cfg.batch_size > n_train:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds the {n_train} training "
            f"pairs"
        )
    if max(cfg.eval_k) > n_eval:
        raise ConfigError(
            f"eval_k {max(cfg.eval_k)} exceeds the {n_eval} eval pairs"
        )
    return cfg


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------

@dataclass
class SyntheticTask:
    train_anchors: np.ndarray
    train_targets: np.ndarray
    eval_anchors: np.ndarray
    eval_targets: np.ndarray

    @property
    def n_train(self):
        return self.train_anchors.shape[0]

    @property
    def n_eval(self):
        return self.eval_anchors.shape[0]


def generate_task(cfg, mix_anchor=None, mix_target=None):
    """Deterministic paired dataset; eval pairs are the held-out tail.

    mix_anchor / mix_target override the random mixing matrices (used by
    tests to force degenerate geometry such as anchors == targets).
    """
    if cfg.n_pairs < 2:
        raise ConfigError(f"n_pairs must be >= 2, got {cfg.n_pairs}")
    if cfg.latent_dim < 1 or cfg.in_dim_s < 1 or cfg.in_dim_t < 1:
        raise ConfigError(
            f"degenerate dims: latent {cfg.latent_dim}, "
            f"anchor {cfg.in_dim_s}, target {cfg.in_dim_t}"
        )
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / np.sqrt(cfg.latent_dim)
    A = mix_anchor if mix_anchor is not None else scale * rng.normal(
        size=(cfg.latent_dim, cfg.in_dim_s)
    )
    B = mix_target if mix_target is not None else scale * rng.normal(
        size=(cfg.latent_dim, cfg.in_dim_t)
    )
    z = rng.normal(size=(cfg.n_pairs, cfg.latent_dim))
    anchors = z @ A + cfg.noise * rng.normal(size=(cfg.n_pairs, A.shape[1]))
    targets = z @ B + cfg.noise * rng.normal(size=(cfg.n_pairs, B.shape[1]))
    n_train, _ = split_sizes(cfg)
    return SyntheticTask(
        train_anchors=anchors[:n_train],
        train_targets=targets[:n_train],
        eval_anchors=anchors[n_train:],
        eval_targets=targets[n_train:],
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_ranks(params_f, params_g, anchors, targets, r=None, head=None):
    """Rank of each anchor's true positive among all targets (0-based).

    Scores are encoded dot products, or with an mlp head its scores of
    the encoded pairs (``kernels.head_scores``); ties resolve toward the
    lower target index via a stable sort on negated scores.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if anchors.shape[0] == 0 or targets.shape[0] == 0:
        raise ValueError("evaluate: empty eval set")
    if r is None:
        r = np.arange(anchors.shape[0])
    F = encoders.encode(params_f, anchors)
    G = encoders.encode(params_g, targets)
    if head is None or head.kind == "dot":
        scores = kernels.pair_scores(F, G)
    else:
        scores = kernels.head_scores(F, G, *deep_mod.head_arrays(head),
                                     head.activation)
    order = np.argsort(-scores, axis=1, kind="stable")
    positions = np.argsort(order, axis=1, kind="stable")
    return positions[np.arange(anchors.shape[0]), r]


def evaluate_topk(params_f, params_g, anchors, targets, ks, r=None,
                  head=None):
    """hit@k for each requested k: fraction of positives ranked in top k."""
    for k in ks:
        if k > np.asarray(targets).shape[0]:
            raise ValueError(
                f"evaluate: k={k} exceeds {np.asarray(targets).shape[0]} targets"
            )
    ranks = evaluate_ranks(params_f, params_g, anchors, targets, r, head)
    return _hits_at(ranks, ks)


def _hits_at(ranks, ks):
    """hit@k for each k, from the positives' 0-based ranks."""
    return {k: float(np.mean(ranks < k)) for k in ks}


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    config: RunConfig
    metrics: list
    summary: dict
    params_f: encoders.EncoderParams
    params_g: encoders.EncoderParams
    head: deep_mod.DistanceHead = None
    hits: dict = field(default_factory=dict)
    ranks: np.ndarray = None


def _epoch_batches(task, cfg, shuffle_rng):
    """Contiguous batches over a shuffled index; the tail is dropped."""
    order = shuffle_rng.permutation(task.n_train)
    n_batches = task.n_train // cfg.batch_size
    for b in range(n_batches):
        idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
        yield loss_mod.aligned_batch(
            task.train_anchors[idx], task.train_targets[idx]
        )


@dataclass
class RunState:
    """What a run carries from step to step, plus its memory meter."""

    params_f: encoders.EncoderParams
    params_g: encoders.EncoderParams
    opt_state: encoders.OptimizerState
    meter: memtrace.MemCounter
    head: deep_mod.DistanceHead = None
    group: multiworker.WorkerGroup = None

    def advance(self, res):
        """Take the step's new parameters (multi: rank 0's replica)."""
        self.params_f, self.params_g = res.params_f, res.params_g
        self.opt_state, self.head = res.opt_state, res.head


def init_state(cfg):
    """Seeded encoders (and head or worker group), optimizer and meter."""
    params_f = encoders.init_params(
        cfg.seed + 1,
        [cfg.in_dim_s, cfg.encoder_hidden, cfg.embed_dim],
        cfg.encoder_activation,
    )
    params_g = encoders.init_params(
        cfg.seed + 2,
        [cfg.in_dim_t, cfg.encoder_hidden, cfg.embed_dim],
        cfg.encoder_activation,
    )
    opt_state = encoders.init_optimizer(cfg.optimizer, cfg.lr)
    meter = memtrace.MemCounter(activation_budget=cfg.activation_budget)
    for arr in params_f.arrays + params_g.arrays:
        meter.track_alloc("parameters", arr.size)
    state = RunState(params_f, params_g, opt_state, meter)
    if cfg.mode == "deep":
        state.head = deep_mod.init_distance_head(
            cfg.seed + 3, cfg.embed_dim, cfg.phi_hidden
        )
    if cfg.mode == "multi":
        state.group = multiworker.WorkerGroup(
            cfg.workers, params_f, params_g, opt_state
        )
    return state


def _train_config(cfg):
    return trainer.TrainConfig(cfg.temperature, cfg.sub_batch_s, cfg.sub_batch_t)


def _direct(st, batch, cfg):
    return trainer.train_step_direct(
        batch, st.params_f, st.params_g, st.opt_state, cfg.temperature
    )


# Every mode and its step(state, batch, cfg); sequential is direct at
# small batch.
STEPS = {
    "direct": _direct,
    "cache": lambda st, batch, cfg: trainer.train_step_cached(
        batch, st.params_f, st.params_g, st.opt_state, _train_config(cfg)),
    "accumulation": lambda st, batch, cfg: trainer.train_step_accumulation(
        batch, st.params_f, st.params_g, st.opt_state, cfg.sub_batch_s,
        cfg.temperature),
    "sequential": _direct,
    "deep": lambda st, batch, cfg: deep_mod.train_step_deep(
        batch, st.params_f, st.params_g, st.head, st.opt_state,
        deep_mod.DeepConfig(cfg.temperature, cfg.sub_batch_s,
                            cfg.sub_batch_t, cfg.train_encoders)),
    "multi": lambda st, batch, cfg: multiworker.train_step_multi(
        st.group, batch, _train_config(cfg)),
}
MODES = tuple(STEPS)


def _check_finite(mode, step_idx, loss, state):
    """Stop a run whose loss, updated parameters or optimizer state
    (Adam's v, where a gradient's square overflows) left the finite
    floats."""
    arrays = state.params_f.arrays + state.params_g.arrays
    if state.head is not None:
        arrays += deep_mod.head_arrays(state.head)
    moments = (state.opt_state.m or []) + (state.opt_state.v or [])
    if not np.isfinite(loss):
        what = f"loss {loss}"
    elif not all(np.isfinite(a).all() for a in arrays):
        what = "parameters"
    elif not all(np.isfinite(a).all() for a in moments):
        what = "optimizer state"
    else:
        return
    raise NonFiniteError(
        f"mode {mode}, step {step_idx}: non-finite {what}; check the "
        f"temperature and learning rate"
    )


def run_experiment(cfg):
    """Train under one mode and collect per-step metrics plus final eval."""
    check_task_fits(validate_config(cfg))
    task = generate_task(cfg)
    state = init_state(cfg)
    step = STEPS[cfg.mode]
    shuffle_rng = np.random.default_rng(cfg.seed + 17)
    metrics = []
    step_idx = 0
    # an overflow in a step is the finite check's to report, not a warning
    with state.meter.activate(), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            for batch in _epoch_batches(task, cfg, shuffle_rng):
                t0 = time.perf_counter()
                res = step(state, batch, cfg)
                state.advance(res)
                wall_ms = (time.perf_counter() - t0) * 1e3
                _check_finite(cfg.mode, step_idx, res.loss, state)
                stats = res.stats
                metrics.append({
                    "step": step_idx,
                    "loss": res.loss,
                    "fwd_count": stats.fwd_rows,
                    "bwd_count": stats.bwd_rows,
                    "act_peak": stats.act_peak,
                    "cache_floats": stats.cache_floats,
                    "wall_ms": wall_ms,
                    "loss_phase_peak": stats.loss_phase_peak,
                })
                step_idx += 1
    params_f, params_g = state.params_f, state.params_g

    ks = tuple(cfg.eval_k)
    ranks = evaluate_ranks(
        params_f, params_g, task.eval_anchors, task.eval_targets,
        head=state.head,
    )
    hits = _hits_at(ranks, ks)
    run_values = {
        "schema_version": SCHEMA_VERSION,
        "steps": step_idx,
        "final_loss": metrics[-1]["loss"] if metrics else float("nan"),
    }
    for key in ("act_peak", "cache_floats", "loss_phase_peak"):
        run_values[key] = max((m[key] for m in metrics), default=0)
    # the other summary fields are the config's own
    summary = {key: run_values[key] if key in run_values
               else getattr(cfg, key) for key in SUMMARY_FIELDS}
    for k in ks:
        summary[f"hit@{k}"] = hits[k]
    return RunResult(
        config=cfg,
        metrics=metrics,
        summary=summary,
        params_f=params_f,
        params_g=params_g,
        head=state.head,
        hits=hits,
        ranks=ranks,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def emit_metrics_jsonl(metrics, path):
    """One strict json object per step, fields in METRICS_FIELDS order."""
    with open(path, "w") as fh:
        for row in metrics:
            fh.write(json.dumps({k: row[k] for k in METRICS_FIELDS},
                                allow_nan=False))
            fh.write("\n")
    return path


def emit_summary_csv(summary_rows, path):
    """Run summaries as CSV; header always written, even with no rows."""
    columns = (list(summary_rows[0].keys()) if summary_rows
               else list(SUMMARY_FIELDS))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in summary_rows:
            writer.writerow(row)
    return path


def save_run_checkpoint(result, path):
    groups = {
        "f": encoders.params_to_group(result.params_f),
        "g": encoders.params_to_group(result.params_g),
    }
    if result.head is not None:
        groups["phi"] = deep_mod.head_to_group(result.head)
    encoders.save_params_file(path, groups)
    return path


def load_run_checkpoint(path, cfg):
    """(params_f, params_g, head) from a ``save_run_checkpoint`` file; head
    is None without a phi group. A file that cannot be read, is malformed
    or does not fit cfg's input widths raises ConfigError naming it."""
    try:
        groups = encoders.load_params_file(path)
        if "f" not in groups or "g" not in groups:
            raise ValueError("lacks encoder groups")
        params_f = encoders.params_from_group(groups["f"])
        params_g = encoders.params_from_group(groups["g"])
        head = (deep_mod.head_from_group(groups["phi"]) if "phi" in groups
                else None)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    d = params_f.out_dim
    widths = [
        ("anchor input width", params_f.in_dim, "in_dim_s", cfg.in_dim_s),
        ("target input width", params_g.in_dim, "in_dim_t", cfg.in_dim_t),
        ("target embedding width", params_g.out_dim, "the anchors'", d),
    ]
    if head is not None:
        widths.append(("head width", head.d, "the embedding width", d))
    for what, got, ref, want in widths:
        if got != want:
            raise ConfigError(f"checkpoint {path}: {what} {got} differs "
                              f"from {ref} {want}")
    return params_f, params_g, head


# ---------------------------------------------------------------------------
# memory profiling support
# ---------------------------------------------------------------------------

def profile_single_step(cfg):
    """One step of the run's config under a fresh counter; per-category
    peaks. The batch is random, seeded by cfg.seed."""
    if cfg.mode == "multi":
        raise ConfigError(
            "profile cannot measure multi: each worker records into its "
            "own meter; profile direct, cache, accumulation, sequential "
            "or deep"
        )
    validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    batch = loss_mod.aligned_batch(
        rng.normal(size=(cfg.batch_size, cfg.in_dim_s)),
        rng.normal(size=(cfg.batch_size, cfg.in_dim_t)),
    )
    # measure the whole step: a budget would abort it before the peaks
    state = init_state(replace(cfg, activation_budget=None))
    meter = state.meter
    # an overflowing update does not change the peaks measured here
    with meter.activate(), np.errstate(over="ignore", invalid="ignore"):
        stats = STEPS[cfg.mode](state, batch, cfg).stats
    return {
        "mode": cfg.mode,
        "batch_size": cfg.batch_size,
        "act_peak": stats.act_peak,
        "loss_phase_peak": stats.loss_phase_peak,
        "representation_store": meter.peak["representation-store"],
        "gradient_cache": meter.peak["gradient-cache"],
        "parameters": meter.peak["parameters"],
        "activation_live_end": meter.live["activation"],
    }


# Fields whose annotated type cannot parse a string value.
_COERCERS = {
    "train_encoders": lambda v: str(v).strip().lower() in ("1", "true", "yes"),
    "eval_k": lambda v: tuple(int(x) for x in str(v).split(",") if x.strip()),
    "activation_budget": lambda v: None if str(v).lower() in ("none", "") else int(v),
}


def apply_overrides(cfg, mapping):
    """Overlay key/value overrides onto a config; unknown keys error."""
    known = {f.name: f.type for f in fields(RunConfig)}
    updates = {}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        coerce = _COERCERS.get(key, known[key])
        if isinstance(value, str):
            try:
                value = coerce(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        updates[key] = value
    return replace(cfg, **updates)


def parse_config_file(path):
    """Plain-text key=value lines; '#' starts a comment."""
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping
