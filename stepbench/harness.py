"""One benchmark role for one workload, in its own process.

    python3 stepbench/harness.py --role ROLE --workload NAME --seed N --seconds S

Roles:

* ``setup``: build the workload's data and initial state, print ``ready``
  and exit. The launcher times process start to that line (set-up time).
* ``gate``: set up, then run the untimed correctness gates on the first
  batch.
* ``time``: set up, then train in a closed loop for S seconds with a
  ``memtrace.MemCounter`` active and report the end-to-end metrics.
* ``trace``: set up, then for S seconds train rounds of three episodes:
  one with the meter on, one with it off, one with the outside-in tracer
  installed; report the per-layer metrics and write the spans out.

Every role except ``setup`` prints one JSON object as its last line.
The loop is closed: one client starts each training step when the
previous one returns. Training runs in episodes of EPISODE_STEPS steps
from the same initial state, so the loss after the last step of an
episode (``final_loss``) is fixed by the seed, and every episode must
repeat the first one's losses bitwise.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import splitgrad  # noqa: E402

if Path(splitgrad.__file__).resolve().parent != SRC / "splitgrad":
    raise ImportError(
        f"splitgrad imported from {splitgrad.__file__}, not from {SRC}"
    )

from splitgrad import (  # noqa: E402
    autodiff,
    bench,
    deep,
    encoders,
    kernels,
    loss,
    memtrace,
    trainer,
)

from tracer import Tracer  # noqa: E402

OUT_DIR = ROOT / ".stepbench_out"


@dataclass(frozen=True)
class Workload:
    mode: str
    batch: int
    sub_batch: int
    dims: tuple


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "cache-b1024": Workload("cache", 1024, 32, (24, 32, 16)),
    "cache-wide-b256": Workload("cache", 256, 16, (24, 128, 128, 16)),
    "deep-b128": Workload("deep", 128, 16, (24, 32, 16)),
}

TAU = 1.0
LR = 1.5e-2
EPISODE_STEPS = 8
PAIRS_PER_BATCH = 4  # data set size as a multiple of the batch size
PHI_HIDDEN = 8  # hidden width of the deep-mode distance head
GRAD_TOL = 1e-9
MAX_SPANS = 300_000  # tracing stops after the round that passes this


# ---------------------------------------------------------------------------
# workload state and one step
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    ms: float
    loss: float
    act_peak: int
    loss_phase_peak: int
    fwd_rows: int
    bwd_rows: int
    phi_pairs: int


class Session:
    """A workload's batches, initial state and public step function."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from "
                             f"{sorted(WORKLOADS)}")
        wl = self.workload = WORKLOADS[name]
        cfg = bench.RunConfig(
            seed=seed,
            n_pairs=PAIRS_PER_BATCH * wl.batch,
            in_dim_s=wl.dims[0],
            in_dim_t=wl.dims[0],
        )
        task = bench.generate_task(cfg)
        self.batches = _draw_batches(
            task, wl.batch, EPISODE_STEPS, np.random.default_rng(seed + 17)
        )
        self.params_f0 = encoders.init_params(seed + 1, list(wl.dims), "tanh")
        self.params_g0 = encoders.init_params(seed + 2, list(wl.dims), "tanh")
        self.head0 = None
        if wl.mode == "deep":
            self.head0 = deep.init_distance_head(seed + 3, wl.dims[-1],
                                                 PHI_HIDDEN)
        self.train_cfg = trainer.TrainConfig(TAU, wl.sub_batch, wl.sub_batch)
        self.deep_cfg = deep.DeepConfig(TAU, wl.sub_batch, wl.sub_batch)
        self.reset()

    def reset(self):
        """Back to the initial parameters and a fresh optimizer."""
        self.params_f = self.params_f0
        self.params_g = self.params_g0
        self.head = self.head0
        self.opt_state = encoders.init_optimizer("adam", LR)

    def new_meter(self):
        """A counter with the parameters tracked, as run_experiment does."""
        meter = memtrace.MemCounter()
        for arr in (encoders.param_arrays(self.params_f0)
                    + encoders.param_arrays(self.params_g0)):
            meter.track_alloc("parameters", arr.size)
        return meter

    def step(self, batch):
        """One call of the mode's public step function; state advances."""
        if self.workload.mode == "cache":
            res = trainer.train_step_cached(
                batch, self.params_f, self.params_g, self.opt_state,
                self.train_cfg,
            )
        else:
            res = deep.train_step_deep(
                batch, self.params_f, self.params_g, self.head,
                self.opt_state, self.deep_cfg,
            )
            self.head = res.head
        self.params_f, self.params_g = res.params_f, res.params_g
        self.opt_state = res.opt_state
        return res


def _draw_batches(task, batch, n, rng):
    """Contiguous batches over a fresh permutation per epoch."""
    if task.n_train < batch:
        raise ValueError(f"batch {batch} exceeds {task.n_train} pairs")
    out = []
    while len(out) < n:
        order = rng.permutation(task.n_train)
        for b in range(task.n_train // batch):
            idx = order[b * batch:(b + 1) * batch]
            out.append(loss.aligned_batch(
                task.train_anchors[idx], task.train_targets[idx]
            ))
    return out[:n]


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def run_gates(session, perturb=None):
    """Untimed checks on the first batch from the initial state.

    Returns (name, passed, detail) triples. The cached gradients are
    compared with the direct full-batch gradients that train_step_direct
    (cache) or deep_direct_grads (deep) compute, by ``flat_max_rel_err``
    as the acceptance suite does. ``perturb`` maps the cached gradient
    list to another list before the comparison.
    """
    wl = session.workload
    batch = session.batches[0]
    pf, pg = session.params_f0, session.params_g0
    plan = trainer.plan_subbatches(
        batch.n_anchors, batch.n_targets, wl.sub_batch, wl.sub_batch
    )
    if wl.mode == "deep":
        head = session.head0
        F, G, d_vals = deep.forward_collect(batch, pf, pg, head, plan)
        dcache, _ = deep.build_distance_cache(d_vals, batch.r, TAU)
        grad_head, rep_cache = deep.update_omega_and_fold(
            F, G, head, dcache, plan
        )
        gf, gg = trainer.step3_accumulate(batch, pf, pg, plan, rep_cache)
        cached = gf + gg + grad_head
        dgf, dgg, dgh, _ = deep.deep_direct_grads(batch, pf, pg, head, TAU)
        direct = dgf + dgg + dgh
    else:
        F, G = trainer.step1_graphless_forward(batch, pf, pg, plan)
        cache, _ = trainer.step2_build_cache(F, G, batch.r, TAU)
        gf, gg = trainer.step3_accumulate(batch, pf, pg, plan, cache)
        cached = gf + gg
        dgf, dgg, _ = loss.direct_param_grads(batch, pf, pg, TAU)
        direct = dgf + dgg
    if perturb is not None:
        cached = perturb(cached)
    err = autodiff.flat_max_rel_err(direct, cached)
    return [("cached gradients equal direct", err <= GRAD_TOL,
             f"max rel err {err:.2e}")]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    records: list
    attempted: int
    errors: list
    episodes: int
    final_losses: set

    @classmethod
    def merge(cls, runs):
        return cls(
            records=[r for run in runs for r in run.records],
            attempted=sum(run.attempted for run in runs),
            errors=[e for run in runs for e in run.errors],
            episodes=sum(run.episodes for run in runs),
            final_losses=set().union(*(run.final_losses for run in runs)),
        )

    def p50(self):
        return statistics.median(r.ms for r in self.records)


def run_loop(session, seconds, metered=True, tracer=None):
    """Train episode after episode until ``seconds`` have passed.

    Only the step call is timed; checks run between steps. A step that
    raises, returns a non-finite loss or differs from the first episode
    ends its episode. The loop always finishes one complete episode, so
    ``seconds=0`` runs exactly one.
    """
    records, errors = [], []
    reference = None
    episodes = 0
    attempted = 0
    meter = session.new_meter() if metered else None
    step = session.step if tracer is None else tracer.wrap(session.step,
                                                           "step")
    deadline = time.perf_counter() + seconds
    with meter.activate() if meter else contextlib.nullcontext():
        while True:
            session.reset()
            losses = []
            for k, batch in enumerate(session.batches):
                attempted += 1
                if tracer is not None:
                    tracer.step += 1
                try:
                    t0 = time.perf_counter()
                    res = step(batch)
                    ms = (time.perf_counter() - t0) * 1e3
                except Exception as exc:  # a failed step is a result
                    errors.append(f"step raised {type(exc).__name__}: {exc}")
                    break
                problems = []
                if not math.isfinite(res.loss):
                    problems.append(f"non-finite loss {res.loss}")
                if reference is not None and res.loss != reference[k]:
                    problems.append(
                        f"episode step {k} loss {res.loss!r} differs from "
                        f"the first episode's {reference[k]!r}"
                    )
                if problems:
                    errors.append("; ".join(problems))
                    break
                counters = trainer.counter_snapshot()
                records.append(StepRecord(
                    ms=ms,
                    loss=res.loss,
                    act_peak=res.stats.act_peak,
                    loss_phase_peak=res.stats.loss_phase_peak,
                    fwd_rows=res.stats.fwd_rows,
                    bwd_rows=res.stats.bwd_rows,
                    phi_pairs=(counters["phi_fwd_pairs"]
                               + counters["phi_bwd_pairs"]),
                ))
                losses.append(res.loss)
                if time.perf_counter() >= deadline and (episodes or errors):
                    break
            else:
                episodes += 1
                if reference is None:
                    reference = losses
            if time.perf_counter() >= deadline and (episodes or errors):
                break
    finals = {reference[-1]} if reference else set()
    return LoopResult(records, attempted, errors, episodes, finals)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(session, run):
    ms = [r.ms for r in run.records]
    pct = statistics.quantiles(ms, n=100, method="inclusive")
    return {
        "pairs_per_s": session.workload.batch * len(ms) / (sum(ms) / 1e3),
        "step_ms.p50": statistics.median(ms),
        "step_ms.p90": pct[89],
        "step_ms.p95": pct[94],
        "act_peak_floats": max(r.act_peak for r in run.records),
        "loss_phase_peak_floats": max(r.loss_phase_peak for r in run.records),
        "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "final_loss": min(run.final_losses, default=float("nan")),
    }


KERNELS = ("matmul", "pair_scores", "row_softmax", "row_softmax_vjp",
           "scatter_add_rows", "tanh_vjp", "adam_update")
VJP_OPS = ("matmul", "dot-product-matrix", "row-softmax", "index-rows", "mul")


def _nbytes(args, out):
    n = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return n + (out.nbytes if isinstance(out, np.ndarray) else 0)


def _matmul_work(args, kwargs, out):
    x, w = args
    return (2 * x.shape[0] * x.shape[1] * w.shape[1], _nbytes(args, out))


def _pair_scores_work(args, kwargs, out):
    a, b = args
    return (2 * a.shape[0] * b.shape[0] * a.shape[1], _nbytes(args, out))


def _bytes_work(args, kwargs, out):
    return (0, _nbytes(args, out))


def _reps_logits(args, kwargs, out):
    return (args[0].data.shape[0] * args[1].data.shape[0],)


def _logits(args, kwargs, out):
    return (args[0].data.size,)


def install_spans(tracer):
    """Wrap the public functions of every layer; tracer.restore() undoes it."""
    for owner, attr, name, work in (
        (trainer, "step1_graphless_forward", "trainer.step1", None),
        (trainer, "step2_build_cache", "trainer.step2", None),
        (trainer, "step3_accumulate", "trainer.step3", None),
        (trainer, "_apply_optimizer", "trainer.optimizer", None),
        (encoders, "encode", "encoders.encode", None),
        (encoders, "encode_graph", "encoders.encode_graph", None),
        (encoders, "optimizer_step", "encoders.optimizer_step", None),
        (autodiff, "record", "autodiff.record", None),
        (autodiff.Tape, "backward", "autodiff.backward", None),
        (memtrace.MemCounter, "register_array", "memtrace.register", None),
        (deep, "forward_collect", "deep.forward_collect", None),
        (deep, "build_distance_cache", "deep.step2", None),
        (deep, "update_omega_and_fold", "deep.omega", None),
    ):
        tracer.patch_attr(owner, attr, name, work)
    # loss_graph_from_reps calls loss_graph_from_logits: one span per loss
    tracer.patch_attr(loss, "loss_graph_from_reps", "loss.forward",
                      _reps_logits, collapse=True)
    tracer.patch_attr(loss, "loss_graph_from_logits", "loss.forward",
                      _logits, collapse=True)
    for k in KERNELS:
        work = {"matmul": _matmul_work,
                "pair_scores": _pair_scores_work}.get(k, _bytes_work)
        tracer.patch_attr(kernels, k, f"kernels.{k}", work)
    for op in VJP_OPS:
        tracer.patch_item(autodiff.OPS, op, 1, f"autodiff.vjp.{op}")


def _phase_cover(tracer):
    """Share of step time inside the step span's direct children."""
    steps = {s.sid: s for s in tracer.spans if s.name == "step"}
    covered = sum(s.dur for s in tracer.spans if s.parent in steps)
    return 100.0 * covered / sum(s.dur for s in steps.values())


def layer_metrics(session, tracer, metered, plain, traced):
    """Per-step averages over the traced steps, plus the overheads: step
    time medians of the metered, meter-off and traced episodes compared."""
    wl = session.workload
    n = len(traced.records)
    tot = tracer.totals()

    def ms(name):
        return tot[name].incl * 1e3 / n

    def self_ms(name):
        return tot[name].self_time * 1e3 / n

    def calls(name):
        return tot[name].calls / n

    def work(name, i):
        w = tot[name].work
        return w[i] if w else 0

    def mean(field):
        return statistics.mean(getattr(r, field) for r in traced.records)

    out = {
        "trainer.step1.ms": ms("trainer.step1"),
        "trainer.step2.ms": ms("trainer.step2"),
        "trainer.step3.ms": ms("trainer.step3"),
        "trainer.step2.calls": calls("trainer.step2"),
        "trainer.fwd_rows": mean("fwd_rows"),
        "trainer.bwd_rows": mean("bwd_rows"),
        "trainer.recompute_ratio": mean("fwd_rows") / (2 * wl.batch),
        "trainer.phase_cover_pct": _phase_cover(tracer),
        "loss.forward.ms": ms("loss.forward"),
        "loss.logits_floats": work("loss.forward", 0) / n,
    }
    for k in KERNELS:
        out[f"kernels.{k}.ms"] = ms(f"kernels.{k}")
        out[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
    for k in ("matmul", "pair_scores"):
        flop = work(f"kernels.{k}", 0)
        busy = tot[f"kernels.{k}"].incl
        out[f"kernels.{k}.gflop"] = flop / 1e9 / n
        out[f"kernels.{k}.gflop_per_s"] = flop / 1e9 / busy if busy else 0.0
    out["kernels.bytes"] = sum(work(f"kernels.{k}", 1) for k in KERNELS) / n
    out.update({
        "autodiff.record.calls": calls("autodiff.record"),
        "autodiff.record.self_ms": self_ms("autodiff.record"),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.self_ms": self_ms("autodiff.backward"),
    })
    for op in VJP_OPS:
        out[f"autodiff.vjp.{op}.ms"] = ms(f"autodiff.vjp.{op}")
    out.update({
        "encoders.encode.ms": ms("encoders.encode"),
        "encoders.encode_graph.ms": ms("encoders.encode_graph"),
        "encoders.optimizer_step.ms": ms("encoders.optimizer_step"),
        "memtrace.register.calls": calls("memtrace.register"),
        "memtrace.register.ms": ms("memtrace.register"),
        "memtrace.overhead_pct": 100.0 * (metered.p50() / plain.p50() - 1.0),
        "deep.forward_collect.self_ms": self_ms("deep.forward_collect"),
        "deep.step2.ms": ms("deep.step2"),
        "deep.omega.ms": ms("deep.omega"),
        "deep.phi_pairs": mean("phi_pairs"),
        "trace_overhead_pct": 100.0 * (traced.p50() / metered.p50() - 1.0),
    })
    return out


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _result(run, metrics, extra_errors=()):
    errors = list(extra_errors) + run.errors
    return {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": len(errors),
        "errors": errors[:10],
        "steps": len(run.records),
        "episodes": run.episodes,
        "metrics": metrics,
        "env": environment(),
    }


def role_gate(session):
    gates = run_gates(session)
    failed = [f"gate {name} failed: {detail}" for name, ok, detail in gates
              if not ok]
    return {
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        "errors": failed,
        "gates": [{"name": n, "passed": ok, "detail": d}
                  for n, ok, d in gates],
    }


def role_time(session, seconds):
    session.step(session.batches[0])  # warm-up, discarded by the reset
    run = run_loop(session, seconds)
    metrics = end_to_end_metrics(session, run) if run.records else {}
    result = _result(run, metrics)
    result["step_ms"] = [r.ms for r in run.records]
    return result


def role_trace(session, seconds, name, seed):
    """Rounds of one metered, one meter-off and one traced episode.

    Interleaving the three puts them under the same machine load, so the
    overhead percentages compare like with like.
    """
    session.step(session.batches[0])
    rounds = ([], [], [])
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        rounds[0].append(run_loop(session, 0))
        rounds[1].append(run_loop(session, 0, metered=False))
        install_spans(tracer)
        try:
            rounds[2].append(run_loop(session, 0, tracer=tracer))
        finally:
            tracer.restore()
        if time.perf_counter() >= deadline or len(tracer.spans) > MAX_SPANS:
            break
    metered, plain, traced = (LoopResult.merge(r) for r in rounds)
    errors = metered.errors + plain.errors
    finals = metered.final_losses | plain.final_losses | traced.final_losses
    if len(finals) != 1:
        errors.append(f"final losses differ between metered, meter-off and "
                      f"traced episodes: {sorted(finals)}")
    metrics = {}
    if traced.records and metered.records and plain.records:
        metrics = layer_metrics(session, tracer, metered, plain, traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_csv(OUT_DIR / f"spans-{name}-seed{seed}.csv")
    result = _result(traced, metrics, errors)
    result["attempted"] += metered.attempted + plain.attempted
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True,
                        choices=("setup", "gate", "time", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    session = Session(args.workload, args.seed)
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    if args.role == "gate":
        result = role_gate(session)
    elif args.role == "time":
        result = role_time(session, args.seconds)
    else:
        result = role_trace(session, args.seconds, args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
