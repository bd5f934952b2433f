"""Command-line entry points.

Verbs: train (one run, emitting metrics.jsonl / summary.csv /
params.json), eval (rank held-out pairs with saved parameters), sweep
(batch-size series in one summary), and profile (per-category float
peaks for a single step). A deep run's hit@k, in train and in eval,
ranks with its trained head.

Flags override config-file values; exit code 0 on success, 2 for
configuration errors (a missing or malformed eval checkpoint among
them), 3 when the activation budget is exceeded, 4 when training
produces a non-finite loss or parameter.
"""

import argparse
import dataclasses
import os
import sys

from . import bench
from .bench import ConfigError, NonFiniteError
from .memtrace import BudgetExceededError


def _add_run_flags(parser):
    parser.add_argument("--mode", default=None, choices=bench.MODES)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--sub-batch-s", type=int, default=None)
    parser.add_argument("--sub-batch-t", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--activation-budget", type=int, default=None,
                        help="max live activation floats before aborting")
    parser.add_argument("--config", default=None,
                        help="key=value file; flags take precedence")
    parser.add_argument("--out", default="splitgrad-out",
                        help="output directory")


# RunConfig fields; the run flags set some of them, and argparse leaves
# the others off the namespace
_FLAG_KEYS = tuple(f.name for f in dataclasses.fields(bench.RunConfig))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitgrad",
        description="memory-constant contrastive training experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="train one run and emit reports")
    _add_run_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate saved parameters")
    _add_run_flags(p_eval)
    p_eval.add_argument("--params", default=None,
                        help="checkpoint path (default <out>/params.json)")

    p_sweep = sub.add_parser("sweep", help="run a batch-size series")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--batch-sizes", default="64,128,256,512",
                         help="comma-separated batch sizes")

    p_prof = sub.add_parser("profile", help="per-category peaks for one step")
    _add_run_flags(p_prof)
    p_prof.add_argument("--modes", default="direct,cache,accumulation",
                        help="comma-separated modes to profile")
    p_prof.add_argument("--batch-sizes", default=None,
                        help="comma-separated batch sizes (default --batch-size)")
    return parser


def _build_config(args):
    cfg = bench.RunConfig()
    if args.config is not None:
        try:
            mapping = bench.parse_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = bench.apply_overrides(cfg, mapping)
    overrides = {}
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return bench.apply_overrides(cfg, overrides)


def _parse_list(text, flag, kind=int):
    try:
        values = [kind(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_train(args):
    cfg = _build_config(args)
    result = bench.run_experiment(cfg)
    out = _ensure_out(args)
    metrics_path = bench.emit_metrics_jsonl(
        result.metrics, os.path.join(out, "metrics.jsonl")
    )
    summary_path = bench.emit_summary_csv(
        [result.summary], os.path.join(out, "summary.csv")
    )
    params_path = bench.save_run_checkpoint(
        result, os.path.join(out, "params.json")
    )
    print(f"mode={cfg.mode} steps={result.summary['steps']} "
          f"final_loss={result.summary['final_loss']:.6f} "
          f"act_peak={result.summary['act_peak']} "
          f"loss_phase_peak={result.summary['loss_phase_peak']}")
    for k in sorted(result.hits):
        print(f"hit@{k}={result.hits[k]:.4f}")
    print(f"metrics={metrics_path} summary={summary_path} params={params_path}")
    return 0


def cmd_eval(args):
    cfg = bench.check_task_fits(
        bench.validate_config(_build_config(args)), train=False
    )
    params_f, params_g, head = bench.load_run_checkpoint(
        args.params or os.path.join(args.out, "params.json"), cfg)
    task = bench.generate_task(cfg)
    hits = bench.evaluate_topk(
        params_f, params_g, task.eval_anchors, task.eval_targets,
        tuple(cfg.eval_k), head=head,
    )
    print(f"eval_pairs={task.n_eval}")
    for k in sorted(hits):
        print(f"hit@{k}={hits[k]:.4f}")
    return 0


def cmd_sweep(args):
    base = _build_config(args)
    sizes = _parse_list(args.batch_sizes, "--batch-sizes")
    configs = [
        bench.check_task_fits(bench.validate_config(
            bench.apply_overrides(base, {"batch_size": size})
        ))
        for size in sizes
    ]
    out = _ensure_out(args)
    rows = []
    for size, cfg in zip(sizes, configs):
        result = bench.run_experiment(cfg)
        bench.emit_metrics_jsonl(
            result.metrics, os.path.join(out, f"metrics_bs{size}.jsonl")
        )
        rows.append(result.summary)
        print(f"mode={cfg.mode} batch_size={size} "
              f"act_peak={result.summary['act_peak']} "
              f"cache_floats={result.summary['cache_floats']} "
              f"loss_phase_peak={result.summary['loss_phase_peak']} "
              f"final_loss={result.summary['final_loss']:.6f}")
    summary_path = bench.emit_summary_csv(rows, os.path.join(out, "summary.csv"))
    print(f"summary={summary_path}")
    return 0


def cmd_profile(args):
    cfg = bench.validate_config(_build_config(args))
    modes = _parse_list(args.modes, "--modes", str)
    if args.batch_sizes is not None:
        sizes = _parse_list(args.batch_sizes, "--batch-sizes")
    else:
        sizes = [cfg.batch_size]
    rows = [
        bench.profile_single_step(
            dataclasses.replace(cfg, mode=m, batch_size=s)
        )
        for m in modes
        for s in sizes
    ]
    for row in rows:
        print(f"mode={row['mode']} batch_size={row['batch_size']} "
              f"act_peak={row['act_peak']} "
              f"loss_phase_peak={row['loss_phase_peak']} "
              f"gradient_cache={row['gradient_cache']} "
              f"representation_store={row['representation_store']}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "profile": cmd_profile,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"activation budget exceeded: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"non-finite training: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
