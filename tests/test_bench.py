import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import bench, deep, encoders, kernels
from splitgrad.bench import (
    METRICS_FIELDS,
    ConfigError,
    RunConfig,
    apply_overrides,
    emit_metrics_jsonl,
    emit_summary_csv,
    evaluate_ranks,
    evaluate_topk,
    generate_task,
    parse_config_file,
    profile_single_step,
    run_experiment,
    save_run_checkpoint,
    validate_config,
)


def _profile(mode, batch_size, sub_batch, **overrides):
    return profile_single_step(RunConfig(
        mode=mode, batch_size=batch_size, sub_batch_s=sub_batch,
        sub_batch_t=sub_batch, **overrides,
    ))


def _small(**overrides):
    base = dict(mode="direct", n_pairs=60, batch_size=16, sub_batch_s=4,
                sub_batch_t=4, epochs=1, eval_k=(1, 5), in_dim_s=8,
                in_dim_t=8, latent_dim=6, encoder_hidden=10, embed_dim=6)
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------

def test_generate_task_is_deterministic():
    a = generate_task(_small())
    b = generate_task(_small())
    assert np.array_equal(a.train_anchors, b.train_anchors)
    assert np.array_equal(a.eval_targets, b.eval_targets)


def test_generate_task_split_sizes():
    task = generate_task(_small(n_pairs=100, eval_frac=0.1))
    assert task.n_train == 90
    assert task.n_eval == 10
    assert task.train_anchors.shape[1] == 8


def test_generate_task_rejects_degenerate_shapes():
    with pytest.raises(ConfigError, match="n_pairs"):
        generate_task(_small(n_pairs=1))
    with pytest.raises(ConfigError, match="degenerate dims"):
        generate_task(_small(latent_dim=0))


def test_identity_mixing_makes_anchor_equal_target():
    cfg = _small(noise=0.0, latent_dim=8)
    eye = np.eye(8)
    task = generate_task(cfg, mix_anchor=eye, mix_target=eye)
    assert np.array_equal(task.train_anchors, task.train_targets)


def test_validate_config_errors():
    cases = [
        (dict(mode="bogus"), "unknown mode"),
        (dict(batch_size=0), "batch_size"),
        (dict(mode="cache", sub_batch_s=0), "sub-batch"),
        (dict(mode="multi", workers=0), "workers"),
        # a worker beyond the batch would hold no rows
        (dict(mode="multi", workers=17), "workers"),
        (dict(seed=-1), "seed"),
        (dict(temperature=0.0), "temperature"),
        (dict(temperature=float("nan")), "temperature"),
        (dict(temperature=float("inf")), "temperature"),
        (dict(temperature=1e-310), "temperature"),
        (dict(temperature=-1.0), "temperature"),
        (dict(epochs=0), "epochs"),
        (dict(optimizer="lbfgs"), "optimizer"),
        (dict(eval_frac=1.5), "eval_frac"),
        (dict(eval_k=()), "eval_k"),
        (dict(encoder_activation="sigmoid"), "encoder_activation"),
        (dict(encoder_hidden=0), "encoder_hidden"),
        (dict(embed_dim=0), "embed_dim"),
        (dict(mode="deep", phi_hidden=0), "phi_hidden"),
        (dict(noise=float("nan")), "noise"),
        (dict(noise=float("inf")), "noise"),
        (dict(noise=-0.5), "noise"),
        (dict(lr=0.0), "lr"),
        (dict(lr=-1e-3), "lr"),
        (dict(lr=float("nan")), "lr"),
        (dict(lr=float("inf")), "lr"),
    ]
    for overrides, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            validate_config(_small(**overrides))
    assert validate_config(_small()) is not None
    assert validate_config(_small(mode="multi", workers=16)) is not None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_ranks_with_identity_encoders():
    p = encoders.identity_params(2)
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    ranks = evaluate_ranks(p, p, anchors, targets, r=np.array([0, 1]))
    assert list(ranks) == [0, 0]
    # anchor 0 against its own worst match
    ranks = evaluate_ranks(p, p, anchors[:1], targets, r=np.array([1]))
    assert ranks[0] == 2


def test_evaluate_ranks_breaks_ties_toward_lower_index():
    p = encoders.identity_params(2)
    anchors = np.array([[1.0, 0.0]])
    targets = np.zeros((3, 2))  # all scores tie at zero
    assert evaluate_ranks(p, p, anchors, targets, r=np.array([2]))[0] == 2
    assert evaluate_ranks(p, p, anchors, targets, r=np.array([0]))[0] == 0


def test_evaluate_topk_validation():
    p = encoders.identity_params(2)
    xs = np.zeros((3, 2))
    with pytest.raises(ValueError, match="k=9 exceeds 3 targets"):
        evaluate_topk(p, p, xs, xs, ks=(9,))
    with pytest.raises(ValueError, match="empty eval set"):
        evaluate_topk(p, p, np.zeros((0, 2)), xs, ks=(1,))


def test_frozen_encoder_deep_run_ranks_with_its_head():
    # all learning lives in the head: the encoders' dot products would
    # rank as the untrained run does
    result = run_experiment(_small(mode="deep", train_encoders=False,
                                   eval_frac=0.35))
    task = generate_task(result.config)
    F = encoders.encode(result.params_f, task.eval_anchors)
    G = encoders.encode(result.params_g, task.eval_targets)
    n = task.n_eval
    assert n > kernels.HEAD_STRIP
    scores = deep.phi_pairs(result.head, ad.constant(F),
                            ad.constant(G)).data.reshape(n, n)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1, kind="stable")[np.arange(n),
                                                     np.arange(n)]
    assert np.array_equal(result.ranks, ranks)


def test_untrained_encoders_score_near_chance():
    rng = np.random.default_rng(11)
    pf = encoders.init_params(1, [8, 10, 6])
    pg = encoders.init_params(2, [8, 10, 6])
    n = 400
    hits = evaluate_topk(pf, pg, rng.normal(size=(n, 8)),
                         rng.normal(size=(n, 8)), ks=(40,))
    p = 40 / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits[40] - p) < 3 * sigma


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["direct", "cache", "accumulation",
                                  "sequential", "deep", "multi"])
def test_run_experiment_all_modes(mode):
    cfg = _small(mode=mode, workers=2 if mode == "multi" else 1)
    result = run_experiment(cfg)
    assert len(result.metrics) == 3  # 54 train pairs, batch 16, tail dropped
    for row in result.metrics:
        assert set(row) == set(METRICS_FIELDS)
    assert np.isfinite(result.summary["final_loss"])
    assert set(result.hits) == {1, 5}
    assert (result.head is not None) == (mode == "deep")


def test_run_experiment_is_deterministic_up_to_wall_time():
    cfg = _small(mode="cache")
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for ra, rb in zip(a.metrics, b.metrics):
        for key in METRICS_FIELDS:
            if key != "wall_ms":
                assert ra[key] == rb[key]
    assert np.array_equal(a.ranks, b.ranks)
    assert a.hits == b.hits


def test_cache_mode_reports_constant_act_peak_per_step():
    result = run_experiment(_small(mode="cache"))
    peaks = {m["act_peak"] for m in result.metrics}
    assert len(peaks) == 1
    # the loss phase is the cached step's other window, and the one an
    # activation budget must also cover
    loss_peaks = {m["loss_phase_peak"] for m in result.metrics}
    assert len(loss_peaks) == 1 and loss_peaks.pop() > 0
    assert result.summary["loss_phase_peak"] > 0
    floats = {m["cache_floats"] for m in result.metrics}
    assert floats == {(16 + 16) * 6}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_metrics_jsonl_field_order(tmp_path):
    result = run_experiment(_small(mode="direct"))
    path = emit_metrics_jsonl(result.metrics, tmp_path / "m.jsonl")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(result.metrics)
    for line in lines:
        row = json.loads(line)
        assert tuple(row) == METRICS_FIELDS == (
            "step", "loss", "fwd_count", "bwd_count", "act_peak",
            "cache_floats", "wall_ms", "loss_phase_peak")
        # direct mode has no separate loss phase
        assert row["loss_phase_peak"] == 0


def test_emit_summary_csv_roundtrip(tmp_path):
    result = run_experiment(_small(mode="cache"))
    path = emit_summary_csv([result.summary], tmp_path / "s.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["mode"] == "cache"
    assert int(rows[0]["steps"]) == 3
    assert rows[0]["schema_version"] == "2"
    assert list(rows[0])[-5:] == ["act_peak", "cache_floats",
                                  "loss_phase_peak", "hit@1", "hit@5"]
    assert int(rows[0]["loss_phase_peak"]) == result.summary["loss_phase_peak"]


def test_emit_summary_csv_header_only_when_empty(tmp_path):
    path = emit_summary_csv([], tmp_path / "empty.csv")
    text = path.read_text().strip()
    assert text == (
        "schema_version,mode,batch_size,sub_batch_s,sub_batch_t,workers,"
        "temperature,epochs,seed,steps,final_loss,act_peak,cache_floats,"
        "loss_phase_peak")


def test_checkpoint_roundtrip(tmp_path):
    result = run_experiment(_small(mode="deep"))
    path = save_run_checkpoint(result, tmp_path / "params.json")
    groups = encoders.load_params_file(path)
    assert set(groups) == {"f", "g", "phi"}
    pf = encoders.params_from_group(groups["f"])
    for a, b in zip(encoders.param_arrays(pf),
                    encoders.param_arrays(result.params_f)):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# single-step profiling
# ---------------------------------------------------------------------------

def test_profile_single_step_peaks():
    small = _profile("cache", 32, 8)
    big = _profile("cache", 64, 8)
    assert small["act_peak"] == big["act_peak"]
    assert big["gradient_cache"] == 2 * 64 * 16
    assert big["activation_live_end"] == 0
    d_small = _profile("direct", 32, 8)
    d_big = _profile("direct", 64, 8)
    assert d_big["act_peak"] > d_small["act_peak"]


@pytest.mark.parametrize("n, h", [
    pytest.param(128, RunConfig().phi_hidden, id="128"),
    pytest.param(256, RunConfig().phi_hidden, id="256"),
    pytest.param(128, kernels.HEAD_STRIP - 3, id="128-narrow-head"),
    pytest.param(128, kernels.HEAD_STRIP + 5, id="128-wide-head"),
])
def test_deep_loss_phase_holds_one_head_strip(n, h):
    # one HEAD_STRIP x n x h hidden layer, one buffer that holds each
    # strip's z, then its softmax, and then the n x h row sum, and the
    # n x 1 per-anchor losses, and nothing else: an unregistered buffer
    # or a second strip-sized one breaks the equality. Heads narrower and
    # wider than HEAD_STRIP size the shared buffer by each term of its max
    peak = _profile("deep", n, 16, phi_hidden=h)["loss_phase_peak"]
    assert peak == (kernels.HEAD_STRIP * n * h
                    + max(kernels.HEAD_STRIP * n, n * h) + n)


def test_deep_loss_phase_grows_linearly_in_batch():
    # the two-pass head held about 4 n^2 floats: doubling n quadrupled it
    peaks = [_profile("deep", n, 16)["loss_phase_peak"]
             for n in (256, 512)]
    assert peaks[1] <= 2.1 * peaks[0]


@pytest.mark.parametrize("n", [256, 1024])
def test_cache_loss_phase_holds_one_strip_and_a_few_n_by_d(n):
    # the peak is the larger of two exact terms; dF and dG are the
    # gradient cache, so neither counts here. The kernel's: one STRIP x n
    # buffer for each strip's scores and softmax, G transposed, the dG
    # product buffer of one of nb near-equal target blocks, and lse. The
    # alignment tape's backward: the gradients of F * G[r] and G[r], the
    # n x d scatter added into dG, four n x 1 columns and three scalars;
    # G[r] and F * G[r] are freed as their VJPs let go of them. An
    # unregistered buffer, a second strip or product buffer, or a
    # forward's output held past its VJP breaks an equality
    def kernel_term(d):
        nb = -(-n * d // kernels.PROD_FLOATS)
        return kernels.STRIP * n + n * d + -(-n // nb) * d + n

    def tape_term(d):
        return 2 * n * d + n * d + 4 * n + 3

    peak = _profile("cache", n, 32)["loss_phase_peak"]
    assert peak == kernel_term(16) > tape_term(16)
    peak = _profile("cache", n, 32, embed_dim=32)["loss_phase_peak"]
    assert peak == tape_term(32) > kernel_term(32)


def test_cache_loss_phase_grows_linearly_in_batch():
    # the dense tail held about 3 n^2 floats: doubling n quadrupled it
    peaks = [_profile("cache", n, 32)["loss_phase_peak"]
             for n in (1024, 2048)]
    assert peaks[1] <= 2.1 * peaks[0]


def test_profile_single_step_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="direct|cache|accumulation"):
        _profile("multi", 32, 8)


def test_profile_single_step_runs_sequential_and_deep():
    assert _profile("sequential", 32, 8)["act_peak"] > 0
    rows = [_profile("deep", n, 16) for n in (32, 64, 128, 256)]
    assert len({row["act_peak"] for row in rows}) == 1, rows
    assert all(row["activation_live_end"] == 0 for row in rows)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_apply_overrides_coerces_strings():
    cfg = apply_overrides(RunConfig(), {
        "mode": "cache", "batch_size": "64", "temperature": "0.5",
        "train_encoders": "false", "eval_k": "1,10",
        "activation_budget": "none",
    })
    assert cfg.mode == "cache"
    assert cfg.batch_size == 64
    assert cfg.temperature == 0.5
    assert cfg.train_encoders is False
    assert cfg.eval_k == (1, 10)
    assert cfg.activation_budget is None


def test_apply_overrides_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(RunConfig(), {"batchsize": "64"})
    with pytest.raises(ConfigError, match="bad value for 'batch_size'"):
        apply_overrides(RunConfig(), {"batch_size": "many"})


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "mode = cache\n"
        "\n"
        "batch_size=32  # trailing comment\n"
    )
    mapping = parse_config_file(path)
    assert mapping == {"mode": "cache", "batch_size": "32"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode cache\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(bad)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _cli(*args, cwd=None, warnings="error"):
    # warnings are errors, as in the suite itself, unless a test asks
    return subprocess.run(
        [sys.executable, "-W", warnings, "-m", "splitgrad.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


_FAST = ("--batch-size", "16", "--epochs", "1")


def _fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(
        "n_pairs = 60\nin_dim_s = 8\nin_dim_t = 8\nlatent_dim = 6\n"
        "encoder_hidden = 10\nembed_dim = 6\neval_k = 1,5\n"
        "sub_batch_s = 4\nsub_batch_t = 4\n"
    )
    return str(path)


def test_cli_train_writes_reports(tmp_path):
    out = tmp_path / "run"
    proc = _cli("train", "--mode", "cache", "--config", _fast_config(tmp_path),
                *_FAST, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "params.json").exists()
    assert "final_loss=" in proc.stdout
    assert "hit@1=" in proc.stdout
    # the loss phase's peak, which an activation budget must also cover
    with open(out / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert f"loss_phase_peak={row['loss_phase_peak']}" in proc.stdout


def test_cli_eval_reads_train_checkpoint(tmp_path):
    out = tmp_path / "run"
    cfg = _fast_config(tmp_path)
    assert _cli("train", "--mode", "direct", "--config", cfg, *_FAST,
                "--out", str(out)).returncode == 0
    proc = _cli("eval", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "eval_pairs=6" in proc.stdout
    assert "hit@5=" in proc.stdout


def test_cli_eval_of_a_deep_run_prints_its_hits(tmp_path):
    # frozen encoders: all learning lives in the head, so eval must rank
    # with the checkpoint's head, as the run did
    out = tmp_path / "run"
    cfg = tmp_path / "deep.cfg"
    with open(_fast_config(tmp_path)) as fh:
        cfg.write_text(fh.read() + "train_encoders = false\n"
                       "eval_frac = 0.35\n")
    train = _cli("train", "--mode", "deep", "--config", str(cfg), *_FAST,
                 "--out", str(out))
    assert train.returncode == 0, train.stderr
    proc = _cli("eval", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    hits = [line for line in train.stdout.splitlines()
            if line.startswith("hit@")]
    assert len(hits) == 2
    assert hits == [line for line in proc.stdout.splitlines()
                    if line.startswith("hit@")]


def _set_activation(payload, name):
    payload["groups"]["f"]["meta"]["activations"][0] = name


def _set_weight(payload, value):
    payload["groups"]["f"]["arrays"]["layer0.w"][0][0] = value


def _rename_array(payload, old, new):
    arrays = payload["groups"]["f"]["arrays"]
    arrays[new] = arrays.pop(old)


def _add_nan_head(payload):
    group = deep.head_to_group(deep.init_distance_head(3, 6, hidden=4))
    group["arrays"]["w2"][0][0] = float("nan")
    payload["groups"]["phi"] = group


def _empty_top_layers(payload):
    # both sides, so that their embedding widths (0) still agree
    for group in payload["groups"].values():
        arrays = group["arrays"]
        arrays["layer1.w"] = [[] for _ in arrays["layer1.w"]]
        arrays["layer1.b"] = []
        group["meta"]["out_dim"] = 0


# edits that each leave a valid checkpoint malformed
_CHECKPOINT_EDITS = {
    "wrong-format": lambda p: p.update(format="other-params"),
    "wrong-version":
        lambda p: p.update(version=encoders.CHECKPOINT_VERSION + 1),
    "no-g-group": lambda p: p["groups"].pop("g"),
    "unknown-activation": lambda p: _set_activation(p, "swish"),
    "extra-activation":
        lambda p: p["groups"]["f"]["meta"]["activations"].append("linear"),
    "missing-array": lambda p: _rename_array(p, "layer0.b", "layer0.c"),
    "unchained-weights":
        lambda p: p["groups"]["g"]["arrays"]["layer1.w"].pop(),
    "wrong-out-dim": lambda p: p["groups"]["f"]["meta"].update(out_dim=5),
    "input-width": lambda p: p["groups"]["f"]["arrays"]["layer0.w"].pop(),
    "non-finite-weight": lambda p: _set_weight(p, float("nan")),
    "non-finite-head": _add_nan_head,
    "empty-layer": _empty_top_layers,
}


@pytest.mark.parametrize("case", ("missing", "not-json", *_CHECKPOINT_EDITS))
def test_cli_eval_missing_checkpoint_is_config_error(tmp_path, case):
    path = tmp_path / "params.json"
    if case == "not-json":
        path.write_text("{not json")
    elif case != "missing":
        payload = {
            "format": encoders.CHECKPOINT_FORMAT,
            "version": encoders.CHECKPOINT_VERSION,
            "groups": {side: encoders.params_to_group(
                encoders.init_params(seed, [8, 10, 6]))
                for seed, side in ((1, "f"), (2, "g"))},
        }
        _CHECKPOINT_EDITS[case](payload)
        path.write_text(json.dumps(payload))
    proc = _cli("eval", "--config", _fast_config(tmp_path),
                "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and str(path) in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("train", "--config", "{tmp}/missing.cfg"), "cannot read config file"),
    (("sweep", "--batch-sizes", "8,x"), "bad --batch-sizes"),
    (("sweep", "--batch-sizes", ","), "--batch-sizes is empty"),
    (("profile", "--batch-sizes", ","), "--batch-sizes is empty"),
    (("profile", "--modes", ","), "--modes is empty"),
])
def test_cli_bad_flag_values_are_config_errors(tmp_path, args, message):
    proc = _cli(*(a.format(tmp=tmp_path) for a in args),
                "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and message in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def _k10_config(tmp_path):
    path = tmp_path / "k10.cfg"
    with open(_fast_config(tmp_path)) as fh:
        path.write_text(fh.read() + "eval_k = 1,10\n")
    return str(path)


def test_cli_train_rejects_batch_larger_than_train_split(tmp_path):
    out = tmp_path / "run"
    proc = _cli("train", "--mode", "cache", "--config", _fast_config(tmp_path),
                "--batch-size", "64", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "batch_size 64" in proc.stderr and "54 training" in proc.stderr
    assert not out.exists()


def test_cli_sweep_checks_every_size_before_running(tmp_path):
    out = tmp_path / "sweep"
    proc = _cli("sweep", "--mode", "cache", "--config", _fast_config(tmp_path),
                "--batch-sizes", "8,64", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "batch_size 64" in proc.stderr
    assert not out.exists()


def test_cli_train_and_eval_reject_k_larger_than_eval_split(tmp_path):
    out = tmp_path / "run"
    proc = _cli("train", "--mode", "direct", "--config", _k10_config(tmp_path),
                *_FAST, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "eval_k 10" in proc.stderr and "6 eval" in proc.stderr
    assert not out.exists()
    assert _cli("train", "--mode", "direct", "--config",
                _fast_config(tmp_path), *_FAST,
                "--out", str(out)).returncode == 0
    proc = _cli("eval", "--config", _k10_config(tmp_path), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["cache", "direct"])
@pytest.mark.parametrize("warnings", ["default", "error"])
def test_cli_train_non_finite_exits_4(tmp_path, warnings, mode):
    # Adam moves the parameters by about 1e308 on step 0 (still finite);
    # step 1's forward overflows, so the check after step 1 fails, with
    # warnings as errors too: the overflow is not a warning
    config = _fast_config(tmp_path)
    with open(config, "a") as fh:
        fh.write("lr = 1e308\n")
    out = tmp_path / "run"
    proc = _cli("train", "--mode", mode, "--config", config, *_FAST,
                "--out", str(out), warnings=warnings)
    assert proc.returncode == 4, proc.stderr
    assert f"mode {mode}, step 1: non-finite loss nan" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    for path in out.glob("*"):
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("tau", ["1e-310", "nan", "inf"])
def test_cli_train_untrainable_temperature_exits_2(tmp_path, tau):
    # 1e-310 is positive, but its inverse overflows to inf
    out = tmp_path / "run"
    proc = _cli("train", "--mode", "cache", "--config", _fast_config(tmp_path),
                *_FAST, "--temperature", tau, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "temperature" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("warnings", ["default", "error"])
def test_cli_train_overflowing_optimizer_state_exits_4(tmp_path, warnings):
    # at tau = 1e-300 the loss (about 1e299) and the parameters stay
    # finite, but the gradient's square overflows Adam's v to inf, so
    # every update would be m / inf = 0; with warnings as errors too
    out = tmp_path / "run"
    proc = _cli("train", "--mode", "cache", "--config", _fast_config(tmp_path),
                *_FAST, "--temperature", "1e-300", "--out", str(out),
                warnings=warnings)
    assert proc.returncode == 4, proc.stderr
    assert "step 0: non-finite optimizer state" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", ["profile", "train"])
def test_cli_negative_seed_exits_2(tmp_path, verb):
    out = tmp_path / "run"
    proc = _cli(verb, "--mode", "cache", "--config", _fast_config(tmp_path),
                *_FAST, "--seed", "-1", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "config error: seed must be >= 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_check_finite_stops_non_finite_optimizer_state():
    state = bench.init_state(_small(mode="cache"))
    state.opt_state.m = [np.zeros(3)]
    state.opt_state.v = [np.array([0.0, np.inf, 0.0])]
    with pytest.raises(bench.NonFiniteError,
                       match="step 2: non-finite optimizer state"):
        bench._check_finite("cache", 2, 1.0, state)


def test_check_finite_stops_non_finite_parameters_under_a_finite_loss():
    state = bench.init_state(_small(mode="cache"))
    bench._check_finite("cache", 2, 1.0, state)
    encoders.param_arrays(state.params_g)[-1][0] = np.inf
    with pytest.raises(bench.NonFiniteError,
                       match="step 2: non-finite parameters"):
        bench._check_finite("cache", 2, 1.0, state)


def test_emit_metrics_jsonl_rejects_non_finite(tmp_path):
    row = dict.fromkeys(METRICS_FIELDS, 0)
    row["loss"] = float("nan")
    with pytest.raises(ValueError):
        emit_metrics_jsonl([row], tmp_path / "m.jsonl")


def test_cli_sweep_emits_per_size_metrics(tmp_path):
    out = tmp_path / "sweep"
    proc = _cli("sweep", "--mode", "cache", "--config", _fast_config(tmp_path),
                "--batch-sizes", "8,16", "--epochs", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics_bs8.jsonl").exists()
    assert (out / "metrics_bs16.jsonl").exists()
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["batch_size"] for r in rows] == ["8", "16"]
    for r in rows:
        assert f"loss_phase_peak={r['loss_phase_peak']}" in proc.stdout


def test_cli_profile_prints_peaks(tmp_path):
    proc = _cli("profile", "--modes", "direct,cache", "--batch-sizes", "32,64",
                "--sub-batch-s", "8")
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("mode=")]
    assert len(lines) == 4
    assert all("act_peak=" in l for l in lines)


def test_cli_flags_override_config_file(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "base.cfg"
    cfg.write_text("n_pairs = 60\nin_dim_s = 8\nin_dim_t = 8\n"
                   "latent_dim = 6\nencoder_hidden = 10\nembed_dim = 6\n"
                   "eval_k = 1,5\nbatch_size = 32\n")
    proc = _cli("train", "--mode", "direct", "--config", str(cfg),
                "--batch-size", "16", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["batch_size"] == "16"


def test_cli_unknown_activation_exits_2(tmp_path):
    config = _fast_config(tmp_path)
    with open(config, "a") as fh:
        fh.write("encoder_activation = sigmoid\n")
    out = tmp_path / "run"
    proc = _cli("train", "--mode", "cache", "--config", config, *_FAST,
                "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "encoder_activation" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("verb", ["profile", "train"])
@pytest.mark.parametrize("line", ["in_dim_s = 0", "in_dim_t = -3",
                                  "latent_dim = 0"])
def test_cli_bad_input_widths_exit_2(tmp_path, verb, line):
    # profile builds no task, so only validate_config stands between a
    # bad width and a traceback (or, for latent_dim, a run that succeeds)
    config = _fast_config(tmp_path)
    with open(config, "a") as fh:
        fh.write(line + "\n")
    out = tmp_path / "run"
    proc = _cli(verb, "--mode", "cache", "--config", config, *_FAST,
                "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert f"{line.split()[0]} must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_cli_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("batchsize = 64\n")
    proc = _cli("train", "--config", str(cfg))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_bad_flag_exits_2():
    proc = _cli("train", "--mode", "bogus")
    assert proc.returncode == 2


def test_cli_budget_separates_direct_from_cache(tmp_path):
    """A budget between the two peaks (cache 4160, direct 16643) kills
    direct but admits cache."""
    budget = 10000

    def step_peak(mode):
        # the budget bounds every live activation float of the step; the
        # cached step's largest window is its loss phase, not step3
        row = _profile(mode, 64, 8)
        return max(row["act_peak"], row["loss_phase_peak"])

    assert step_peak("cache") < budget < step_peak("direct")
    args = ("--batch-size", "64", "--sub-batch-s", "8", "--sub-batch-t", "8",
            "--activation-budget", str(budget), "--epochs", "1")
    direct = _cli("train", "--mode", "direct", *args,
                  "--out", str(tmp_path / "d"))
    assert direct.returncode == 3
    assert "activation budget exceeded" in direct.stderr
    cache = _cli("train", "--mode", "cache", *args,
                 "--out", str(tmp_path / "c"))
    assert cache.returncode == 0, cache.stderr


def test_cli_budget_error_names_the_loss_phase(tmp_path):
    # a budget above the reported act_peak still trips in step2, and the
    # message says so
    budget = 4000
    row = _profile("cache", 64, 16)
    assert row["act_peak"] < budget < row["loss_phase_peak"]
    proc = _cli("train", "--mode", "cache", "--batch-size", "64",
                "--activation-budget", str(budget), "--epochs", "1",
                "--out", str(tmp_path / "c"))
    assert proc.returncode == 3, proc.stderr
    assert "in phase 'step2'" in proc.stderr


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_budget_below_one_float_exits_2(tmp_path, budget):
    out = tmp_path / "c"
    proc = _cli("train", "--mode", "cache", "--batch-size", "8",
                "--activation-budget", budget, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "activation_budget must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_budget_applies_to_each_multi_worker(tmp_path):
    proc = _cli("train", "--mode", "multi", "--workers", "2",
                "--batch-size", "64", "--activation-budget", "10",
                "--out", str(tmp_path / "m"))
    assert proc.returncode == 3, proc.stderr
    assert "step1" in proc.stderr


def test_cli_profile_reads_the_run_config(tmp_path):
    # the profiled loss phase at the config's widths is the exact budget
    # a cached run of that config needs
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("encoder_hidden = 128\nembed_dim = 32\n")
    args = ("--config", str(cfg), "--batch-size", "64")
    proc = _cli("profile", "--modes", "cache", *args)
    assert proc.returncode == 0, proc.stderr
    assert "loss_phase_peak=6403" in proc.stdout
    ok = _cli("train", "--mode", "cache", *args, "--activation-budget",
              "6403", "--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    over = _cli("train", "--mode", "cache", *args, "--activation-budget",
                "6402", "--out", str(tmp_path / "over"))
    assert over.returncode == 3, over.stderr
    assert "in phase 'step2'" in over.stderr
