import csv
import json
import os
import struct

import numpy as np
import pytest

from robustdata import evaluation
from robustdata.cli import _test_set, cli_run
from robustdata.config import ExperimentConfig
from robustdata.datafile import read_dataset, write_dataset
from robustdata.dataset import Dataset
from robustdata.rng import RngStream
from robustdata.theory import corner_oracle_gap, sample

HUGE = 10**400  # a JSON integer float64 cannot hold: float() overflows on it

SMALL_CONFIG = {
    "distribution": {"d": 20, "mu": 0.4, "p": 0.9, "n_train": 2000, "n_test": 2000},
    "train": {"lr": 0.002, "epochs": 40, "batch_size": 128},
    "attack": {"eps": 0.8, "steps": 10},
    "robust_learn": {"epochs": 50, "gamma": 0.05, "beta": 0.01, "batch_size": 128},
    "eval": {"architectures": ["linear"], "seeds": [0], "budgets": [0.4, 0.8]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def test_unknown_flag_is_usage_error():
    assert cli_run(["evaluate", "--bogus"]) == 64


def test_unknown_subcommand_is_usage_error():
    assert cli_run(["frobnicate"]) == 64


@pytest.mark.parametrize("command", ["theory-verify", "learn", "baseline", "evaluate", "toy-fig2"])
def test_missing_config_exits_one(tmp_path, capsys, command):
    code = cli_run([command, "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("evaluate", "train", "lr", "0.01"),
        ("learn", "model", "arch", 5),
        ("learn", "attack", "clamp", 5),
        ("theory-verify", "distribution", "d", "20"),
        ("learn", "robust_learn", "epochs", 1.5),
        ("evaluate", "eval", "budgets", ["x"]),
    ],
    ids=["lr-string", "arch-int", "clamp-int", "d-string", "epochs-float", "budgets-strings"],
)
def test_mistyped_config_value_exits_one(tmp_path, capsys, command, section, key, value):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config.setdefault(section, {})[key] = value
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(config))
    code = cli_run([command, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{section}.{key}" in err
    assert not (tmp_path / "out").exists()  # rejected before the subcommand runs


def test_config_directory_exits_one(tmp_path, capsys):
    code = cli_run(["learn", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_inverted_attack_clamp_exits_one(tmp_path, capsys):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["attack"]["clamp"] = [1.0, -1.0]
    config["robust_learn"]["epochs"] = 1
    path = tmp_path / "clamp.json"
    path.write_text(json.dumps(config))
    code = cli_run(["learn", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "invalid clamp" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value",
    [("learn", "attack", "eps", float("nan")), ("evaluate", "eval", "budgets", [float("inf")]),
     ("evaluate", "eval", "budgets", [0.4, -0.1])],
    ids=["learn-nan-eps", "evaluate-inf-budget", "evaluate-negative-budget"],
)
def test_non_finite_attack_budget_exits_one(tmp_path, capsys, monkeypatch, command, section, key, value):
    # evaluate trained every seed, and attacked at 0.4, before it rejected a budget
    trained = []
    monkeypatch.setattr(evaluation, "sgd_train", lambda *args: trained.append(args))
    config = json.loads(json.dumps(SMALL_CONFIG))
    config[section][key] = value
    config["robust_learn"]["epochs"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))  # json writes NaN and Infinity, and reads them back
    code = cli_run([command, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: eps must be positive and finite" in capsys.readouterr().err
    assert trained == []


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("learn", "robust_learn", "gamma", float("nan"), "gamma must be positive and finite"),
        ("learn", "robust_learn", "beta", float("inf"), "beta must be >= 0 and finite"),
        ("learn", "robust_learn", "lam", -1.0, "lam must be >= 0 and finite"),
        ("learn", "robust_learn", "lam", float("inf"), "lam must be >= 0 and finite"),
        ("evaluate", "train", "lr", float("inf"), "lr must be positive and finite"),
        ("baseline", "train", "weight_decay", float("nan"), "weight_decay must be >= 0 and finite"),
    ],
    ids=["nan-gamma", "inf-beta", "negative-lam", "inf-lam", "inf-lr", "nan-weight-decay"],
)
def test_unusable_learner_and_trainer_values_exit_one(tmp_path, capsys, command, section, key, value, message):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config[section][key] = value
    config["robust_learn"]["epochs"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")]
    assert_exits_one_with(capsys, argv, f"error: {message}")


@pytest.mark.parametrize("arch", ["mlp:-3", "mlp:8--8", "mlp:abc"])
def test_malformed_mlp_architecture_exits_one(tmp_path, capsys, arch):
    # mlp:-3 trained mlp:3 and mlp:8--8 trained mlp:8-8, exiting 0
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["model"] = {"arch": arch}
    config["robust_learn"]["epochs"] = 1
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(config))
    argv = ["learn", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")]
    assert_exits_one_with(capsys, argv, f"bad mlp architecture '{arch}'")


@pytest.mark.parametrize("key, value", [("architectures", ["linear", "linear"]), ("seeds", [0, 0]),
                                        ("budgets", [0.4, 0.8, 0.4])])
def test_repeated_evaluation_entry_exits_one(tmp_path, capsys, key, value):
    # seeds [0, 0] exited 0 and wrote every cell twice
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["eval"][key] = value
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(config))
    argv = ["evaluate", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")]
    assert_exits_one_with(capsys, argv, "repeated architecture, seed or budget")


def assert_evaluate_rejects_fractions(tmp_path, capsys, fractions, message):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["eval"]["subsample_fractions"] = fractions
    path = tmp_path / "fractions.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["evaluate", "--config", str(path), "--seed", "0", "--out", str(out)]
    assert_exits_one_with(capsys, argv, f"eval.subsample_fractions {fractions}{message}")
    assert not out.exists()  # rejected before any training


@pytest.mark.parametrize("fractions", [[], [1, 1.0], [0.5, 0.5000001]], ids=["none", "one-twice", "same-tag"])
def test_evaluate_fractions_without_a_report_each_exit_one(tmp_path, capsys, fractions):
    # each exited 0: [] wrote no report, and the other two wrote one report over the other
    assert_evaluate_rejects_fractions(tmp_path, capsys, fractions, "")


@pytest.mark.parametrize("fractions", [[1.0, 1.5], [0.0, 1.0], [-0.5]], ids=["above-one", "zero", "negative"])
def test_evaluate_fraction_out_of_range_exits_one_before_any_run(tmp_path, capsys, fractions):
    # [1.0, 1.5] wrote the 1.0 report and only then exited 1, when subsample rejected 1.5
    assert_evaluate_rejects_fractions(tmp_path, capsys, fractions, " must each be in (0, 1]")


@pytest.mark.parametrize("command", ["theory-verify", "learn", "baseline", "evaluate", "toy-fig2"])
@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("distribution", "p", 0.3, "p must be in (0.5, 1], got 0.3"),
        ("distribution", "n_train", -5, "distribution.n_train must be >= 1, got -5"),
        ("distribution", "n_test", 0, "distribution.n_test must be >= 1, got 0"),
        ("train", "lr", 0, "lr must be positive and finite, got 0"),
        ("attack", "steps", 0, "steps must be >= 1, got 0"),
        ("robust_learn", "mode", "bogus", "unknown mode 'bogus'"),
        ("model", "arch", "cnn", "unknown architecture 'cnn'"),
        ("eval", "architectures", ["linear", "mlp:0"], "bad mlp architecture 'mlp:0'"),
        ("eval", "seeds", [], "need at least one architecture, seed, and budget"),
        ("eval", "budgets", [0.4, 0.4], "repeated architecture, seed or budget"),
        ("eval", "subsample_fractions", [1.5], "eval.subsample_fractions [1.5] must each be in (0, 1]"),
        # a float-kind integer float64 cannot hold ended in an OverflowError traceback, or in exit 0 from a
        # command that never converted it (train.lr under learn, robust_learn.gamma under evaluate)
        *((section, key, HUGE, f"config value {section}.{key} must be a number")
          for section, key in [("attack", "eps"), ("attack", "alpha"), ("distribution", "mu"), ("train", "lr"),
                               ("train", "weight_decay"), ("robust_learn", "gamma"), ("robust_learn", "beta"),
                               ("robust_learn", "lam")]),
        ("attack", "clamp", [0, HUGE], "config value attack.clamp must be a list of 2 numbers"),
        ("eval", "budgets", [0.4, HUGE], "config value eval.budgets must be a list of numbers"),
    ],
    ids=["p", "n-train", "n-test", "lr", "steps", "learn-mode", "model-arch", "eval-arch", "no-seeds",
         "repeated-budget", "fraction", "huge-eps", "huge-alpha", "huge-mu", "huge-lr", "huge-weight-decay",
         "huge-gamma", "huge-beta", "huge-lam", "huge-clamp", "huge-budgets"],
)
def test_every_subcommand_rejects_a_config_that_one_rejects(tmp_path, capsys, monkeypatch, command, section, key,
                                                           value, message):
    # each section was range-checked only by the command that used it: a bogus robust_learn.mode
    # exited 0 from evaluate, and an empty eval.seeds from every command but evaluate; an
    # n_test of 0 let learn and toy-fig2 write artifacts that evaluate then rejected
    def no_work(*args):
        raise AssertionError(f"{command} sampled data before rejecting its config")

    monkeypatch.setattr("robustdata.cli.sample", no_work)
    monkeypatch.setattr("robustdata.evaluation.two_gaussians", no_work)
    config = json.loads(json.dumps(SMALL_CONFIG))
    config.setdefault(section, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert_exits_one_with(capsys, [command, "--config", str(path), "--seed", "0", "--out", str(out)], f"error: {message}")
    assert not out.exists()  # nothing written


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_learner_exits_one(tmp_path, capsys):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["robust_learn"]["gamma"] = 1e300
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(config))
    code = cli_run(["learn", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "epoch 0, batch 0" in capsys.readouterr().err


def dataset_file_with_metadata(path, meta: bytes) -> str:
    """A valid 4-row dataset file whose metadata bytes are replaced by `meta`."""
    write_dataset(path, Dataset(np.ones((4, 21)), np.array([1, -1, 1, -1])))
    blob = path.read_bytes()
    path.write_bytes(blob[: -len(b"{}") - 4] + struct.pack("<I", len(meta)) + meta)
    return str(path)


def assert_exits_one_with(capsys, argv, message):
    code = cli_run(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    assert message in err


@pytest.mark.parametrize("command", ["learn", "baseline", "evaluate"])
@pytest.mark.parametrize("meta", [b"[1,2]", b'"gaussian"', b"null"], ids=["list", "string", "null"])
def test_dataset_metadata_not_an_object_exits_one(tmp_path, capsys, config_path, command, meta):
    data = dataset_file_with_metadata(tmp_path / "bad.rds", meta)
    argv = [command, "--config", config_path, "--seed", "0", "--out", str(tmp_path / "out"), "--data", data]
    assert_exits_one_with(capsys, argv, "metadata is not a JSON object")


@pytest.mark.parametrize(
    "meta, message",
    [
        (b'{"d":null}', "provenance d must be an integer, got null"),
        (b'{"d":20.5}', "provenance d must be an integer, got 20.5"),
        (b'{"mu":"0.4"}', 'provenance mu must be a number, got "0.4"'),
        (b'{"p":true}', "provenance p must be a number, got true"),
        (b'{"law":3}', "provenance law must be a string or null, got 3"),
        (b'{"mu":%d}' % HUGE, f"provenance mu must be a number, got {HUGE}"),  # float() overflowed on it
    ],
    ids=["d-null", "d-float", "mu-string", "p-bool", "law-int", "mu-huge"],
)
def test_dataset_provenance_of_wrong_kind_exits_one(tmp_path, capsys, config_path, meta, message):
    # evaluate reads the generation parameters back from the file to sample its test set
    data = dataset_file_with_metadata(tmp_path / "bad.rds", meta)
    argv = ["evaluate", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "out"), "--data", data]
    assert_exits_one_with(capsys, argv, message)


@pytest.mark.parametrize(
    "command, message",
    [("learn", "cannot learn from an empty dataset"), ("evaluate", "cannot subsample an empty dataset")],
)
def test_empty_dataset_exits_one(tmp_path, capsys, command, message):
    # learn used to exit 0 with an empty robust_dataset.rds and a trace of NaN rows; evaluate
    # (subsampling first, as the shipped synthetic-d20 config does) failed inside np.concatenate
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["eval"]["subsample_fractions"] = [0.5, 1.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    data = tmp_path / "empty.rds"
    write_dataset(data, Dataset(np.zeros((0, 21)), np.zeros(0, int)))
    argv = [command, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out"), "--data", str(data)]
    assert_exits_one_with(capsys, argv, message)
    assert not (tmp_path / "out" / "robust_dataset.rds").exists()


@pytest.mark.parametrize("arch", ["linear", "mlp:4"])
@pytest.mark.parametrize("command", ["learn", "baseline", "evaluate"])
def test_zero_width_dataset_exits_one(tmp_path, capsys, command, arch):
    # a header of width 0 was read as a 10 x 0 feature matrix: the linear commands wrote a
    # 0-column dataset and exited 0, and an mlp init divided by its fan-in of 0
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["model"] = {"arch": arch}
    config["eval"]["architectures"] = [arch]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    data = tmp_path / "zero-width.rds"
    labels = np.array([1, -1] * 5, dtype="<i4").tobytes()
    data.write_bytes(struct.pack("<4sHIIIBdd", b"RDS1", 1, 10, 0, 2, 0, 0.0, 0.0) + labels + struct.pack("<I", 2) + b"{}")
    argv = [command, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "out"), "--data", str(data)]
    assert_exits_one_with(capsys, argv, "features must be 2-D with at least one column, got shape (10, 0)")
    assert not (tmp_path / "out" / "robust_dataset.rds").exists()


def test_dataset_width_unlike_test_set_exits_one(tmp_path, capsys, config_path):
    # with no `d` in provenance the test set has the config's width, 21; numpy's matmul message named neither
    data = tmp_path / "narrow.rds"
    write_dataset(data, Dataset(np.ones((4, 5)), np.array([1, -1, 1, -1])))
    argv = ["evaluate", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "out"), "--data", str(data)]
    assert_exits_one_with(capsys, argv, "dataset has 5 features but its test set has 21")


def test_malformed_seed_env_variable_exits_one(tmp_path, capsys, monkeypatch):
    # int("abc") failed with "invalid literal for int()", which did not name the variable
    monkeypatch.setenv("RDS_SEED", "abc")
    assert_exits_one_with(capsys, ["toy-fig2", "--out", str(tmp_path / "out")], "RDS_SEED must be an integer, got 'abc'")


@pytest.mark.parametrize(
    "mode, law, expected",
    [
        ("general-symmetric", "uniform", ("general-symmetric", "uniform")),
        ("general-symmetric", "laplace", ("general-symmetric", "laplace")),
        ("robust-star", "gaussian", ("gaussian", None)),
        ("gaussian", "gaussian", ("gaussian", None)),
    ],
)
def test_test_set_follows_training_law(mode, law, expected):
    cfg = ExperimentConfig({"distribution": dict(SMALL_CONFIG["distribution"], mode=mode, law=law)})
    train = sample(cfg.distribution_spec(), 50, RngStream(0))
    train.provenance["mode"] = "meta-gradient"  # the learner records its own mode here
    test = _test_set(train, cfg, RngStream(0))
    assert (test.provenance["mode"], test.provenance["law"]) == expected


def test_theory_verify_default_passes(tmp_path, config_path):
    out = str(tmp_path / "out")
    code = cli_run(["theory-verify", "--config", config_path, "--seed", "0", "--out", out])
    assert code == 0
    report = (tmp_path / "out" / "theory_report.txt").read_text()
    assert "verdict=pass" in report
    assert "lemma1.natural_acc=" in report


def test_theory_verify_failed_check_writes_report_and_exits_two(tmp_path):
    # a negative tail mean puts the lemma-1 SVM outside the closed form's domain; this exited 1
    # with no report
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"distribution": {"d": 20, "mu": -0.4, "n_train": 2000, "n_test": 2000}}))
    out = tmp_path / "out"
    assert cli_run(["theory-verify", "--config", str(path), "--seed", "0", "--out", str(out)]) == 2
    report = (out / "theory_report.txt").read_text().splitlines()
    for line in ("lemma1.closed_form_natural=nan", "lemma1.closed_form_robust=nan",
                 "check.lemma1.closed_form_agrees=fail", "verdict=fail"):
        assert line in report


def test_theory_verify_of_a_non_gaussian_model_exits_one(tmp_path, capsys, monkeypatch):
    # the mode was checked only after both sets were sampled, the SVM trained and the test set attacked
    def no_sampling(*args):
        raise AssertionError("theory-verify sampled before rejecting the mode")

    monkeypatch.setattr("robustdata.cli.sample", no_sampling)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"distribution": {"d": 20, "mode": "general-symmetric", "n_train": 2000}}))
    out = tmp_path / "out"
    argv = ["theory-verify", "--config", str(path), "--seed", "0", "--out", str(out)]
    assert_exits_one_with(capsys, argv, "distribution.mode must be 'gaussian', got 'general-symmetric'")
    assert not out.exists()  # rejected before any work


def test_theory_verify_of_an_l2_attack_exits_one(tmp_path, capsys):
    # the closed forms are l-inf: an l2 PGD accuracy was paired with them, failed
    # lemma1.closed_form_agrees and exited 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"distribution": {"d": 20, "n_train": 2000}, "attack": {"norm": "l2"}}))
    out = tmp_path / "out"
    argv = ["theory-verify", "--config", str(path), "--seed", "0", "--out", str(out)]
    assert_exits_one_with(capsys, argv, "attack.norm must be 'linf', got 'l2'")
    assert not out.exists()  # rejected before any work


def test_wrong_lemma2_perturbation_fails_the_shared_corner_check(tmp_path, capsys, config_path, monkeypatch):
    # theory-verify and acceptance criterion 5 run the same corner_oracle_gap, so a wrong sign fails both
    monkeypatch.setattr("robustdata.theory.optimal_linf_perturbation", lambda w, y, eps: eps * np.sign(y * w))
    assert corner_oracle_gap(RngStream(123), 500, 10, 1.5) > 1e-9
    assert cli_run(["theory-verify", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "out")]) == 2
    assert "check.lemma2.corner_oracle=fail" in capsys.readouterr().out.splitlines()


def test_learn_then_evaluate_uses_file_provenance(tmp_path, config_path):
    out = str(tmp_path / "out")
    assert cli_run(["learn", "--config", config_path, "--seed", "0", "--out", out]) == 0
    learned_path = os.path.join(out, "robust_dataset.rds")
    ds = read_dataset(learned_path)
    assert ds.provenance["generator"] == "robust-learn"
    assert "config_hash" in ds.provenance
    assert os.path.exists(os.path.join(out, "learn_trace.csv"))

    # evaluate consumes the learned file; generation parameters travel inside it
    assert cli_run(["evaluate", "--config", config_path, "--seed", "0", "--out", out, "--data", learned_path]) == 0
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    budgets = sorted({c["budget"] for c in report["cells"]})
    assert budgets == [0.4, 0.8]
    cell = [c for c in report["cells"] if c["budget"] == 0.8][0]
    assert cell["robust_acc"] >= 0.5  # learned data: natural training is robust


def test_identical_seed_runs_are_bit_identical(tmp_path, config_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert cli_run(["evaluate", "--config", config_path, "--seed", "7", "--out", out]) == 0
    with open(os.path.join(out1, "report.json")) as f:
        r1 = json.load(f)
    with open(os.path.join(out2, "report.json")) as f:
        r2 = json.load(f)
    for c1, c2 in zip(r1["cells"], r2["cells"]):
        assert c1["natural_acc"] == c2["natural_acc"]
        assert c1["robust_acc"] == c2["robust_acc"]
    assert r1["provenance"] == r2["provenance"]


def test_seed_env_variable_equals_flag(tmp_path, config_path, monkeypatch):
    # RDS_SEED=5 must produce the same artifact as --seed 5
    out_env, out_flag = str(tmp_path / "env"), str(tmp_path / "flag")
    monkeypatch.setenv("RDS_SEED", "5")
    assert cli_run(["baseline", "--config", config_path, "--out", out_env, "--kind", "natural"]) == 0
    monkeypatch.delenv("RDS_SEED")
    assert cli_run(["baseline", "--config", config_path, "--seed", "5", "--out", out_flag, "--kind", "natural"]) == 0
    env_bytes = (tmp_path / "env" / "adv_of_natural.rds").read_bytes()
    flag_bytes = (tmp_path / "flag" / "adv_of_natural.rds").read_bytes()
    assert env_bytes == flag_bytes


def test_toy_fig2_artifacts(tmp_path):
    out = str(tmp_path / "toy")
    assert cli_run(["toy-fig2", "--seed", "0", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "fig2_points.csv"))
    report = (tmp_path / "toy" / "fig2_report.txt").read_text()
    assert "toy.robust_robust_acc=" in report


def test_transfer_artifacts(tmp_path):
    # the architecture x seed transfer grid is `evaluate` with one budget;
    # there is no separate `transfer` subcommand
    assert cli_run(["transfer"]) == 64
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["train"]["epochs"] = 5
    config["eval"] = {"architectures": ["linear", "mlp:8"], "seeds": [0, 1], "budgets": [0.8]}
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))
    out = str(tmp_path / "tr")
    assert cli_run(["evaluate", "--config", str(cfg_path), "--seed", "0", "--out", out]) == 0
    with open(os.path.join(out, "report.csv")) as f:
        rows = list(csv.reader(f))
    assert [row[:3] for row in rows[1:]] == [
        ["linear", "0", "0.8"], ["linear", "1", "0.8"], ["mlp:8", "0", "0.8"], ["mlp:8", "1", "0.8"]
    ]


def test_evaluate_with_mlp_architecture(tmp_path):
    config = dict(SMALL_CONFIG)
    config["distribution"] = {"d": 8, "mu": 0.5, "p": 0.9, "n_train": 500, "n_test": 500}
    config["train"] = {"lr": 0.01, "epochs": 5, "batch_size": 100}
    config["eval"] = {"architectures": ["mlp:8"], "seeds": [0], "budgets": [0.5]}
    cfg_path = tmp_path / "mlp.json"
    cfg_path.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    assert cli_run(["evaluate", "--config", str(cfg_path), "--seed", "0", "--out", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    assert report["cells"][0]["arch"] == "mlp:8"
