import csv
import re
from types import SimpleNamespace

import numpy as np
import pytest

from robustdata.attacks import AttackConfig
from robustdata.config import ExperimentConfig
from robustdata.dataset import Dataset
from robustdata.errors import DataError, ParameterError
from robustdata.evaluation import (
    EvalPlan,
    figure2_toy,
    evaluate_dataset,
    make_model,
    model_factory,
    parse_arch,
    two_gaussians,
)
from robustdata.learning import RobustLearnConfig, learn_robust_dataset
from robustdata.models import TrainConfig, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample

TRAIN = TrainConfig(lr=0.002, momentum=0.9, weight_decay=1e-3, epochs=30, batch_size=128, seed=0)


def test_parse_arch():
    assert parse_arch("linear") == ("linear", [])
    assert parse_arch("mlp:16") == ("mlp", [16])
    assert parse_arch("mlp:32-8") == ("mlp", [32, 8])
    with pytest.raises(ParameterError):
        parse_arch("cnn")
    with pytest.raises(ParameterError):
        parse_arch("mlp:")
    assert parse_arch("mlp:08") == ("mlp", [8])
    # empty tokens were dropped, so mlp:-3 trained mlp:3; int() takes "+8", " 8" and "8_0"
    for arch in ["mlp:-3", "mlp:8--8", "mlp:8-", "mlp:abc", "mlp:0", "mlp:+8", "mlp: 8", "mlp:8_0"]:
        with pytest.raises(ParameterError, match=re.escape(f"bad mlp architecture '{arch}'")):
            parse_arch(arch)


def test_make_model_shapes():
    assert make_model("linear", 5, 2, 0).w.shape == (5,)
    mlp = make_model("mlp:8-4", 3, 2, 1)
    assert [W.shape for W in mlp.weights] == [(3, 8), (8, 4), (4, 2)]


def test_plan_validation():
    ds = two_gaussians(RngStream(0), 10)
    with pytest.raises(ParameterError):
        EvalPlan(ds, ds, [], [0], [0.1], AttackConfig(eps=0.1), TRAIN)


@pytest.mark.parametrize("architectures, seeds, budgets", [
    (["linear", "linear"], [0], [0.1]),
    (["linear"], [0, 0], [0.1]),
    (["linear"], [0], [0.1, 0.2, 0.1 + 5e-13]),
], ids=["architecture", "seed", "budget-within-1e-12"])
def test_plan_rejects_repeats(architectures, seeds, budgets):
    # a repeat wrote its cells twice, and RunReport.cell returned only the first
    ds = two_gaussians(RngStream(0), 10)
    with pytest.raises(ParameterError, match="repeated architecture, seed or budget"):
        EvalPlan(ds, ds, architectures, seeds, budgets, AttackConfig(eps=0.1), TRAIN)
    EvalPlan(ds, ds, ["linear", "mlp:4"], [0, 1], [0.1, 0.1 + 2e-12], AttackConfig(eps=0.1), TRAIN)


@pytest.mark.parametrize("budget", [-0.1, 0.0, np.inf])
def test_plan_rejects_unusable_budgets(budget):
    # each was accepted, and evaluate_dataset trained every architecture's seeds before AttackConfig rejected it
    ds = two_gaussians(RngStream(0), 10)
    with pytest.raises(ParameterError, match="eps must be positive and finite"):
        EvalPlan(ds, ds, ["linear"], [0], [0.4, budget], AttackConfig(eps=0.1), TRAIN)


def test_plan_rejects_test_set_of_another_width():
    # it used to fail at the first matmul with numpy's size message
    ds = two_gaussians(RngStream(0), 10)
    test = Dataset(np.zeros((4, 5)), np.array([1, -1, 1, -1]))
    with pytest.raises(DataError, match="dataset has 2 features but its test set has 5"):
        EvalPlan(ds, test, ["linear"], [0], [0.1], AttackConfig(eps=0.1), TRAIN)


def test_degenerate_self_evaluation():
    # dataset == test set, vanishing budget: robust ~ natural ~ training accuracy
    ds = two_gaussians(RngStream(1), 150)
    plan = EvalPlan(ds, ds, ["linear"], [0], [1e-9], AttackConfig(norm="linf", eps=1.0, steps=3), TRAIN)
    report = evaluate_dataset(plan, RngStream(2))
    cell = report.cell("linear", 0, 1e-9)
    assert cell["robust_acc"] == pytest.approx(cell["natural_acc"], abs=1e-12)
    assert cell["natural_acc"] >= 0.95


def test_report_invariants_and_budget_monotonicity():
    rng = RngStream(3)
    spec = DistributionSpec(d=10, mu=0.4, p=0.9)
    train = sample(spec, 2000, rng.child(1))
    test = sample(spec, 2000, rng.child(2))
    budgets = [0.1, 0.4, 0.8]
    plan = EvalPlan(train, test, ["linear"], [0, 1], budgets, AttackConfig(norm="linf", eps=0.4, steps=10), TRAIN)
    report = evaluate_dataset(plan, rng.child(3))
    assert len(report.cells) == 6
    for cell in report.cells:
        assert cell["robust_acc"] <= cell["natural_acc"] + 1e-12
    for seed in (0, 1):
        robs = [report.cell("linear", seed, b)["robust_acc"] for b in budgets]
        assert all(a >= b for a, b in zip(robs, robs[1:]))


def test_report_independent_of_grid_order():
    rng = RngStream(4)
    spec = DistributionSpec(d=8, mu=0.5, p=0.9)
    train = sample(spec, 1000, rng.child(1))
    test = sample(spec, 1000, rng.child(2))
    atk = AttackConfig(norm="linf", eps=0.5, steps=5)
    p1 = EvalPlan(train, test, ["linear"], [0, 1], [0.2, 0.5], atk, TRAIN)
    p2 = EvalPlan(train, test, ["linear"], [1, 0], [0.5, 0.2], atk, TRAIN)
    r1 = evaluate_dataset(p1, RngStream(9))
    r2 = evaluate_dataset(p2, RngStream(9))
    for cell in r1.cells:
        twin = r2.cell(cell["arch"], cell["seed"], cell["budget"])
        assert twin["natural_acc"] == cell["natural_acc"]
        assert twin["robust_acc"] == cell["robust_acc"]


def test_report_serialization(tmp_path):
    ds = two_gaussians(RngStream(5), 100)
    plan = EvalPlan(ds, ds, ["linear"], [0], [0.5], AttackConfig(norm="linf", eps=0.5, steps=3), TRAIN)
    report = evaluate_dataset(plan, RngStream(6))
    report.provenance["config_hash"] = "abc"
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["arch", "seed", "budget", "natural_acc", "robust_acc", "train_seconds", "attack_seconds"]
    assert len(rows) == 2
    # canonical bytes exclude wall time and are reproducible
    assert report.canonical_bytes() == report.canonical_bytes()
    assert b"seconds" not in report.canonical_bytes()


def test_training_time_is_counted_once_per_arch_and_seed(monkeypatch):
    # a fake clock that only training and attacks advance: every budget cell of
    # one (arch, seed) shares that seed's training time. An architecture's seeds
    # train in one lock-step call and are attacked at each budget in one lock-step
    # call, and each seed takes an equal share of each call's time.
    import robustdata.evaluation as evaluation

    now = [0.0]
    train, attack = evaluation.sgd_train, evaluation.robust_accuracy
    train_calls, attack_calls = [], []

    def timed(fn, cost, calls):
        def run(models, *args):
            now[0] += cost
            calls.append(len(models))
            return fn(models, *args)
        return run

    monkeypatch.setattr(evaluation, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(evaluation, "sgd_train", timed(train, 10.0, train_calls))
    monkeypatch.setattr(evaluation, "robust_accuracy", timed(attack, 1.0, attack_calls))
    ds = two_gaussians(RngStream(5), 50)
    plan = EvalPlan(ds, ds, ["linear", "mlp:4"], [0, 1], [0.2, 0.5, 1.0], AttackConfig(norm="linf", eps=0.5, steps=2),
                    TRAIN)
    report = evaluate_dataset(plan, RngStream(6))
    assert train_calls == [2, 2]
    assert attack_calls == [2] * 6  # one call per (arch, budget), with every seed
    assert len(report.cells) == 12
    assert [(c["train_seconds"], c["attack_seconds"]) for c in report.cells] == [(5.0, 0.5)] * 12
    # each column, summed over its seeds, is the time spent in the calls
    assert sum(c["train_seconds"] for c in report.cells if c["budget"] == 0.2) == 10.0 * len(train_calls)
    for arch in plan.architectures:
        for budget in plan.budgets:
            assert sum(c["attack_seconds"] for c in report.cells if (c["arch"], c["budget"]) == (arch, budget)) == 1.0
    assert sum(c["attack_seconds"] for c in report.cells) == 1.0 * len(attack_calls)


@pytest.mark.parametrize("attack, alphas", [({"alpha": 0.8 / 10}, [0.8 / 10] * 2), ({}, [0.4 / 10, 0.8 / 10])],
                         ids=["configured", "null"])
def test_evaluate_attacks_every_budget_with_a_configured_alpha(monkeypatch, attack, alphas):
    # a configured attack.alpha is each budget's step, also where it equals eps / 10;
    # a null one is each budget's eps / 10. The configured alpha was dropped at every budget.
    import robustdata.evaluation as evaluation

    seen = []
    robust_accuracy = evaluation.robust_accuracy
    monkeypatch.setattr(evaluation, "robust_accuracy",
                        lambda models, test, cfg: seen.append(cfg) or robust_accuracy(models, test, cfg))
    cfg = ExperimentConfig({"attack": {"steps": 2, **attack}})
    ds = two_gaussians(RngStream(5), 50)
    evaluate_dataset(EvalPlan(ds, ds, ["linear"], [0], [0.4, 0.8], cfg.attack_config(), TRAIN), RngStream(6))
    assert [(c.eps, c.alpha) for c in seen] == list(zip([0.4, 0.8], alphas))


# ---------------------------------------------------------------------------
# transfer: the architecture x seed grid at the attack's own budget
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_learned():
    rng = RngStream(7)
    spec = DistributionSpec(d=20, mu=0.4, p=0.9)
    train = sample(spec, 2000, rng.child(1))
    test = sample(spec, 4000, rng.child(2))
    atk = AttackConfig(norm="linf", eps=0.8, steps=10)
    cfg = RobustLearnConfig(epochs=50, gamma=0.05, beta=0.01, attack=atk, batch_size=128, theta0_seed=0)
    learned, _ = learn_robust_dataset(train, model_factory("linear", 21), cfg, rng.child(3))
    return train, learned, test


def test_learned_dataset_dominates_natural_at_every_budget(synthetic_learned):
    train, learned, test = synthetic_learned
    budgets = [0.4, 0.8]  # mu and 2*mu for this task
    atk = AttackConfig(norm="linf", eps=0.8, steps=10)
    ours = evaluate_dataset(EvalPlan(learned, test, ["linear"], [0], budgets, atk, TRAIN), RngStream(21))
    control = evaluate_dataset(EvalPlan(train, test, ["linear"], [0], budgets, atk, TRAIN), RngStream(21))
    for budget in budgets:
        assert (
            ours.cell("linear", 0, budget)["robust_acc"]
            > control.cell("linear", 0, budget)["robust_acc"]
        )


def test_transfer_matrix_grid(synthetic_learned):
    train, learned, test = synthetic_learned
    atk = AttackConfig(norm="linf", eps=0.8, steps=10)
    report = evaluate_dataset(EvalPlan(learned, test, ["linear", "mlp:16"], [0, 1], [atk.eps], atk, TRAIN), RngStream(8))
    control = evaluate_dataset(EvalPlan(train, test, ["linear", "mlp:16"], [0, 1], [atk.eps], atk, TRAIN), RngStream(8))
    assert len(report.cells) == 4
    # on the architecture the dataset was learned with, the learned dataset
    # dominates the natural control for every (seed) cell
    for seed in (0, 1):
        ours = report.cell("linear", seed, 0.8)["robust_acc"]
        theirs = control.cell("linear", seed, 0.8)["robust_acc"]
        assert ours > theirs + 0.5


def test_transfer_self_reproduces_learning_time_evaluation(synthetic_learned):
    _, learned, test = synthetic_learned
    atk = AttackConfig(norm="linf", eps=0.8, steps=10)
    report = evaluate_dataset(EvalPlan(learned, test, ["linear"], [0], [atk.eps], atk, TRAIN), RngStream(9))
    from robustdata.attacks import robust_accuracy

    model, _ = sgd_train(model_factory("linear", 21)(TRAIN.seed), learned, TRAIN)
    direct = robust_accuracy(model, test, atk)
    assert report.cell("linear", 0, 0.8)["robust_acc"] == pytest.approx(direct, abs=0.01)


def test_transfer_seed_stability(synthetic_learned):
    _, learned, test = synthetic_learned
    atk = AttackConfig(norm="linf", eps=0.8, steps=10)
    report = evaluate_dataset(EvalPlan(learned, test, ["linear"], [0, 1, 2, 3, 4], [atk.eps], atk, TRAIN), RngStream(9))
    robs = [report.cell("linear", s, 0.8)["robust_acc"] for s in range(5)]
    assert max(robs) - min(robs) <= 0.05


def test_transfer_width_change_stays_close_on_toy():
    # MLP width transfer on the 2-D toy: different widths land within 15 points
    rng = RngStream(17)
    train = two_gaussians(rng.child(1), 150)
    test = two_gaussians(rng.child(2), 1000)
    atk = AttackConfig(norm="linf", eps=1.0, steps=10)
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3, epochs=40, batch_size=50, seed=0)
    report = evaluate_dataset(EvalPlan(train, test, ["mlp:16", "mlp:32-32"], [0], [atk.eps], atk, cfg), RngStream(8))
    a = report.cell("mlp:16", 0, 1.0)["robust_acc"]
    b = report.cell("mlp:32-32", 0, 1.0)["robust_acc"]
    assert abs(a - b) <= 0.15


def test_mlp_evaluation_same_for_signed_and_index_labels():
    rng = RngStream(18)
    train = two_gaussians(rng.child(1), 100)
    test = two_gaussians(rng.child(2), 300)
    atk = AttackConfig(norm="linf", eps=0.5, steps=5)
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=1e-3, epochs=10, batch_size=50, seed=0)

    def cells(tr, te):
        report = evaluate_dataset(EvalPlan(tr, te, ["mlp:8"], [0], [atk.eps], atk, cfg), RngStream(8))
        return [(c["natural_acc"], c["robust_acc"]) for c in report.sorted_cells()]

    def as_indices(ds):
        return Dataset(ds.features, (ds.labels + 1) // 2)

    signed = cells(train, test)
    assert signed[0][0] > 0.9
    assert cells(as_indices(train), as_indices(test)) == signed


def test_class_count_from_training_and_test_labels():
    # three training classes, two of them in the test set: the network still needs three outputs
    rng = RngStream(19)
    train = Dataset(rng.normal(0, 1, (60, 3)), np.arange(60) % 3)
    test = Dataset(rng.normal(0, 1, (20, 3)), np.arange(20) % 2)
    atk = AttackConfig(norm="linf", eps=0.1, steps=2)
    cfg = TrainConfig(lr=0.05, epochs=2, batch_size=20)
    report = evaluate_dataset(EvalPlan(train, test, ["mlp:4"], [0], [atk.eps], atk, cfg), RngStream(8))
    assert len(report.cells) == 1


# ---------------------------------------------------------------------------
# 2-D demonstration
# ---------------------------------------------------------------------------


def test_figure2_report_and_dump(tmp_path):
    # In this fully symmetric toy the retrained direction coincides with the
    # robust one, so under a worst-case-attaining attack its robust accuracy
    # cannot drop below the robust model's; the op reports both so the gap
    # (or its absence) is measured rather than assumed.
    csv_path = tmp_path / "fig2.csv"
    result = figure2_toy(RngStream(10), eps=1.0, csv_path=csv_path)
    assert result.robust_robust_acc >= 0.8
    assert result.retrained_robust_acc <= result.robust_robust_acc + 1e-9
    assert result.retrained_natural_acc >= 0.9

    with open(csv_path) as f:
        rows = list(csv.reader(f))
    # header + 2n points + 2 decision lines
    assert len(rows) == 1 + 2 * 400 + 2
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"nat", "adv", "line_robust", "line_retrained"}


def test_retraining_on_robust_model_adv_data_is_non_robust_on_feature_model():
    # the degradation the 2-D picture illustrates, measured where it exists:
    # adversarial examples of a robust source wreck the strong feature, and a
    # classifier naturally trained on them leans on the non-robust tails
    rng = RngStream(30)
    spec = DistributionSpec(d=20, mu=0.4, p=0.9)
    train = sample(spec, 2000, rng.child(1))
    test = sample(spec, 4000, rng.child(2))
    from robustdata.attacks import closed_form_linear_robust_accuracy
    from robustdata.learning import adversarially_train_reference, baseline_adv_dataset

    factory = model_factory("linear", 21)
    robust_src, _ = adversarially_train_reference(
        factory, train, AttackConfig(norm="linf", eps=0.6, steps=10), TRAIN
    )
    rob_src = closed_form_linear_robust_accuracy(robust_src, test, 0.8)
    adv_data = baseline_adv_dataset(robust_src, train, AttackConfig(norm="linf", eps=0.8, steps=10))
    retrained, _ = sgd_train(factory(TRAIN.seed), adv_data, TRAIN)
    rob_retrained = closed_form_linear_robust_accuracy(retrained, test, 0.8)
    assert rob_src >= 0.8
    assert rob_retrained <= rob_src - 0.2


def test_figure2_vanishing_budget_keeps_decision_line():
    result = figure2_toy(RngStream(11), eps=1e-9)
    assert result.angle_degrees <= 10.0
