"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` for the per-criterion report.

Shared tasks:
  * d=100 feature model (mu = 4/sqrt(d) = 0.4, p = 0.9): the accurate-but-
    non-robust natural regime and the constructed robust distribution.
  * d=20 end-to-end task for the dataset learner and its baselines.

Criterion 8 is asserted twice. At its stated parameters (mu = 4/sqrt(20),
eps = 2*mu ~ 1.79) the budget exceeds the strong feature's magnitude
(|x1| = 1), so robust accuracy is capped at Phi(mu - eps) ~ 0.19 for every
linear classifier; that test asserts the cap, and that PGD on freshly
trained models does not claim more. At the theory-consistent parameters
(mu = 0.4, eps = 0.8 < 1) the guarantee applies and the learned dataset
must reach robust accuracy >= 0.7.
"""

import json
import time

import numpy as np
import pytest

from robustdata import learning
from robustdata.attacks import AttackConfig, closed_form_linear_robust_accuracy, robust_accuracy
from robustdata.autodiff import Tensor
from robustdata.cli import cli_run
from robustdata.datafile import read_dataset, write_dataset
from robustdata.dataset import subsample
from robustdata.evaluation import EvalPlan, evaluate_dataset, model_factory
from robustdata.learning import (
    RobustLearnConfig,
    adversarially_train_reference,
    baseline_adv_dataset,
    learn_robust_dataset,
)
from robustdata.models import LinearClassifier, MlpClassifier, TrainConfig, batch_loss_graph, flatten, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import (
    DistributionSpec,
    ROBUST_STAR,
    closed_form_accuracies,
    corner_oracle_gap,
    natural_svm,
    phi,
    sample,
    verify_weight_structure,
)

from gradcheck import finite_diff_check, monte_carlo_accuracies

NATURAL_TRAIN = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, epochs=12, batch_size=128, seed=0)
SMALL_LR_TRAIN = TrainConfig(lr=0.002, momentum=0.9, weight_decay=1e-3, epochs=40, batch_size=128, seed=0)


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} {detail}", flush=True)
    return passed


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lemma1_setup():
    start = time.perf_counter()
    rng = RngStream(42)
    spec = DistributionSpec(d=100, mu=0.4, p=0.9)
    train = sample(spec, 20000, rng.child(1))
    test = sample(spec, 10000, rng.child(2))
    model, nat, rob = natural_svm(train, test, NATURAL_TRAIN, AttackConfig(norm="linf", eps=0.8, steps=10))
    return dict(spec=spec, model=model, test=test, natural=nat, robust=rob, seconds=time.perf_counter() - start)


@pytest.fixture(scope="module")
def theorem2_setup():
    start = time.perf_counter()
    rng = RngStream(42)
    spec = DistributionSpec(d=100, mu=0.4, p=0.9)
    star = DistributionSpec(d=100, mu=0.4, p=0.9, mode=ROBUST_STAR)
    train = sample(star, 20000, rng.child(4))
    test = sample(spec, 10000, rng.child(2))
    model, nat, rob = natural_svm(train, test, SMALL_LR_TRAIN, AttackConfig(norm="linf", eps=0.5, steps=10))
    return dict(model=model, natural=nat, robust=rob, seconds=time.perf_counter() - start)


def end_to_end(mu: float, seed: int = 0, n_test: int = 10000):
    """The d=20 learner task: returns every dataset the comparisons need."""
    d, p, n, T = 20, 0.9, 2000, 50
    eps = 2 * mu
    rng = RngStream(seed)
    spec = DistributionSpec(d=d, mu=mu, p=p)
    train = sample(spec, n, rng.child(1))
    test = sample(spec, n_test, rng.child(3))
    factory = model_factory("linear", d + 1)
    attack = AttackConfig(norm="linf", eps=eps, steps=10)
    cfg = RobustLearnConfig(epochs=T, gamma=0.05, beta=0.01, attack=attack, batch_size=128, theta0_seed=0)
    learned, trace = learn_robust_dataset(train, factory, cfg, rng.child(5))
    return dict(
        d=d, mu=mu, eps=eps, spec=spec, rng=rng, factory=factory, attack=attack,
        train=train, test=test, learned=learned, trace=trace,
    )


def fresh_robust_accuracy(task, dataset, seed: int = 0, use_attack: bool = False) -> float:
    cfg = TrainConfig(lr=0.002, momentum=0.9, weight_decay=1e-3, epochs=40, batch_size=128, seed=seed)
    model, _ = sgd_train(task["factory"](cfg.seed), dataset, cfg)
    if use_attack:
        return robust_accuracy(model, task["test"], task["attack"])
    return closed_form_linear_robust_accuracy(model, task["test"], task["eps"])


@pytest.fixture(scope="module")
def consistent_task():
    return end_to_end(mu=0.4)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_lemma1_regime(lemma1_setup):
    s = lemma1_setup
    ok = s["natural"] >= 0.98 and s["robust"] <= 0.02 and s["seconds"] <= 60
    assert report(
        "criterion 1",
        ok,
        f"natural={s['natural']:.4f} (>=0.98) robust@0.8={s['robust']:.4f} (<=0.02) "
        f"runtime={s['seconds']:.1f}s (<=60)",
    )


def test_criterion_02_theorem2_regime(theorem2_setup):
    s = theorem2_setup
    ok = abs(s["natural"] - 0.9) <= 0.02 and abs(s["robust"] - 0.9) <= 0.02 and s["seconds"] <= 60
    assert report(
        "criterion 2",
        ok,
        f"natural={s['natural']:.4f} robust@0.5={s['robust']:.4f} (both within 0.9 +- 0.02) "
        f"runtime={s['seconds']:.1f}s (<=60)",
    )


def test_criterion_03_theorem1_structure(theorem2_setup):
    rep = verify_weight_structure(theorem2_setup["model"].w, 100)
    ok = rep.tail_vanishing and rep.w1 > 0
    assert report(
        "criterion 3", ok, f"max|tail|/|w1|={rep.tail_max_abs / abs(rep.w1):.5f} (<=0.05) w1={rep.w1:.3f} (>0)"
    )


def test_criterion_04_appendix_weight_lemmas(lemma1_setup):
    rep = verify_weight_structure(lemma1_setup["model"].w, 100)
    ok = rep.tail_equal and rep.nonnegative and rep.ordering
    assert report(
        "criterion 4",
        ok,
        f"tail_cv={rep.tail_cv:.3f} (<=0.2) tail_min={rep.tail_min:.2e} (>=-1e-3) "
        f"w1={rep.w1:.3f} < 1.1*sqrt(d)*mean(tail)={1.1 * 10 * rep.tail_mean:.3f}",
    )


def test_criterion_05_lemma2_corner_oracle():
    worst = corner_oracle_gap(RngStream(123), 500, 10, 1.5)
    ok = worst <= 1e-9
    assert report("criterion 5", ok, f"max |closed-form - corner max| over 500 tuples = {worst:.2e} (<=1e-9)")


def test_criterion_06_closed_form_vs_monte_carlo():
    rng = RngStream(99)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(5, 31))
        spec = DistributionSpec(
            d=d, mu=float(rng.uniform(0.05, 0.6, ())), p=float(rng.uniform(0.55, 0.99, ()))
        )
        w1 = float(rng.uniform(0.0, 2.0, ()))
        c = float(rng.uniform(0.01, 1.0, ()))
        eps = float(rng.uniform(0.05, 1.0, ()))
        w = np.concatenate([[w1], np.full(d, c)])
        cf = closed_form_accuracies(w, spec, eps)
        mc = monte_carlo_accuracies(w, spec, eps, 10**6, rng.child(i))
        worst = max(worst, abs(cf[0] - mc[0]), abs(cf[1] - mc[1]))
    ok = worst <= 0.005
    assert report("criterion 6", ok, f"max |closed form - monte carlo| over 20 tuples = {worst:.5f} (<=0.005)")


def meta_gradient_errors(model, X0, X_adv, y, lam, lr=0.05):
    """Relative errors of the learner's meta-gradient and of G, the loss's theta gradient, against central differences.

    The meta-gradient is learning.learner_batch's, on batch_loss_graph at the
    flat parameters, as the learner calls it, with PGD's output fixed at X_adv.
    """
    theta0 = flatten(model.params())
    cfg = RobustLearnConfig(epochs=1, gamma=lr, beta=0.01, attack=AttackConfig(eps=0.1), lam=lam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learning, "pgd_attack", lambda *args: X_adv)
        meta = learning.learner_batch(model, theta0, X0, X0, y, cfg, cfg.attack)[0]

    def composed(Xv):
        G = batch_loss_graph(model, theta0, Xv, y, lam)[1]
        return batch_loss_graph(model, theta0 - lr * G, X_adv, y, lam)[0]

    h = 1e-5
    numeric = np.zeros_like(X0)
    for i in range(X0.shape[0]):
        for j in range(X0.shape[1]):
            e = np.zeros_like(X0)
            e[i, j] = h
            numeric[i, j] = (composed(X0 + e) - composed(X0 - e)) / (2 * h)
    assert np.any(meta != 0)  # a zero meta-gradient would pass vacuously
    denom = np.maximum(np.maximum(np.abs(meta), np.abs(numeric)), 1e-8)
    unrolled_err = float(np.max(np.abs(meta - numeric) / denom))

    def loss_at(theta):
        return Tensor(batch_loss_graph(model, theta.data, X0, y, lam)[0])

    G = batch_loss_graph(model, theta0, X0, y, lam)[1]
    first_order = finite_diff_check(loss_at, Tensor(theta0), 1e-5, analytic=G).max_rel_error
    return unrolled_err, first_order


def test_criterion_07_meta_gradient_correctness():
    rng = RngStream(7)
    mlp = MlpClassifier.init([2, 8, 2], rng)
    X0 = rng.normal(0, 1, (4, 2))
    X_adv = X0 + rng.normal(0, 0.1, (4, 2))
    mlp_errors = meta_gradient_errors(mlp, X0, X_adv, np.array([0, 1, 0, 1]), 0.0)

    # the linear learner's fused hinge node, on 6x3 batches with the learner's ridge coefficient
    linear_errors = []
    for seed in range(5):
        rng = RngStream(seed)
        w = rng.normal(0, 1, (3,))
        X0 = rng.normal(0, 1, (6, 3))
        X_adv = X0 + rng.normal(0, 0.1, (6, 3))
        linear_errors.append(meta_gradient_errors(LinearClassifier(w), X0, X_adv, rng.rademacher(6), 1e-3))
    unrolled_err = max(mlp_errors[0], *(e[0] for e in linear_errors))
    first_order = max(mlp_errors[1], *(e[1] for e in linear_errors))

    ok = unrolled_err <= 1e-4 and first_order <= 1e-6
    assert report(
        "criterion 7",
        ok,
        f"unrolled rel err={unrolled_err:.2e} (<=1e-4) first-order rel err={first_order:.2e} (<=1e-6);"
        f" mlp {mlp_errors[0]:.2e}/{mlp_errors[1]:.2e},"
        f" linear seeds 0-4 {min(e[0] for e in linear_errors):.2e}-{max(e[0] for e in linear_errors):.2e}",
    )


def test_criterion_08_separation_as_stated():
    """Criterion 8 at its stated parameters: mu = 4/sqrt(20), eps = 2*mu = 8/sqrt(20) ~ 1.789.

    The budget exceeds the strong feature's magnitude (|x1| = 1). For any
    linear w = (w1, c) the worst-case margin is y*w.x - eps*||w||_1, and
      * the x1 term is at most |w1|*(1 - eps) < 0;
      * the weak part is sum(c_i)*mu - eps*sum|c_i| + N(0, sum c_i^2), whose
        mean is at most (mu - eps)*sum|c_i| <= (mu - eps)*||c||_2.
    So robust accuracy is at most Phi(mu - eps) = Phi(-0.894) ~ 0.1855, and a
    single weak coordinate attains it. The stated separation (learned >= 0.7)
    lies beyond that ceiling, so this test checks what the theory proves at
    the stated parameters, on the stated run:
      1. the ceiling is below 0.7;
      2. Monte Carlo of w = e_2 matches the ceiling within 0.005, the
         tolerance of criterion 6;
      3. PGD on models naturally trained on the learned dataset and on the
         natural control claims no more than the ceiling plus three binomial
         standard errors at n_test, so the attack is not masked;
    and it keeps the stated bounds control <= 0.1 and runtime <= 600 s.
    """
    n_test = 4000
    start = time.perf_counter()
    task = end_to_end(mu=4 / np.sqrt(20), n_test=n_test)
    rob_learned = fresh_robust_accuracy(task, task["learned"], use_attack=True)
    rob_control = fresh_robust_accuracy(task, task["train"], use_attack=True)
    seconds = time.perf_counter() - start

    ceiling = phi(task["mu"] - task["eps"])
    margin = 3 * np.sqrt(ceiling * (1 - ceiling) / n_test)
    single_weak = np.zeros(task["d"] + 1)
    single_weak[1] = 1.0
    _, mc_robust = monte_carlo_accuracies(single_weak, task["spec"], task["eps"], 10**6, RngStream(8))

    checks = {
        "ceiling < 0.7": ceiling < 0.7,
        "|monte carlo - ceiling| <= 0.005": abs(mc_robust - ceiling) <= 0.005,
        "learned <= ceiling + margin": rob_learned <= ceiling + margin,
        "control <= ceiling + margin": rob_control <= ceiling + margin,
        "control <= 0.1": rob_control <= 0.1,
        "runtime <= 600s": seconds <= 600,
    }
    failed = [name for name, passed in checks.items() if not passed]
    detail = (
        f"ceiling Phi(mu-eps)={ceiling:.4f} (<0.7) monte-carlo(e2)={mc_robust:.4f} (within 0.005) "
        f"margin={margin:.4f} learned robust={rob_learned:.4f} control={rob_control:.4f} "
        f"(both <={ceiling + margin:.4f}, control <=0.1) runtime={seconds:.0f}s (<=600)"
    )
    report("criterion 8 (as stated: mu=4/sqrt(20), eps=2*mu=1.789)", not failed, detail)
    assert not failed, f"failed: {'; '.join(failed)}; {detail}"


def test_criterion_08_separation_theory_consistent(consistent_task):
    start = time.perf_counter()
    task = consistent_task
    rob_learned = fresh_robust_accuracy(task, task["learned"], use_attack=True)
    rob_control = fresh_robust_accuracy(task, task["train"], use_attack=True)
    seconds = time.perf_counter() - start
    ok = rob_learned >= 0.7 and rob_control <= 0.1 and seconds <= 600
    assert report(
        "criterion 8 (theory-consistent: mu=0.4, eps=2*mu=0.8)",
        ok,
        f"learned robust={rob_learned:.4f} (>=0.7) control={rob_control:.4f} (<=0.1) "
        f"runtime={seconds:.0f}s (<=600)",
    )


def test_criterion_09_table1_ordering(consistent_task):
    task = consistent_task
    rng = task["rng"]
    # baselines are generated at a quarter of the evaluation budget. At the
    # full budget eps = 2*mu the l-inf attack on a model with positive weak
    # weights moves every weak feature from mean y*mu to mean -y*mu: the
    # adversarial data is the exact mirror of the weak features, so a model
    # trained on it learns weak weights of the wrong sign instead of leaning
    # partly on the strong feature, which is the role Table 1 gives this
    # baseline. At eps/4 the weak features keep mean y*mu/2 and their sign.
    # The robust source trains below 2p-1 = 0.8 where the adversarial hinge
    # still carries a signal
    gen_attack = AttackConfig(norm="linf", eps=task["eps"] / 4, steps=10)
    src_nat, _ = sgd_train(task["factory"](SMALL_LR_TRAIN.seed), task["train"], SMALL_LR_TRAIN)
    adv_nat = baseline_adv_dataset(src_nat, task["train"], gen_attack)
    src_rob, _ = adversarially_train_reference(
        task["factory"], task["train"], AttackConfig(norm="linf", eps=0.6, steps=10), SMALL_LR_TRAIN
    )
    adv_rob = baseline_adv_dataset(src_rob, task["train"], gen_attack)

    rob = {
        "learned": fresh_robust_accuracy(task, task["learned"], use_attack=True),
        "adv_nat": fresh_robust_accuracy(task, adv_nat, use_attack=True),
        "natural": fresh_robust_accuracy(task, task["train"], use_attack=True),
        "adv_rob": fresh_robust_accuracy(task, adv_rob, use_attack=True),
    }
    ordering = rob["learned"] > rob["adv_nat"] > rob["natural"]
    gap = rob["learned"] - rob["adv_rob"] >= 0.10
    ok = ordering and gap
    assert report(
        "criterion 9",
        ok,
        f"learned={rob['learned']:.3f} > adv-of-natural={rob['adv_nat']:.3f} > natural={rob['natural']:.3f}; "
        f"adv-of-robust={rob['adv_rob']:.3f} trails learned by {rob['learned'] - rob['adv_rob']:.3f} (>=0.10)",
    )


def test_criterion_10_size_trend(consistent_task):
    task = consistent_task
    robs = []
    for fraction in (0.1, 0.2, 1.0):
        ds = task["learned"] if fraction == 1.0 else subsample(task["learned"], fraction, RngStream(40))
        robs.append(fresh_robust_accuracy(task, ds, use_attack=True))
    ok = robs[0] <= robs[1] <= robs[2]
    assert report(
        "criterion 10", ok, f"robust accuracy at 10%/20%/100%: {robs[0]:.3f} <= {robs[1]:.3f} <= {robs[2]:.3f}"
    )


def test_criterion_11_seed_stability(consistent_task):
    task = consistent_task
    robs = [fresh_robust_accuracy(task, task["learned"], seed=s, use_attack=True) for s in range(5)]
    spread = max(robs) - min(robs)
    ok = spread <= 0.05
    assert report(
        "criterion 11", ok, f"5-seed robust accuracies {['%.3f' % r for r in robs]} spread={spread:.4f} (<=0.05)"
    )


def test_criterion_12_plumbing(tmp_path):
    # dataset file round-trip is byte-identical
    ds = sample(DistributionSpec(d=7, mu=0.3, p=0.9), 128, RngStream(5))
    p1, p2 = tmp_path / "a.rds", tmp_path / "b.rds"
    write_dataset(p1, ds)
    write_dataset(p2, read_dataset(p1))
    roundtrip_ok = p1.read_bytes() == p2.read_bytes()

    # identical config + seed: bit-identical learned dataset via the CLI
    config = {
        "distribution": {"d": 10, "mu": 0.4, "p": 0.9, "n_train": 400, "n_test": 400},
        "robust_learn": {"epochs": 3, "gamma": 0.05, "beta": 0.01, "batch_size": 100},
        "attack": {"eps": 0.8, "steps": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_run(["learn", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 0
        outs.append((out / "robust_dataset.rds").read_bytes())
    learn_ok = outs[0] == outs[1]

    # identical config + seed: bit-identical evaluation reports
    spec = DistributionSpec(d=10, mu=0.4, p=0.9)
    train = sample(spec, 400, RngStream(8))
    test = sample(spec, 400, RngStream(9))
    plan = EvalPlan(train, test, ["linear"], [0], [0.4, 0.8], AttackConfig(norm="linf", eps=0.8, steps=5), NATURAL_TRAIN)
    r1 = evaluate_dataset(plan, RngStream(11))
    r2 = evaluate_dataset(plan, RngStream(11))
    report_ok = r1.canonical_bytes() == r2.canonical_bytes()

    ok = roundtrip_ok and learn_ok and report_ok
    assert report(
        "criterion 12",
        ok,
        f"file round-trip byte-identical={roundtrip_ok} learn-run bytes identical={learn_ok} "
        f"report canonical bytes identical={report_ok}",
    )
