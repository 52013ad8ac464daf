"""Bit-exact digests of the learner, of both training loops, of the attack path and of two reports.

The digests were computed once and are pinned here, so any change to the
meta-gradient, the SGD loop, the loss or attack tapes, the chunking of
attacks over a dataset, or the order of random draws shows up as a
mismatch, in both learner modes and on both model families. The
benchmark's reference pass covers only the meta-gradient mode at seed 0.
"""

import hashlib
import json

import numpy as np
import pytest

from robustdata.attacks import AttackConfig, robust_accuracy
from robustdata.cli import cli_run
from robustdata.evaluation import EvalPlan, evaluate_dataset, model_factory
from robustdata.learning import (
    ALTERNATING,
    META_GRADIENT,
    RobustLearnConfig,
    adversarially_train_reference,
    baseline_adv_dataset,
    learn_robust_dataset,
)
from robustdata.models import TrainConfig, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample

from test_cli import SMALL_CONFIG

D = 20
ATTACK = AttackConfig(norm="linf", eps=0.4, steps=5)
TRAIN = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, epochs=3, batch_size=64, seed=4)

LEARNED = {
    ("linear", META_GRADIENT): "ad714eabc5854f1056bc2f32d1280e9d43fafa5b674d00226c7df85b981f9b86",
    ("linear", ALTERNATING): "95d22167573be2284ad7f9922fd4860db5eeae8ec858a0a498be32b1823c3d84",
    ("mlp:16", META_GRADIENT): "50f33e0d3a026c55df26a70d37bcb58c7f1f7d78b4eb64949ab36e350140a0b7",
    ("mlp:16", ALTERNATING): "10dcec109b885e89dc0d0f74268cc422ce75ac0db9d9e1c5ca6ab54b47352548",
}
TRAINED = {
    ("linear", "natural"): "d4c99cfcacf99e3300e7c61c8f8877386c969da3a6db8b0fd5ddc51b2eb67757",
    ("linear", "adversarial"): "27411dff0dd1dc60e86d2d346032213b84d0a258ac82a0f2ddb9b0202462af91",
    ("mlp:16", "natural"): "c7d3ccc9f1a388ddef950f8b5e0afde9eb6d9a213c512edd2ee1da360ac83e7e",
    ("mlp:16", "adversarial"): "205f3d77f8100dc267ae11330a6e9c530aae8d4c27f20be7a8e765eb4ecb8f0a",
}
ATTACKED = {
    ("linear", "l2"): (
        "a5e19b48582a68197ff16881c47fe8cfe605bc0326908dd52af54e80b234033d",
        "5ddbddb7899018b1efdd60284795c9abdbba321a5afc62112651123f0482f325",
    ),
    ("linear", "linf"): (
        "1dbadad37ea2bdad5d788e203ab5c75c408de7454b3e3a00961282218771f930",
        "5b3df5594693a66751a739a7d3f0ef9d686346185e66df594e2e9c9b8e1e4a50",
    ),
    ("mlp:16", "l2"): (
        "ace9638b3172f9c1ca098ac641b21d7e9ad2f4bf0c192274ac724b5d443a09fe",
        "1d24b9275820806bb852922dd04b0c616e3841ef09002d18464781bd1631495d",
    ),
    ("mlp:16", "linf"): (
        "0bc24a644ef53a6bd25a064c0c56eb32b1522bcc93bccc60f5a396e057bd5c95",
        "e248714990d3c2c7b3e7e2ddc2fe1e1cab1a15f72e8b0b4d1f3bedd6b6720f83",
    ),
}

# RunReport.canonical_bytes of evaluate_dataset on linear and mlp:16, 3 seeds, 2 budgets
EVALUATED = "7f2458e613906d505c94f4a49f3ccff5d4f0bb7d9b57a7cadaf4f6e3a969242b"

# theory_report.txt of theory-verify on test_cli.SMALL_CONFIG at --seed 0
THEORY_REPORT = "d915e07f83c8a8c6c32fc1cea26bac43a4fbd1f62153ad437dc696809b29716d"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def natural_data():
    return sample(DistributionSpec(d=D, mu=0.4, p=0.9), 300, RngStream(5).child(1))


@pytest.mark.parametrize("arch, mode", sorted(LEARNED))
def test_learned_dataset_digest(arch, mode):
    cfg = RobustLearnConfig(epochs=2, gamma=0.05, beta=0.01, attack=ATTACK, batch_size=64, theta0_seed=3, mode=mode)
    learned, trace = learn_robust_dataset(natural_data(), model_factory(arch, D + 1), cfg, RngStream(6))
    losses = [(t.clean_loss, t.adv_loss, t.update_norm) for t in trace]
    assert digest(learned.features, losses) == LEARNED[arch, mode]


@pytest.mark.parametrize("arch, kind", sorted(TRAINED))
def test_trained_parameters_digest(arch, kind):
    factory = model_factory(arch, D + 1)
    if kind == "natural":
        model, trace = sgd_train(factory(TRAIN.seed), natural_data(), TRAIN)
    else:
        model, trace = adversarially_train_reference(factory, natural_data(), ATTACK, TRAIN)
    assert digest(*model.params(), trace) == TRAINED[arch, kind]


def attacked_data():
    # more rows than one attack chunk, so the attack loop runs a second chunk
    return sample(DistributionSpec(d=D, mu=0.4, p=0.9), 5000, RngStream(5).child(2))


def attack_path_digests(arch, norm):
    """(digest of baseline_adv_dataset's features, digest of robust_accuracy)."""
    model, _ = sgd_train(model_factory(arch, D + 1)(TRAIN.seed), natural_data(), TRAIN)
    cfg = AttackConfig(norm=norm, eps=0.4, steps=5)
    data = attacked_data()
    adv = baseline_adv_dataset(model, data, cfg)
    rob = robust_accuracy(model, data, cfg)
    return digest(adv.features), digest([rob])


# the ids end in -False, for the natural start the digests were pinned with
@pytest.mark.parametrize("arch, norm", [pytest.param(a, n, id=f"{a}-{n}-False") for a, n in sorted(ATTACKED)])
def test_attack_path_digest(arch, norm):
    assert attack_path_digests(arch, norm) == ATTACKED[arch, norm]


def test_multi_seed_report_digest():
    # 300 rows in batches of 64 end in a partial batch; linear seeds train in lock-step
    test = sample(DistributionSpec(d=D, mu=0.4, p=0.9), 1000, RngStream(5).child(3))
    plan = EvalPlan(natural_data(), test, ["linear", "mlp:16"], [0, 1, 2], [0.2, 0.4], ATTACK, TRAIN)
    report = evaluate_dataset(plan, RngStream(0))
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == EVALUATED


def test_theory_report_digest(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    assert cli_run(["theory-verify", "--config", str(path), "--seed", "0", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "theory_report.txt").read_bytes()).hexdigest() == THEORY_REPORT
