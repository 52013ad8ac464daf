"""Bit-exact digests of the learner and of both training loops.

The digests were computed once and are pinned here, so any change to the
meta-gradient, the SGD loop, the loss or attack tapes, or the order of
random draws shows up as a mismatch, in both learner modes and on both
model families. The benchmark's reference pass covers only the
meta-gradient mode at seed 0.
"""

import hashlib

import numpy as np
import pytest

from robustdata.attacks import AttackConfig
from robustdata.evaluation import model_factory
from robustdata.learning import (
    ALTERNATING,
    META_GRADIENT,
    RobustLearnConfig,
    adversarially_train_reference,
    learn_robust_dataset,
)
from robustdata.models import TrainConfig, sgd_train
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample

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
        model, trace = adversarially_train_reference(factory, natural_data(), ATTACK, TRAIN, RngStream(7))
    assert digest(*model.params(), trace) == TRAINED[arch, kind]
