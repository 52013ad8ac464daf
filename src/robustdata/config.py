"""Experiment configuration: a strict JSON document with defaults.

Sections: distribution, model, train, attack, robust_learn, eval.
Every field is optional and falls back to the defaults below; unknown
keys anywhere are rejected, and a value must have its default's JSON
kind. The train, attack and robust_learn sections hold exactly the
fields of the object each builds (TrainConfig, AttackConfig,
RobustLearnConfig) apart from those its caller supplies. Building a
config range-checks every section, whichever subcommand reads it: the
distribution, train, attack and robust_learn sections build their objects,
both sample sizes are at least 1, model.arch and the eval architectures
parse, and the eval grid and
subsample fractions pass the checks evaluate applies. The config
hash is the first 16 hex digits of the SHA-256 of the fully-resolved
canonical document, so two documents that differ only in key order or
in spelling out defaults hash identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .attacks import AttackConfig
from .errors import ParameterError
from .models import TrainConfig
from .theory import DistributionSpec, check_sample_size

_DEFAULTS = {
    "distribution": {
        "d": 100,
        "mu": 0.4,
        "p": 0.9,
        "mode": "gaussian",
        "law": "gaussian",
        "n_train": 20000,
        "n_test": 10000,
    },
    "model": {
        "arch": "linear",
    },
    "train": {
        "lr": 0.01,
        "momentum": 0.9,
        "weight_decay": 1e-3,
        "epochs": 12,
        "batch_size": 128,
    },
    "attack": {
        "norm": "linf",
        "eps": 0.8,
        "alpha": None,  # eps / 10
        "steps": 10,
        "clamp": None,
    },
    "robust_learn": {
        "epochs": 50,
        "gamma": 0.05,
        "beta": 0.01,
        "batch_size": 128,
        "mode": "meta-gradient",
        "lam": 1e-3,
    },
    "eval": {
        "architectures": ["linear"],
        "seeds": [0],
        "budgets": [0.4, 0.8],
        "subsample_fractions": [1.0],
    },
}


@dataclass
class ExperimentConfig:
    doc: dict = field(default_factory=dict)

    def __post_init__(self):
        self.doc = _validate(self.doc)
        from .evaluation import check_grid, parse_arch, report_tags  # on use: keeps learning loaded after theory
        # every section is range-checked here, by the objects it builds, so that no
        # subcommand accepts a config (and writes its hash) that another rejects
        self.distribution_spec()
        for key in ("n_train", "n_test"):
            check_sample_size(self.doc["distribution"][key], f"distribution.{key}")
        self.train_config()
        self.robust_learn_config(0)  # builds attack_config() too
        parse_arch(self.doc["model"]["arch"])
        ev = self.doc["eval"]
        check_grid(ev["architectures"], ev["seeds"], ev["budgets"], self.attack_config())
        report_tags(ev["subsample_fractions"])

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls(json.load(f))

    def section(self, name: str) -> dict:
        return dict(self.doc[name])

    def config_hash(self) -> str:
        canonical = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # typed views -----------------------------------------------------------
    def distribution_spec(self) -> DistributionSpec:
        d = self.section("distribution")
        return DistributionSpec(d=d["d"], mu=d["mu"], p=d["p"], mode=d["mode"], law=d["law"])

    def train_config(self, seed: int = 0) -> TrainConfig:
        return TrainConfig(**self.section("train"), seed=seed)

    def attack_config(self) -> AttackConfig:
        a = self.section("attack")
        if a["clamp"] is not None:
            a["clamp"] = tuple(a["clamp"])
        return AttackConfig(**a)

    def robust_learn_config(self, seed: int = 0) -> "RobustLearnConfig":
        from .learning import RobustLearnConfig  # on use, as in __post_init__
        return RobustLearnConfig(**self.section("robust_learn"), attack=self.attack_config(), theta0_seed=seed)


# the kinds of the null defaults: alpha is a number, clamp a [lo, hi] pair of numbers
_NULL_KINDS = {("attack", "alpha"): 0.0, ("attack", "clamp"): (0.0, 0.0)}


def _has_kind(value, kind) -> bool:
    """Whether `value` has the JSON kind of `kind`: a float takes any number float64 holds
    (an integer float() would overflow on is refused), an int an integer, a list elements
    of its first element's kind, a tuple a list of its length; a bool is never a number."""
    if isinstance(value, bool):
        return False
    if isinstance(kind, tuple):
        return isinstance(value, list) and len(value) == len(kind) and all(map(_has_kind, value, kind))
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    if isinstance(kind, float):  # from 2**1024 - 2**970 on, an integer rounds to 2**1024: float() overflows
        return isinstance(value, float) or isinstance(value, int) and abs(value) < 2**1024 - 2**970
    return isinstance(value, type(kind))


_KIND_NAMES = {float: ("a number", "numbers"), int: ("an integer", "integers"), str: ("a string", "strings")}


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return f"a list of {len(kind)} numbers"
    if isinstance(kind, list):
        return f"a list of {_KIND_NAMES[type(kind[0])][1]}"
    return _KIND_NAMES[type(kind)][0]


def _validate(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ParameterError(f"unknown config sections: {sorted(unknown)}")
    resolved = {}
    for section, defaults in _DEFAULTS.items():
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ParameterError(f"config section {section!r} must be an object")
        bad = set(given) - set(defaults)
        if bad:
            raise ParameterError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        for key, value in given.items():
            kind = _NULL_KINDS.get((section, key), defaults[key])
            if not (_has_kind(value, kind) or (value is None and defaults[key] is None)):
                expected = _kind_name(kind) + (" or null" if defaults[key] is None else "")
                raise ParameterError(f"config value {section}.{key} must be {expected}, got {json.dumps(value)}")
        resolved[section] = {**defaults, **given}
    return resolved
