"""Robust dataset learning: make natural training yield robust classifiers."""

from .attacks import AttackConfig, pgd_attack, project_to_ball, robust_accuracy
from .autodiff import Tensor, finite_diff_check, grad, unrolled_grad
from .config import ExperimentConfig
from .datafile import read_dataset, write_dataset
from .dataset import Dataset, subsample
from .evaluation import EvalPlan, RunReport, evaluate_dataset, figure2_toy
from .learning import (
    RobustLearnConfig,
    adversarially_train_reference,
    baseline_adv_dataset,
    learn_robust_dataset,
)
from .models import (
    LinearClassifier,
    MlpClassifier,
    TrainConfig,
    accuracy,
    cross_entropy,
    hinge_objective,
    sgd_train,
)
from .rng import RngStream
from .theory import (
    DistributionSpec,
    SymmetricLaw,
    closed_form_accuracies,
    optimal_linf_perturbation,
    sample,
    symmetric_sum_check,
    verify_weight_structure,
)

__all__ = [
    "AttackConfig",
    "Dataset",
    "DistributionSpec",
    "EvalPlan",
    "ExperimentConfig",
    "LinearClassifier",
    "MlpClassifier",
    "RngStream",
    "RobustLearnConfig",
    "RunReport",
    "SymmetricLaw",
    "Tensor",
    "TrainConfig",
    "accuracy",
    "adversarially_train_reference",
    "baseline_adv_dataset",
    "closed_form_accuracies",
    "cross_entropy",
    "evaluate_dataset",
    "figure2_toy",
    "finite_diff_check",
    "grad",
    "hinge_objective",
    "learn_robust_dataset",
    "optimal_linf_perturbation",
    "pgd_attack",
    "project_to_ball",
    "read_dataset",
    "robust_accuracy",
    "sample",
    "sgd_train",
    "subsample",
    "symmetric_sum_check",
    "unrolled_grad",
    "verify_weight_structure",
    "write_dataset",
]
