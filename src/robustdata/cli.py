"""Command-line surface tying the modules into reproducible runs.

Subcommands mirror the pipeline stages: `theory-verify` checks the
analytical results numerically, `learn` produces a robust dataset,
`baseline` produces the adversarial-data baselines, `evaluate` runs the
natural-training evaluation protocol over an architecture x seed x budget
grid, and `toy-fig2` reproduces the 2-D demonstration.

`cli_run` resolves the config, the seed (--seed, else RDS_SEED, else 0)
and the run's RngStream once and hands them to the subcommand.

Exit codes: 0 success, 1 validation/I-O failure, 2 theory-verify check
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .attacks import LINF, closed_form_linear_robust_accuracy
from .config import ExperimentConfig, _has_kind, _kind_name
from .datafile import atomic_write, read_dataset, write_csv, write_dataset
from .dataset import Dataset, subsample
from .errors import DataError, ParameterError
from .evaluation import EvalPlan, evaluate_dataset, figure2_toy, model_factory, report_tags
from .learning import (
    adversarially_train_reference,
    baseline_adv_dataset,
    learn_robust_dataset,
)
from .models import LinearClassifier, sgd_train
from .rng import RngStream
from .theory import (
    DistributionSpec,
    GAUSSIAN,
    GENERAL_SYMMETRIC,
    ROBUST_STAR,
    SymmetricLaw,
    closed_form_accuracies,
    corner_oracle_gap,
    natural_svm,
    sample,
    symmetric_sum_check,
    verify_weight_structure,
)

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="robustdata", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="seed override (also RDS_SEED)")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("theory-verify", help="numerically check the closed-form results")
    common(p)

    p = sub.add_parser("learn", help="learn a robust dataset")
    common(p)
    p.add_argument("--data", default=None, help="natural dataset file (default: generate)")

    p = sub.add_parser("baseline", help="adversarial-data baselines")
    common(p)
    p.add_argument("--data", default=None, help="natural dataset file (default: generate)")
    p.add_argument("--kind", choices=["natural", "robust"], default="natural",
                   help="source classifier: naturally or adversarially trained")

    p = sub.add_parser("evaluate", help="naturally train on a dataset and attack the result")
    common(p)
    p.add_argument("--data", default=None, help="dataset file to evaluate (default: generate natural)")

    p = sub.add_parser("toy-fig2", help="2-D robust-classifier demonstration")
    common(p)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RDS_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ParameterError(f"RDS_SEED must be an integer, got {env!r}") from None


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        return ExperimentConfig({})
    if not os.path.exists(args.config):
        raise FileNotFoundError(f"config file not found: {args.config}")
    return ExperimentConfig.from_file(args.config)


def _load_or_generate(args, cfg: ExperimentConfig, rng: RngStream) -> Dataset:
    if getattr(args, "data", None):
        if not os.path.exists(args.data):
            raise FileNotFoundError(f"dataset file not found: {args.data}")
        return read_dataset(args.data)
    section = cfg.section("distribution")
    ds = sample(cfg.distribution_spec(), section["n_train"], rng.child(100))
    ds.provenance["config_hash"] = cfg.config_hash()
    return ds


def _test_set(dataset: Dataset, cfg: ExperimentConfig, rng: RngStream) -> Dataset:
    """Clean-distribution test data; generation parameters travel in provenance.

    Only general-symmetric data records a tail law; every other dataset,
    robust-star included, is tested on the gaussian model. A recorded
    parameter of the wrong JSON kind is a DataError.
    """
    section = cfg.section("distribution")
    prov = dataset.provenance
    for key, kind in (("d", 0), ("mu", 0.0), ("p", 0.0), ("law", "")):
        if key in prov and not (_has_kind(prov[key], kind) or (key == "law" and prov[key] is None)):
            expected = _kind_name(kind) + (" or null" if key == "law" else "")
            raise DataError(f"dataset provenance {key} must be {expected}, got {json.dumps(prov[key])}")
    law = prov.get("law")
    spec = DistributionSpec(
        d=int(prov.get("d", section["d"])),
        mu=float(prov.get("mu", section["mu"])),
        p=float(prov.get("p", section["p"])),
        mode=GENERAL_SYMMETRIC if law else GAUSSIAN,
        law=law or "gaussian",
    )
    return sample(spec, section["n_test"], rng.child(101))


def _report(path, lines: list[str]) -> None:
    """Write key=value lines to `path` and print them."""
    atomic_write(path, ("\n".join(lines) + "\n").encode())
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_theory_verify(args, cfg: ExperimentConfig, seed: int, rng: RngStream) -> int:
    dist = cfg.section("distribution")
    spec = cfg.distribution_spec()
    attack = cfg.attack_config()
    if attack.norm != LINF:  # the closed forms it checks PGD against are l-inf
        raise ParameterError(f"theory-verify checks l-inf closed forms; attack.norm must be '{LINF}', got {attack.norm!r}")
    if spec.mode != GAUSSIAN:
        raise ParameterError(f"closed forms cover the gaussian model only; distribution.mode must be '{GAUSSIAN}', got {spec.mode!r}")

    lines = [f"config_hash={cfg.config_hash()}", f"seed={seed}"]
    checks: list[tuple[str, bool]] = []

    train = sample(spec, dist["n_train"], rng.child(1))
    test = sample(spec, dist["n_test"], rng.child(2))
    svm, nat, rob_pgd = natural_svm(train, test, cfg.train_config(seed), attack)
    rob_closed = closed_form_linear_robust_accuracy(svm, test, attack.eps)
    lines += [
        f"lemma1.natural_acc={nat:.4f}",
        f"lemma1.robust_acc_pgd={rob_pgd:.4f}",
        f"lemma1.robust_acc_closed={rob_closed:.4f}",
    ]
    checks.append(("lemma1.natural_acc>=0.98", nat >= 0.98))
    # the 0.2% robust-accuracy bound requires mu >= 4/sqrt(d) and p <= 0.975;
    # outside that premise the desk-scale separation level applies
    premise = spec.mu >= 4.0 / spec.d**0.5 and spec.p <= 0.975
    bound = 0.02 if premise else 0.1
    lines.append(f"lemma1.premise_holds={int(premise)}")
    checks.append((f"lemma1.robust_acc<={bound}", min(rob_pgd, rob_closed) <= bound))

    structure = verify_weight_structure(svm.w, spec.d)
    lines += structure.to_kv_lines("lemma1.weights")
    checks.append(("lemma1.tail_equal", structure.tail_equal))
    checks.append(("lemma1.nonnegative", structure.nonnegative))
    checks.append(("lemma1.ordering", structure.ordering))

    try:
        cf_nat, cf_rob = closed_form_accuracies(svm.w, spec, attack.eps)
    except ParameterError:  # weights outside the closed form's domain fail the check
        cf_nat = cf_rob = float("nan")
    lines += [f"lemma1.closed_form_natural={cf_nat:.4f}", f"lemma1.closed_form_robust={cf_rob:.4f}"]
    checks.append(("lemma1.closed_form_agrees", abs(cf_nat - nat) <= 0.01 and abs(cf_rob - rob_pgd) <= 0.01))

    star_spec = DistributionSpec(d=spec.d, mu=spec.mu, p=spec.p, mode=ROBUST_STAR)
    star_train = sample(star_spec, dist["n_train"], rng.child(4))
    star_svm, star_nat, star_rob = natural_svm(star_train, test, cfg.train_config(seed), attack.with_eps(0.5))
    lines += [f"theorem2.natural_acc={star_nat:.4f}", f"theorem2.robust_acc={star_rob:.4f}"]
    checks.append(("theorem2.natural_acc", abs(star_nat - spec.p) <= 0.02))
    checks.append(("theorem2.robust_acc", abs(star_rob - spec.p) <= 0.02))

    star_structure = verify_weight_structure(star_svm.w, spec.d)
    lines += star_structure.to_kv_lines("theorem1.weights")
    checks.append(("theorem1.tail_vanishing", star_structure.tail_vanishing))
    checks.append(("theorem1.w1_positive", star_structure.w1 > 0))

    lemma2_ok = corner_oracle_gap(rng.child(6), 100, 9, 1.0) <= 1e-9
    lines.append(f"lemma2.corner_oracle_ok={int(lemma2_ok)}")
    checks.append(("lemma2.corner_oracle", lemma2_ok))

    sym = symmetric_sum_check(
        [SymmetricLaw("gaussian", 0.3), SymmetricLaw("laplace", -0.2)], 10**6, rng.child(7)
    )
    lines += sym.to_kv_lines()
    checks.append(("symmetric_sum", sym.symmetric))

    # the separation extends to non-gaussian symmetric weak features
    for law in ("uniform", "laplace"):
        gen_spec = DistributionSpec(d=spec.d, mu=spec.mu, p=spec.p, mode=GENERAL_SYMMETRIC, law=law)
        gen_train = sample(gen_spec, dist["n_train"], rng.child(8))
        gen_test = sample(gen_spec, dist["n_test"], rng.child(9))
        gen_svm, _ = sgd_train(LinearClassifier.zeros(spec.d + 1), gen_train, cfg.train_config(seed))
        gen_rob = closed_form_linear_robust_accuracy(gen_svm, gen_test, attack.eps)
        star_rob_gen = closed_form_linear_robust_accuracy(star_svm, gen_test, min(attack.eps, 0.9))
        lines += [
            f"general.{law}.natural_model_robust_acc={gen_rob:.4f}",
            f"general.{law}.star_model_robust_acc={star_rob_gen:.4f}",
        ]
        checks.append((f"general.{law}.separation", star_rob_gen - gen_rob >= 0.5))

    for name, ok in checks:
        lines.append(f"check.{name}={'pass' if ok else 'fail'}")
    failed = [name for name, ok in checks if not ok]
    lines.append(f"verdict={'pass' if not failed else 'fail'}")

    os.makedirs(args.out, exist_ok=True)
    _report(os.path.join(args.out, "theory_report.txt"), lines)
    return 0 if not failed else 2


def cmd_learn(args, cfg: ExperimentConfig, seed: int, rng: RngStream) -> int:
    x_nat = _load_or_generate(args, cfg, rng)
    learn_cfg = cfg.robust_learn_config(seed)
    factory = model_factory(cfg.section("model")["arch"], x_nat.width)
    learned, trace = learn_robust_dataset(x_nat, factory, learn_cfg, rng.child(200))
    learned.provenance["config_hash"] = cfg.config_hash()

    os.makedirs(args.out, exist_ok=True)
    write_dataset(os.path.join(args.out, "robust_dataset.rds"), learned)
    write_csv(os.path.join(args.out, "learn_trace.csv"), ["epoch", "clean_loss", "adv_loss", "update_norm"],
              ([i, repr(t.clean_loss), repr(t.adv_loss), repr(t.update_norm)] for i, t in enumerate(trace)))
    print(f"wrote {os.path.join(args.out, 'robust_dataset.rds')}")
    return 0


def cmd_baseline(args, cfg: ExperimentConfig, seed: int, rng: RngStream) -> int:
    x_nat = _load_or_generate(args, cfg, rng)
    factory = model_factory(cfg.section("model")["arch"], x_nat.width)
    attack = cfg.attack_config()

    if args.kind == "natural":
        source, _ = sgd_train(factory(seed), x_nat, cfg.train_config(seed))
    else:
        source, _ = adversarially_train_reference(factory, x_nat, attack, cfg.train_config(seed))
    adv = baseline_adv_dataset(source, x_nat, attack)
    adv.provenance["config_hash"] = cfg.config_hash()
    adv.provenance["source_classifier"] = args.kind

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"adv_of_{args.kind}.rds")
    write_dataset(out_path, adv)
    print(f"wrote {out_path}")
    return 0


def cmd_evaluate(args, cfg: ExperimentConfig, seed: int, rng: RngStream) -> int:
    ev = cfg.section("eval")
    fractions = ev["subsample_fractions"]
    tags = report_tags(fractions)
    dataset = _load_or_generate(args, cfg, rng)
    test = _test_set(dataset, cfg, rng)

    os.makedirs(args.out, exist_ok=True)
    for fraction, tag in zip(fractions, tags):
        ds = dataset if fraction == 1.0 else subsample(dataset, fraction, rng.child(400))
        plan = EvalPlan(ds, test, ev["architectures"], ev["seeds"], ev["budgets"],
                        cfg.attack_config(), cfg.train_config())
        report = evaluate_dataset(plan, rng.child(401))
        report.provenance.update(config_hash=cfg.config_hash(), seed=seed, subsample_fraction=fraction)
        report.write_csv(os.path.join(args.out, f"report{tag}.csv"))
        report.write_json(os.path.join(args.out, f"report{tag}.json"))
        for cell in report.sorted_cells():
            print(
                f"arch={cell['arch']} seed={cell['seed']} budget={cell['budget']:g} "
                f"natural={cell['natural_acc']:.4f} robust={cell['robust_acc']:.4f}"
            )
    return 0


def cmd_toy_fig2(args, cfg: ExperimentConfig, seed: int, rng: RngStream) -> int:
    os.makedirs(args.out, exist_ok=True)
    result = figure2_toy(rng, csv_path=os.path.join(args.out, "fig2_points.csv"))
    lines = [f"config_hash={cfg.config_hash()}", f"seed={seed}"] + result.to_kv_lines()
    _report(os.path.join(args.out, "fig2_report.txt"), lines)
    return 0


_COMMANDS = {
    "theory-verify": cmd_theory_verify,
    "learn": cmd_learn,
    "baseline": cmd_baseline,
    "evaluate": cmd_evaluate,
    "toy-fig2": cmd_toy_fig2,
}


def cli_run(argv) -> int:
    """Parse argv and run one subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 64 via _Parser.error
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        cfg = _load_config(args)
        seed = _resolve_seed(args)
        return _COMMANDS[args.command](args, cfg, seed, RngStream(seed))
    # I/O errors, bad configs and data (ParameterError, FormatError, ... are ValueErrors)
    # and diverged runs (NonFiniteError is a FloatingPointError) all exit 1
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
