"""Spans and exact counts recorded from outside the robustdata package.

The package is never edited: a traced pass replaces module attributes
(`learning.pgd_attack`, `autodiff.backward`, ...) with wrappers that
record a span, and puts the originals back when the pass ends. Spans are
held in memory as [name, start, end, parent, note] and written once.

Two clocks drive the same wrappers. The timing pass reads
`time.perf_counter`; the counts pass reads the number of tape tensors
created so far, so a span's "duration" there is the number of tensors
created inside it. Counting tensors slows the tape by about a third, so
counts never come from a timing pass.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time


class BenchError(RuntimeError):
    """The traced program did not behave as the span analysis expects."""


class Tracer:
    """In-memory span recorder; one per traced pass or group of passes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        """`fn` recording a span per call; `observe(args, result)` fills the note."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
            if observe is not None:
                spans[i][4] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][2] = self.clock()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


def layer_targets(pkg) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped layer boundary.

    A function imported into two modules is wrapped under both names, since
    each caller looks it up in its own module, but both record one span name.
    """
    return [
        (pkg.learning, "learn_robust_dataset", "learning.learn_robust_dataset"),
        (pkg.learning, "batch_loss_graph", "models.batch_loss_graph"),
        (pkg.models, "batch_loss_graph", "models.batch_loss_graph"),
        (pkg.learning, "pgd_attack", "attacks.pgd_attack"),
        (pkg.attacks, "pgd_attack", "attacks.pgd_attack"),
        (pkg.attacks, "attack_gradient", "attacks.attack_gradient"),
        (pkg.autodiff, "backward", "autodiff.backward"),
        (pkg.evaluation, "evaluate_dataset", "evaluation.evaluate_dataset"),
        (pkg.evaluation, "sgd_train", "models.sgd_train"),
        (pkg.evaluation, "robust_accuracy", "attacks.robust_accuracy"),
        (pkg.datafile, "write_dataset", "datafile.write_dataset"),
        (pkg.theory, "sample", "theory.sample"),
    ]


def patch_points(pkg) -> list[tuple[object, str, object]]:
    """(owner, attribute, current value) of everything a traced pass may replace."""
    points = [(owner, attr) for owner, attr, _ in layer_targets(pkg)] + [(pkg.autodiff.Tensor, "__init__")]
    return [(owner, attr, vars(owner)[attr]) for owner, attr in points]


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value); restore every original on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def timing_wrappers(pkg, tracer: Tracer):
    return [(owner, attr, tracer.wrap(name, getattr(owner, attr))) for owner, attr, name in layer_targets(pkg)]


class TapeCounter:
    """Exact counts for the counts pass: tensors, adjoint edges, attack rows."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.tensors = 0
        self.tracer = Tracer(clock=lambda: self.tensors)

    def wrappers(self):
        pkg = self.pkg
        observers = {
            "autodiff.backward": lambda args, result: adjoint_edges(args[0], args[1]),
            "attacks.attack_gradient": lambda args, result: len(args[2]),
            "attacks.pgd_attack": self._attack_outcome,
        }
        out = [
            (owner, attr, self.tracer.wrap(name, getattr(owner, attr), observers.get(name)))
            for owner, attr, name in layer_targets(pkg)
        ]
        init = pkg.autodiff.Tensor.__init__

        def counted_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        return out + [(pkg.autodiff.Tensor, "__init__", counted_init)]

    def _attack_outcome(self, args, x_adv):
        """(rows misclassified after the attack, rows attacked) of one PGD call."""
        model, y = args[0], args[2]
        predicted = model.predict(x_adv)
        if hasattr(model, "num_classes"):  # labels may arrive as {-1,+1} or as class indices
            k = model.num_classes
            fooled = self.pkg.models.class_indices(predicted, k) != self.pkg.models.class_indices(y, k)
        else:
            fooled = predicted != y
        return int(fooled.sum()), len(y)


def adjoint_edges(output, inputs) -> tuple[int, int]:
    """(useful, computed) adjoint edges of one `backward(output, inputs)` call.

    `backward` visits nodes in reverse topological order and, for every node
    that has an adjoint and a vjp, computes one adjoint per parent. An edge is
    useful when its parent lies on a path to a requested input. Every
    primitive on the package's loss and attack graphs returns an adjoint for
    each parent, so counting parents counts computed edges.
    """
    order, seen = [], set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    wanted = {id(t) for t in inputs}
    reaches = set()
    for node in order:  # parents come before children
        if id(node) in wanted or any(id(p) in reaches for p in node._parents):
            reaches.add(id(node))
    has_adjoint = {id(output)}
    useful = computed = 0
    for node in reversed(order):
        if id(node) not in has_adjoint or node._vjp is None:
            continue
        for parent in node._parents:
            computed += 1
            has_adjoint.add(id(parent))
            useful += id(parent) in reaches
    return useful, computed


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.kids = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.kids[s[3]].append(i)

    def named(self, name, roots=None) -> list[int]:
        """Indices of spans called `name`, optionally only below `roots`."""
        if roots is None:
            return [i for i, s in enumerate(self.spans) if s[0] == name]
        out, stack = [], list(roots)
        while stack:
            i = stack.pop()
            if self.spans[i][0] == name:
                out.append(i)
            stack.extend(self.kids[i])
        return sorted(out)

    def length(self, i) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def total(self, indices) -> float:
        return sum(self.length(i) for i in indices)

    def batches(self, learn_span) -> list[dict]:
        """Split one learner span into batches by the order of its children.

        A batch opens at its step-1 `batch_loss_graph` call; step 2 is the
        `pgd_attack` span; the first loss graph after it is step 3's, and the
        next one opens the following batch.
        """
        out, state = [], "open"
        for k in self.kids[learn_span]:
            name, start, end = self.spans[k][:3]
            if name == "models.batch_loss_graph" and state in ("open", "step3"):
                if out:
                    out[-1]["end"] = start
                out.append({"start": start, "backward": []})
                state = "step1"
            elif name == "models.batch_loss_graph" and state == "step2":
                state = "step3"
            elif name == "attacks.pgd_attack" and state == "step1":
                out[-1]["pgd"] = (start, end)
                state = "step2"
            elif name == "autodiff.backward" and out:
                out[-1]["backward"].append(k)
            else:
                raise BenchError(f"unexpected span {name!r} in learner state {state!r}")
        if out:
            if state != "step3":
                raise BenchError(f"learner span ended in state {state!r}")
            out[-1]["end"] = self.spans[learn_span][2]
        return out


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def timing_metrics(tree: SpanTree) -> dict[str, float]:
    """Per-layer times from a timing pass, in ms unless the name says share or s."""
    passes = tree.named("bench.pass")
    batches = [b for L in tree.named("learning.learn_robust_dataset", passes) for b in tree.batches(L)]
    totals = [b["end"] - b["start"] for b in batches]
    pgd = tree.named("attacks.pgd_attack", passes)
    evals = tree.named("evaluation.evaluate_dataset")
    sgd = tree.named("models.sgd_train")
    ms = 1e3
    return {
        "learning.batch_ms_p50": statistics.median(totals) * ms if totals else 0.0,
        "learning.batch_ms_p90": statistics.quantiles(totals, n=10)[8] * ms if len(totals) > 1 else 0.0,
        "learning.step1_ms": _mean([b["pgd"][0] - b["start"] for b in batches]) * ms,
        "learning.step2_ms": _mean([b["pgd"][1] - b["pgd"][0] for b in batches]) * ms,
        "learning.step3_ms": _mean([b["end"] - b["pgd"][1] for b in batches]) * ms,
        "attacks.pgd_step_ms": _ratio(tree.total(pgd), len(tree.named("attacks.attack_gradient", pgd))) * ms,
        "attacks.pgd_share": _ratio(tree.total(pgd), tree.total(passes)),
        "models.loss_graph_ms": _mean([tree.length(i) for i in tree.named("models.batch_loss_graph", passes)]) * ms,
        "models.sgd_step_ms": _ratio(tree.total(sgd), len(tree.named("models.batch_loss_graph", sgd))) * ms,
        "autodiff.backward_ms": _mean([tree.length(i) for i in tree.named("autodiff.backward", passes)]) * ms,
        "autodiff.meta_backward_ms": _mean([tree.length(b["backward"][-1]) for b in batches]) * ms,
        "evaluation.train_share": _ratio(tree.total(tree.named("models.sgd_train", evals)), tree.total(evals)),
        "evaluation.attack_share": _ratio(tree.total(tree.named("attacks.robust_accuracy", evals)), tree.total(evals)),
        "datafile.write_ms": _mean([tree.length(i) for i in tree.named("datafile.write_dataset", passes)]) * ms,
        "theory.sample_s": tree.total(tree.named("theory.sample", tree.named("bench.setup"))),
    }


def exact_counts(tree: SpanTree) -> dict[str, int]:
    """Integer counts of one counts pass; two passes must agree exactly."""
    passes = tree.named("bench.pass")
    learns = tree.named("learning.learn_robust_dataset", passes)
    sgd = tree.named("models.sgd_train")
    backward = tree.named("autodiff.backward", passes)
    gradients = tree.named("attacks.attack_gradient", passes)
    attacks = tree.named("attacks.pgd_attack")
    batches = [b for L in learns for b in tree.batches(L)]
    meta = [b["backward"][-1] for b in batches]
    notes = tree.spans
    return {
        "learner_batches": len(batches),
        "learner_tensors": int(tree.total(learns)),
        "learner_backward_calls": len(tree.named("autodiff.backward", learns)),
        "sgd_steps": len(tree.named("models.batch_loss_graph", sgd)),
        "sgd_tensors": int(tree.total(sgd)),
        "gradient_calls": len(gradients),
        "gradient_rows": sum(notes[i][4] for i in gradients),
        "useful_edges": sum(notes[i][4][0] for i in backward),
        "computed_edges": sum(notes[i][4][1] for i in backward),
        "meta_useful_edges": sum(notes[i][4][0] for i in meta),
        "meta_computed_edges": sum(notes[i][4][1] for i in meta),
        "attacked_rows": sum(notes[i][4][1] for i in attacks),
        "fooled_rows": sum(notes[i][4][0] for i in attacks),
    }


def count_metrics(c: dict[str, int]) -> dict[str, float]:
    return {
        "attacks.gradient_calls": c["gradient_calls"],
        "attacks.rows_per_call": _ratio(c["gradient_rows"], c["gradient_calls"]),
        "attacks.success_rate": _ratio(c["fooled_rows"], c["attacked_rows"]),
        "autodiff.backward_calls_per_batch": _ratio(c["learner_backward_calls"], c["learner_batches"]),
        "autodiff.tensors_per_batch": _ratio(c["learner_tensors"], c["learner_batches"]),
        "autodiff.tensors_per_sgd_step": _ratio(c["sgd_tensors"], c["sgd_steps"]),
        "autodiff.useful_edge_share": _ratio(c["useful_edges"], c["computed_edges"]),
        "autodiff.meta_useful_edge_share": _ratio(c["meta_useful_edges"], c["meta_computed_edges"]),
    }
