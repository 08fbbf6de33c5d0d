"""Guard against public library code that only tests reach.

Every top-level public ``def``/``class`` and every public module-level
assignment in ``src/repro`` (package ``__init__.py`` re-exports aside)
must be referenced, by a word-boundary match outside its own body,
somewhere in the code that runs the system:
``src/repro`` itself, ``benchmarks/``, ``examples/`` or ``perfbench/``.
A name that nothing there mentions is dead weight the tests keep alive;
delete it with its tests, or list it below with the reason a test needs
it.

This is a test rather than a ``repro lint`` rule because the lint engine
walks only the package, and a reference from ``benchmarks/``,
``examples/`` or ``perfbench/`` must count too.  The scan is textual,
so a mention in a comment or docstring counts as a reference: the guard
catches names nobody talks about, not every dead path.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "perfbench")

#: ``module::name`` -> why a test-only public name stays in the package
ALLOWED = {
    "autodiff/functional.py::mse_loss": (
        "regression loss the Linear/Adam and GCN training tests fit"
    ),
    "datasets/kg.py::random_knowledge_graph": (
        "small random KG fixture for the KG dataset and relation-ranking tests"
    ),
    "eval/aggregate.py::format_aggregates": (
        "report half of repeat_evaluation, kept for multi-seed fidelity cohorts"
    ),
    "eval/metrics.py::mean_reciprocal_rank": (
        "direct MRR oracle that evaluate_plan and sparse plans are checked against"
    ),
    "gnn/propagation.py::normalized_adjacency_power": (
        "explicit Â^k oracle for the sgc_propagate test"
    ),
    "graphs/generators.py::watts_strogatz_graph": (
        "ring-lattice input to the degree_gini test"
    ),
    "graphs/permutation.py::invert_permutation": (
        "undoes permute_graph in the permutation round-trip tests"
    ),
    "graphs/statistics.py::edge_overlap": (
        "structural-overlap oracle for the edge-perturbation tests"
    ),
    "ot/exact.py::emd_cost": "exact-LP objective oracle for the EMD tests",
    "ot/simplex.py::is_in_simplex": (
        "membership oracle for the simplex-projection tests"
    ),
    "ot/sinkhorn.py::transport_cost": (
        "objective oracle for the Sinkhorn ε → 0 convergence test"
    ),
}


WORD = re.compile(r"\w+")


def defined_names(node):
    """Names a top-level statement defines: a def/class name, or the
    plain-name targets of a module-level assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_definitions():
    """``(module::name key, name, mentions of the name in its own body)``
    per top-level public def/class or module-level assignment,
    decorators included in the body."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            body = "".join(lines[first - 1 : node.end_lineno])
            for name in defined_names(node):
                if name.startswith("_"):
                    continue
                key = f"{path.relative_to(PACKAGE).as_posix()}::{name}"
                yield key, name, WORD.findall(body).count(name)


def unreferenced_names():
    """Keys of the public definitions that no caller file mentions, as a
    whole word, outside their own body."""
    callers = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    for directory in CALLER_DIRS:
        callers.extend((ROOT / directory).rglob("*.py"))
    mentions = Counter()
    for path in callers:
        mentions.update(WORD.findall(path.read_text(encoding="utf-8")))
    return {
        key for key, name, own in public_definitions() if mentions[name] == own
    }


def test_every_public_name_is_reached_outside_tests():
    unreferenced = unreferenced_names()
    unexpected = sorted(unreferenced - set(ALLOWED))
    assert not unexpected, (
        "public definitions that only tests reach (delete them with their "
        "tests, or add them to ALLOWED with a reason): " + ", ".join(unexpected)
    )
    stale = sorted(set(ALLOWED) - unreferenced)
    assert not stale, (
        "ALLOWED entries that are referenced now or no longer exist "
        "(drop them from the allowlist): " + ", ".join(stale)
    )

