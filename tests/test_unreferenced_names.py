"""Guard against public library code that only tests reach.

Every top-level public ``def``/``class`` and every public module-level
assignment in ``src/repro`` (package ``__init__.py`` re-exports aside)
must be referenced, by a word-boundary match outside its own body,
somewhere in the code that runs the system:
``src/repro`` itself, ``benchmarks/``, ``examples/`` or ``perfbench/``.
A name that nothing there mentions is dead weight the tests keep alive;
delete it with its tests, or list it below with the reason a test needs
it.

The same code must also set every :class:`SLOTAlignConfig` field: each
field has to be passed as a keyword argument of some call there
(``SLOTAlignConfig(...)``, ``replace(...)``, a ``dict(...)`` profile).
A field no caller sets is a knob only tests turn; make it a constant of
the module that reads it, or list it below with the reason it stays.

These are tests rather than ``repro lint`` rules because the lint engine
walks only the package, and a reference from ``benchmarks/``,
``examples/`` or ``perfbench/`` must count too.  The name scan is
textual, so a mention in a comment or docstring counts as a reference:
the guard catches names nobody talks about, not every dead path.
"""

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

from repro.core.config import SLOTAlignConfig

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

#: ``SLOTAlignConfig`` field -> why it stays a field though no caller sets it
UNSET_FIELDS_ALLOWED: dict[str, str] = {}

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


def caller_files():
    """The package's modules (``__init__.py`` re-exports aside) and every
    file under the caller directories."""
    callers = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    for directory in CALLER_DIRS:
        callers.extend((ROOT / directory).rglob("*.py"))
    return callers


def unreferenced_names():
    """Keys of the public definitions that no caller file mentions, as a
    whole word, outside their own body."""
    mentions = Counter()
    for path in caller_files():
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



def keywords_passed():
    """Every keyword-argument name some call in a caller file passes."""
    names = set()
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def test_every_config_field_is_set_by_some_caller():
    fields = {spec.name for spec in dataclasses.fields(SLOTAlignConfig)}
    unset = fields - keywords_passed()
    unexpected = sorted(unset - set(UNSET_FIELDS_ALLOWED))
    assert not unexpected, (
        "SLOTAlignConfig fields no call in src/repro, benchmarks/, examples/ "
        "or perfbench/ sets (make each a module constant, or add it to "
        "UNSET_FIELDS_ALLOWED with a reason): " + ", ".join(unexpected)
    )
    stale = sorted(set(UNSET_FIELDS_ALLOWED) - unset)
    assert not stale, (
        "UNSET_FIELDS_ALLOWED entries that a caller sets now or that are no "
        "longer fields (drop them from the allowlist): " + ", ".join(stale)
    )
