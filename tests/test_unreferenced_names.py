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

The front doors follow the same rule: every defaulted parameter of a
public method of :data:`FRONT_DOORS` must be passed by some call there.
A call counts when its callee is named like the method (like the class,
for the constructor), by keyword or, in a call without ``*args``, by
position.  The receiver's type is not resolved, so a same-named method
elsewhere can vouch for a parameter; ``pool.submit(fn, *args)`` vouches
for none by position.  :class:`DivideAndConquerAligner` also takes its
keywords as the string keys of a dict display, because the ``sparse``
backend forwards ``AlignmentEngine(backend_options=)`` to it as
``**options``.

These are tests rather than ``repro lint`` rules because the lint engine
walks only the package, and a reference from ``benchmarks/``,
``examples/`` or ``perfbench/`` must count too.  The name scan is
textual, so a mention in a comment or docstring counts as a reference:
the guard catches names nobody talks about, not every dead path.
"""

import ast
import dataclasses
import inspect
import re
from collections import Counter, defaultdict
from pathlib import Path

from repro.core import SLOTAlign
from repro.core.config import SLOTAlignConfig
from repro.engine import AlignmentEngine, PlanCache
from repro.scale import DivideAndConquerAligner
from repro.serve import AlignmentService

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

#: The classes through which callers reach the solver.
FRONT_DOORS = (
    AlignmentEngine, AlignmentService, SLOTAlign, DivideAndConquerAligner,
    PlanCache,
)

#: Front doors that also receive the string keys of a dict display as
#: keywords: the ``sparse`` backend's ``**options``
DICT_KEY_CALLEES = ("DivideAndConquerAligner",)

#: ``Class.method(parameter=)`` -> why a defaulted front-door parameter
#: stays though no caller passes it
UNPASSED_PARAMETERS_ALLOWED = {
    "PlanCache(max_bytes=)": (
        "deployment memory budget; tests shrink it to exercise eviction"
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


def front_door_parameters():
    """``(key, callee name, position or None, parameter name)`` per
    defaulted parameter of a public method (or the constructor) of a
    front door; the position counts after ``self`` and is None for a
    keyword-only parameter."""
    for cls in FRONT_DOORS:
        for method, function in vars(cls).items():
            if not inspect.isfunction(function) or (
                method.startswith("_") and method != "__init__"
            ):
                continue
            callee = cls.__name__ if method == "__init__" else method
            prefix = callee if method == "__init__" else f"{cls.__name__}.{method}"
            params = list(inspect.signature(function).parameters.values())[1:]
            for position, param in enumerate(params):
                if param.default is inspect.Parameter.empty:
                    continue
                if param.kind is param.KEYWORD_ONLY:
                    position = None
                elif param.kind is not param.POSITIONAL_OR_KEYWORD:
                    continue
                yield f"{prefix}({param.name}=)", callee, position, param.name


def calls_by_callee():
    """Per callee name: the keywords its calls pass, and the most
    positional arguments one of its calls without ``*args`` passes."""
    keywords, positional = defaultdict(set), Counter()
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                for callee in DICT_KEY_CALLEES:
                    keywords[callee].update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = getattr(func, "attr", getattr(func, "id", None))
            if callee is None:
                continue
            keywords[callee].update(kw.arg for kw in node.keywords if kw.arg)
            if not any(isinstance(arg, ast.Starred) for arg in node.args):
                positional[callee] = max(positional[callee], len(node.args))
    return keywords, positional


def unpassed_parameters():
    keywords, positional = calls_by_callee()
    return {
        key
        for key, callee, position, name in front_door_parameters()
        if name not in keywords[callee]
        and (position is None or positional[callee] <= position)
    }


def test_every_front_door_parameter_is_passed_by_some_caller():
    unpassed = unpassed_parameters()
    unexpected = sorted(unpassed - set(UNPASSED_PARAMETERS_ALLOWED))
    assert not unexpected, (
        "front-door parameters no call in src/repro, benchmarks/, examples/ "
        "or perfbench/ passes (delete them, or add them to "
        "UNPASSED_PARAMETERS_ALLOWED with a reason): " + ", ".join(unexpected)
    )
    stale = sorted(set(UNPASSED_PARAMETERS_ALLOWED) - unpassed)
    assert not stale, (
        "UNPASSED_PARAMETERS_ALLOWED entries that a caller passes now or that "
        "are no longer parameters (drop them from the allowlist): "
        + ", ".join(stale)
    )
