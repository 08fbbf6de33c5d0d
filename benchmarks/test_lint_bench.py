"""Lint-gate benchmark: the static-analysis pass must stay cheap.

The CI lint job runs before everything else and carries no pip cache,
so ``repro lint`` earning its keep depends on it staying a
seconds-not-minutes pass over the whole package.  This bench times a
full-tree run of the default rule set plus a pin regeneration into a
scratch file, emits ``BENCH_lint.json`` into ``$REPRO_BENCH_DIR``
(module count, finding count — asserted zero, the tree invariant — and
wall-clock), and prints the rule catalogue as the reproduction log.
"""

import json
import time

from repro.analysis import default_rules, iter_modules, run_lint
from repro.analysis.pins import update_pins
from repro.utils.benchdir import bench_path

from benchmarks.conftest import emit

BENCH_JSON = bench_path("BENCH_lint.json")

MAX_SECONDS = 30.0
"""Generous ceiling: the full-tree pass takes well under a second on a
laptop; the bound only exists to catch an accidental quadratic rule."""


def test_full_tree_lint_is_fast_and_clean(tmp_path):
    t0 = time.perf_counter()
    modules = iter_modules()
    findings = run_lint(modules=modules)
    lint_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    pins = update_pins(pins_path=tmp_path / "pins.json")
    update_seconds = time.perf_counter() - t1

    assert findings == [], "\n".join(f.format() for f in findings)
    assert pins, "no `#: pinned` definitions found"
    assert lint_seconds < MAX_SECONDS

    payload = {
        "modules": len(modules),
        "rules": [rule.rule_id for rule in default_rules()],
        "findings": len(findings),
        "pinned_definitions": len(pins),
        "lint_seconds": round(lint_seconds, 4),
        "update_pins_seconds": round(update_seconds, 4),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    catalogue = "\n".join(
        f"{rule.rule_id:12s} {rule.description}" for rule in default_rules()
    )
    emit(
        "repro lint (full tree)",
        f"{len(modules)} modules, {len(pins)} pinned definitions, "
        f"0 findings in {lint_seconds:.3f}s\n{catalogue}",
    )
