"""Layer boundaries, enforced with the stdlib ``ast`` — no lint deps.

Two contracts (mirrored in ``pyproject.toml``'s import-linter config,
which CI additionally runs on a runner that has the tool installed):

1. **Import layering** — lower layers must not import higher ones, even
   lazily inside functions.  In particular ``repro.core`` (and the other
   kernel layers) may never reach into ``sim``/``experiments``/``cli``/
   ``runtime``.  Inside ``core``, the cost model never imports the
   incremental evaluator that builds on it.
2. **One owner for run state** — the observer record (tracer /
   telemetry sink / profiler / metrics registry / placement ledger)
   lives in one context variable that only ``repro/obs/holder.py``
   touches; everything else pushes a record through
   :func:`repro.obs.holder.observing` (usually via
   :class:`repro.runtime.context.RunContext`), which restores the
   enclosing record on exit.  Besides it, the only context variable in
   the package is ``RunContext``'s own.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

#: layer -> layers it must NOT import (directly or lazily)
FORBIDDEN_IMPORTS: Dict[str, Set[str]] = {
    "utils": {
        "core", "algorithms", "workload", "network", "sim",
        "experiments", "cli", "runtime", "conformance", "analysis",
        "distributed", "io", "obs",
    },
    "obs": {
        "core", "algorithms", "workload", "network", "sim",
        "experiments", "cli", "runtime", "conformance", "analysis",
        "distributed", "io",
    },
    "core": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "algorithms", "io", "distributed",
    },
    "network": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "algorithms", "io", "distributed",
    },
    "workload": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "algorithms", "io", "distributed",
    },
    "algorithms": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "io", "distributed",
    },
    "analysis": {"experiments", "cli", "runtime", "conformance", "io"},
    "sim": {"experiments", "cli", "conformance", "io", "analysis"},
    "distributed": {
        "experiments", "cli", "conformance", "io", "analysis", "runtime",
    },
    "runtime": {"cli", "conformance", "experiments", "analysis", "io"},
}

#: module -> modules it must NOT import (directly or lazily)
FORBIDDEN_MODULE_IMPORTS: Dict[str, Set[str]] = {
    "core/cost.py": {"repro.core.incremental"},
}

#: the run-state context variables and the one module allowed to touch each
MUTATORS: Dict[str, str] = {
    "_OBSERVERS": "obs/holder.py",
    "_ACTIVE": "runtime/context.py",
}


def _modules() -> Iterator[Tuple[str, str, ast.AST]]:
    """Yield ``(relative_path, top_segment, parsed_tree)`` over src/repro."""
    for dirpath, _dirnames, filenames in sorted(os.walk(SRC)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, SRC)
            parts = rel.split(os.sep)
            segment = (
                parts[0][: -len(".py")] if len(parts) == 1 else parts[0]
            )
            with open(path, "r", encoding="utf-8") as fp:
                tree = ast.parse(fp.read(), filename=rel)
            yield rel, segment, tree


def _imported_modules(tree: ast.AST) -> Set[str]:
    """Every absolute module name the tree imports, at any depth."""
    modules: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                # ``from a.b import c`` may import the module ``a.b.c``
                modules.add(node.module)
                modules.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                )
    return modules


def _imported_repro_segments(tree: ast.AST) -> Set[str]:
    segments: Set[str] = set()
    for name in _imported_modules(tree):
        parts = name.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            segments.add(parts[1])
    return segments


def test_no_layer_imports_upward():
    violations = []
    for rel, segment, tree in _modules():
        forbidden = FORBIDDEN_IMPORTS.get(segment)
        if not forbidden:
            continue
        bad = _imported_repro_segments(tree) & forbidden
        if bad:
            violations.append(f"{rel} imports repro.{{{', '.join(sorted(bad))}}}")
    assert not violations, (
        "layering violations (lower layers importing upward):\n  "
        + "\n  ".join(violations)
    )


def test_no_module_imports_a_forbidden_module():
    violations = []
    for rel, _segment, tree in _modules():
        forbidden = FORBIDDEN_MODULE_IMPORTS.get(rel.replace(os.sep, "/"))
        if not forbidden:
            continue
        imported = _imported_modules(tree)
        bad = {
            module for module in forbidden
            if any(
                name == module or name.startswith(module + ".")
                for name in imported
            )
        }
        if bad:
            violations.append(f"{rel} imports {', '.join(sorted(bad))}")
    assert not violations, (
        "module-level layering violations:\n  " + "\n  ".join(violations)
    )


def _mutator_refs(tree: ast.AST) -> Set[str]:
    """Names of run-state variables the module reads, sets or resets."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        if name in MUTATORS:
            used.add(name)
    return used


def _context_var_modules() -> List[str]:
    """One entry per ``ContextVar(...)`` construction in the package."""
    modules: List[str] = []
    for rel, _segment, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if name == "ContextVar":
                modules.append(rel.replace(os.sep, "/"))
    return modules


def test_only_runtime_mutates_global_singletons():
    violations = []
    for rel, _segment, tree in _modules():
        for name in sorted(_mutator_refs(tree)):
            if rel.replace(os.sep, "/") == MUTATORS[name]:
                continue  # the variable's own defining module
            violations.append(f"{rel} touches {name}")
    assert not violations, (
        "run-state context variables touched outside their owner:\n  "
        + "\n  ".join(violations)
    )
    assert sorted(_context_var_modules()) == sorted(MUTATORS.values()), (
        "run state must live in the observer holder and RunContext only"
    )


def test_contracts_cover_every_package():
    """New top-level packages must take a position in the layer map."""
    segments = {segment for _rel, segment, _tree in _modules()}
    known = set(FORBIDDEN_IMPORTS) | {
        # deliberately unconstrained: entry points and leaf helpers
        "cli", "conformance", "experiments", "io",
        "errors", "version", "__init__", "py",
    }
    unknown = segments - known
    assert not unknown, (
        f"packages missing from the layering contract: {sorted(unknown)}; "
        f"add them to FORBIDDEN_IMPORTS (or the known-leaf list) in "
        f"tests/test_layering.py and pyproject.toml's import-linter config"
    )
