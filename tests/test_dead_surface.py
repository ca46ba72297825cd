"""Every definition in ``src/repro/`` has a reader.

An AST pass lists each module-level function and class, and each method and
property, of ``src/repro/`` that no code in ``src/repro/`` reads.  A reader is
an ``ast.Name``, an ``ast.Attribute``, an imported name, a keyword argument or
a string constant that is an identifier (``getattr`` and registries); a
function under a decorator call (the ``register_middleware`` builders) is
read by the call.  Names are matched without their owner, so one reader of
``summary`` keeps every ``summary`` alive.  An import in an ``__init__.py``
and a name in ``__all__`` are re-exports, not readers; dunder methods are
read by the interpreter.

A definition nothing reads is either deleted or listed in ``ALLOWED`` with
one of three reasons:

* ``OUTSIDE`` - ``benchmarks/ledger/`` or ``examples/`` calls it;
* ``REFERENCE`` - a reference implementation a test compares against;
* ``PIN`` - a tier-1 pin or oracle has no other way to observe the fact.

The list may only shrink.  It fails when an entry gains a reader in
``src/repro/`` or disappears, and when its reason stops being true, so it
cannot go stale.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUTSIDE_DIRS = (ROOT / "benchmarks" / "ledger", ROOT / "examples")

OUTSIDE = "benchmarks/ledger/ or examples/ calls it"
REFERENCE = "a reference implementation a test compares against"
PIN = "a tier-1 pin or oracle has no other way to observe the fact"

#: Qualified name -> (reason, what reads it).  Only ever remove entries.
ALLOWED: Dict[str, Tuple[str, str]] = {
    "RequestCoordinator.timer_stats": (OUTSIDE, "ledger worker: timers.* metrics"),
    "RttEstimator.node_rtt_estimates": (OUTSIDE, "examples/middleware_variants.py"),
    "Simulator.add_trace_hook": (OUTSIDE, "ledger tracing: the event-mix hook"),
    "Simulator.queue_stats": (OUTSIDE, "ledger worker: engine.* metrics"),
    "NetworkModel.messages_sent": (OUTSIDE, "ledger worker: network.* metrics"),
    "NetworkModel.messages_dropped": (OUTSIDE, "ledger worker: network.dropped_frac"),
    "QueueingServer.total_busy_time": (OUTSIDE, "ledger worker: resources.* metrics"),
    "QueueingServer.mean_queue_delay": (OUTSIDE, "ledger worker: resources.* metrics"),
    "lognormal_from_mean_cv": (
        REFERENCE,
        "test_seed_identity: LognormalSampler draws what the per-call function drew",
    ),
    "Simulator.pending_events": (PIN, "kernel conservation: scheduled == fired + ... + pending"),
    "Simulator.run_until_empty": (PIN, "kernel and deadline tests drain the queue to quiescence"),
    "RandomStreams.known_streams": (PIN, "rule 3: a run opens no stream it did not open at seed"),
    "QueueingServer.effective_rate": (PIN, "fault and queueing-server oracles read the derived rate"),
    "QueueingServer.speed_factor": (PIN, "interference tests read the factor a tick wrote"),
    "NetworkModel.is_partitioned": (PIN, "partition faults install and heal exactly their pairs"),
    "MergeableHistogramSketch.bin_counts": (PIN, "sketch merges are exact, bin for bin"),
}

#: ``ALLOWED`` may only shrink: lower this with every entry removed.
ALLOWED_CEILING = 16

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEF_NODES = _FUNCTION_NODES + (ast.ClassDef,)
_ACCESSOR_DECORATORS = {"setter", "getter", "deleter"}


def _files(base: Path) -> List[Path]:
    return sorted(base.rglob("*.py"))


@lru_cache(maxsize=None)
def _definitions() -> Dict[str, str]:
    """Qualified name -> ``path:line`` of every definition the check covers."""
    found: Dict[str, str] = {}
    for path in _files(SRC):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(ROOT)
        for node in tree.body:
            if not isinstance(node, _DEF_NODES):
                continue
            found[node.name] = f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTION_NODES) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        found[f"{node.name}.{member.name}"] = f"{where}:{member.lineno}"
    return found


def _not_readers(tree: ast.Module) -> set:
    """ids of the nodes that name a definition without reading it."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node.value))
        if isinstance(node, _DEF_NODES):
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Attribute)
                    and decorator.attr in _ACCESSOR_DECORATORS
                ):
                    skipped.update(id(sub) for sub in ast.walk(decorator))
    return skipped


@lru_cache(maxsize=None)
def _read_names(bases: Tuple[Path, ...]) -> FrozenSet[str]:
    """Every name the code under ``bases`` reads."""
    names = set()
    for base in bases:
        for path in _files(base):
            tree = ast.parse(path.read_text(), str(path))
            reexports = path.name == "__init__.py"
            skipped = _not_readers(tree)
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                    names.update(alias.name.rpartition(".")[2] for alias in node.names)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                ):
                    names.add(node.value)
                elif isinstance(node, _FUNCTION_NODES) and any(
                    isinstance(decorator, ast.Call) for decorator in node.decorator_list
                ):
                    names.add(node.name)
    return frozenset(names)


def _unread() -> Dict[str, str]:
    """Definitions with no reader in ``src/repro/``."""
    read = _read_names((SRC,))
    return {
        name: where
        for name, where in _definitions().items()
        if name.rpartition(".")[2] not in read
    }


def test_every_definition_in_src_has_a_reader():
    dead = {name: where for name, where in _unread().items() if name not in ALLOWED}
    assert not dead, (
        "definitions nothing in src/repro/ reads - delete them with whatever "
        "only they use, or, if one of this file's three reasons holds, list "
        "them in ALLOWED with it:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(dead.items(), key=lambda i: i[1]))
    )


def test_allow_list_is_current_and_only_shrinks():
    assert len(ALLOWED) <= ALLOWED_CEILING, (
        f"ALLOWED has {len(ALLOWED)} entries against a ceiling of {ALLOWED_CEILING}: "
        "the list only shrinks - delete the new definition instead"
    )
    definitions = _definitions()
    unread = _unread()
    outside = _read_names(OUTSIDE_DIRS)
    stale = []
    for name, (reason, _) in sorted(ALLOWED.items()):
        bare = name.rpartition(".")[2]
        if name not in definitions:
            stale.append(f"{name}: no longer defined - remove the entry")
        elif name not in unread:
            stale.append(f"{name}: src/repro/ reads it now - remove the entry")
        elif (reason == OUTSIDE) != (bare in outside):
            stale.append(
                f"{name}: the reason {reason!r} is no longer true "
                f"({'a' if bare in outside else 'no'} reader in benchmarks/ledger/ or examples/)"
            )
    assert not stale, "stale ALLOWED entries:\n  " + "\n  ".join(stale)
    assert len(ALLOWED) == ALLOWED_CEILING, (
        f"ALLOWED shrank to {len(ALLOWED)}: lower ALLOWED_CEILING to match"
    )
