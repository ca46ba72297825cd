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

Three more passes hold the rest of the surface to the same terms:

* **unset settings** - a defaulted dataclass field or ``__init__`` parameter
  of ``src/repro/`` that no code in ``src/``, ``benchmarks/ledger/``,
  ``examples/`` or ``tests/`` sets.  A call that names the class (or a
  subclass, or ``super().__init__`` inside one) sets what it passes by
  position or keyword; a function that splats its own ``**`` parameter into
  such a call passes on the keywords it is called with; any other ``**``
  splat into it, or into a call naming no class of ``src/repro/`` (for every
  class its file names), sets each field its file names as a keyword or an
  identifier string; ``dataclasses.replace`` and an attribute store set a
  field by name, and a store through a field (``options.probe.interval =
  x``) sets it too.
  A setting nobody sets is a constant: fold it into one where it is used,
  or list it in ``ALLOWED_SETTINGS`` with one of the three reasons.
* **unread state** - a ``self.X`` attribute or dataclass field of
  ``src/repro/`` that nothing in ``src/repro/`` loads.  A load that is only
  the receiver of a call whose result is discarded (``self._sketch.observe(x)``)
  is not a read when every value the attribute is given is built from
  constants alone (a literal, or a call whose arguments are all constants):
  nothing outside it can see what it was fed.  Unread state goes, with any
  pure computation that fed only it, or is listed in ``ALLOWED_STATE`` with
  one of the three reasons (``OUTSIDE`` also covers a field the ledger or an
  example sets).
* **unused imports** - a name a module of ``src/repro/`` other than an
  ``__init__.py`` imports and never names.

Imports have no allow-list: an import nothing names has no reader to cite.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@lru_cache(maxsize=None)
def _definitions() -> Dict[str, str]:
    """Qualified name -> ``path:line`` of every definition the check covers."""
    found: Dict[str, str] = {}
    for path in _files(SRC):
        where = path.relative_to(ROOT)
        for node in _tree(path).body:
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
            tree = _tree(path)
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


def _allow_list_problems(
    name: str,
    allowed: Dict[str, Tuple[str, str]],
    ceiling: int,
    defined: Dict[str, str],
    flagged: Dict[str, str],
) -> List[str]:
    """Why ``allowed`` (listing ``flagged`` entries of ``defined``) is stale."""
    if len(allowed) > ceiling:
        return [
            f"{name} has {len(allowed)} entries against a ceiling of {ceiling}: "
            "the list only shrinks - delete the new entry's subject instead"
        ]
    outside = _read_names(OUTSIDE_DIRS)
    problems = []
    for entry, (reason, _) in sorted(allowed.items()):
        bare = entry.rpartition(".")[2]
        if entry not in defined:
            problems.append(f"{entry}: no longer defined - remove the entry")
        elif entry not in flagged:
            problems.append(f"{entry}: no longer flagged - remove the entry")
        elif (reason == OUTSIDE) != (bare in outside or entry in _set_settings(OUTSIDE_DIRS)):
            problems.append(
                f"{entry}: the reason {reason!r} is no longer true "
                f"({'a' if reason != OUTSIDE else 'no'} use in benchmarks/ledger/ or examples/)"
            )
    if not problems and len(allowed) < ceiling:
        problems.append(f"{name} shrank to {len(allowed)}: lower its ceiling to match")
    return problems


def test_allow_list_is_current_and_only_shrinks():
    problems = _allow_list_problems("ALLOWED", ALLOWED, ALLOWED_CEILING, _definitions(), _unread())
    assert not problems, "stale ALLOWED:\n  " + "\n  ".join(problems)


# ----------------------------------------------------------------------
# Settings, state and imports
# ----------------------------------------------------------------------
SETTERS = (ROOT / "src", *OUTSIDE_DIRS, ROOT / "tests")

#: ``Class.parameter`` -> (reason, what reads it).  Only ever remove entries.
ALLOWED_SETTINGS: Dict[str, Tuple[str, str]] = {
    "CoordinatorConfig.operation_timeout": (
        OUTSIDE,
        "ledger worker: waits out twice the timeout before counting outcomes",
    ),
}

#: ``ALLOWED_SETTINGS`` may only shrink: lower this with every entry removed.
ALLOWED_SETTINGS_CEILING = 1

#: ``Class.attribute`` -> (reason, what reads it).  Only ever remove entries.
ALLOWED_STATE: Dict[str, Tuple[str, str]] = {
    "RequestCoordinator.hinted_writes": (OUTSIDE, "ledger worker: hinted_writes_per_kop"),
    "RequestCoordinator.hedged_reads": (OUTSIDE, "ledger worker: hedged_reads_frac"),
    "RequestContext.requested_level": (OUTSIDE, "ledger layer driver builds a context by keyword"),
    "VersionedValue.write_id": (OUTSIDE, "ledger layer driver builds versions by position"),
    "RequestCoordinator.reads_started": (PIN, "the request-path digests hash the coordinator's counters"),
    "RequestCoordinator.writes_started": (PIN, "the request-path digests hash the coordinator's counters"),
    "OperationResult.replicas_responded": (PIN, "quorum and hedging tests count each operation's answers"),
    "ReadAfterWriteProber.probes_started": (
        PIN,
        "prober tests count probe writes; operations_issued() also counts reads still in flight",
    ),
}

#: ``ALLOWED_STATE`` may only shrink: lower this with every entry removed.
ALLOWED_STATE_CEILING = 8

_Param = Tuple[str, bool, int]  # name, has a default, line


class _Class(NamedTuple):
    where: str
    bases: Tuple[str, ...]
    dataclass: bool
    fields: Tuple[_Param, ...]
    init: Optional[Tuple[_Param, ...]]  # its own ``__init__``'s parameters


def _trees(bases: Tuple[Path, ...]) -> List[ast.Module]:
    return [_tree(path) for base in bases for path in _files(base)]


def _last_name(node: ast.AST) -> str:
    """``C`` for ``C`` and ``module.C``; empty for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _last_name(decorator.func if isinstance(decorator, ast.Call) else decorator) == "dataclass"
        for decorator in node.decorator_list
    )


def _fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    return [
        member
        for member in node.body
        if isinstance(member, ast.AnnAssign)
        and isinstance(member.target, ast.Name)
        and "ClassVar" not in ast.unparse(member.annotation)
    ]


@lru_cache(maxsize=None)
def _bound_helpers() -> Dict[str, int]:
    """Each bound helper of ``repro.cluster.errors`` taking a ``default`` -> its position."""
    found = {}
    for node in _tree(SRC / "cluster" / "errors.py").body:
        if isinstance(node, ast.FunctionDef):
            params = [arg.arg for arg in node.args.args]
            if "default" in params:
                found[node.name] = params.index("default")
    return found


def _field_keywords(value: Optional[ast.expr]) -> Optional[Dict[str, ast.expr]]:
    """The keywords of a ``field(...)`` default, ``None`` for any other.  A
    bound helper (``positive(1.0)``, ``at_least(1)``) is a ``field`` that has
    a default only when it is passed one."""
    if isinstance(value, ast.Call) and _last_name(value.func) == "field":
        return {keyword.arg: keyword.value for keyword in value.keywords if keyword.arg}
    if isinstance(value, ast.Call) and _last_name(value.func) in _bound_helpers():
        position = _bound_helpers()[_last_name(value.func)]
        passed = len(value.args) > position or any(k.arg == "default" for k in value.keywords)
        return {"default": value} if passed else {}
    return None


def _init_params(node: ast.ClassDef) -> Optional[Tuple[_Param, ...]]:
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            args = member.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            params = [
                (arg.arg, index >= first_default, arg.lineno)
                for index, arg in enumerate(positional)
            ][1:]
            params += [
                (arg.arg, default is not None, arg.lineno)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            ]
            return tuple(params)
    return None


@lru_cache(maxsize=None)
def _classes() -> Dict[str, _Class]:
    found: Dict[str, _Class] = {}
    for path in _files(SRC):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = []
            dataclass = _is_dataclass(node)
            if dataclass:
                for member in _fields(node):
                    keywords = _field_keywords(member.value)
                    if keywords is None:
                        fields.append((member.target.id, member.value is not None, member.lineno))
                    elif not (
                        isinstance(keywords.get("init"), ast.Constant) and keywords["init"].value is False
                    ):
                        defaulted = "default" in keywords or "default_factory" in keywords
                        fields.append((member.target.id, defaulted, member.lineno))
            found[node.name] = _Class(
                f"{path.relative_to(ROOT)}",
                tuple(_last_name(base) for base in node.bases),
                dataclass,
                tuple(fields),
                _init_params(node),
            )
    return found


@lru_cache(maxsize=None)
def _signature(name: str) -> Tuple[Tuple[str, str], ...]:
    """(owner, parameter) in the order a call naming class ``name`` takes them."""
    cls = _classes().get(name)
    if cls is None:
        return ()
    if cls.init is not None:
        return tuple((name, param) for param, _, _ in cls.init)
    inherited: Tuple[Tuple[str, str], ...] = next(
        (signature for signature in map(_signature, cls.bases) if signature), ()
    )
    if not cls.dataclass:
        return inherited
    own = [param for param, _, _ in cls.fields]
    return tuple(entry for entry in inherited if entry[1] not in own) + tuple(
        (name, param) for param in own
    )


@lru_cache(maxsize=None)
def _settings() -> Dict[str, str]:
    """``Class.parameter`` -> ``path:line`` of every defaulted setting."""
    found = {}
    for name, cls in _classes().items():
        own = cls.init if cls.init is not None else (cls.fields if cls.dataclass else ())
        for param, defaulted, line in own:
            if defaulted:
                found[f"{name}.{param}"] = f"{cls.where}:{line}"
    return found


def _forwarders(trees: List[ast.Module]) -> Dict[str, FrozenSet[str]]:
    """Function name -> the classes its own ``**`` parameter reaches."""
    direct: Dict[str, set] = {}
    for tree in trees:
        for function in ast.walk(tree):
            if not (isinstance(function, _FUNCTION_NODES) and function.args.kwarg):
                continue
            for call in ast.walk(function):
                if isinstance(call, ast.Call) and any(
                    keyword.arg is None
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == function.args.kwarg.arg
                    for keyword in call.keywords
                ):
                    direct.setdefault(function.name, set()).add(_last_name(call.func))

    def reach(name: str, seen: FrozenSet[str]) -> FrozenSet[str]:
        found = set()
        for callee in direct.get(name, ()):
            if callee in _classes():
                found.add(callee)
            elif callee not in seen:
                found |= reach(callee, seen | {name})
        return frozenset(found)

    return {name: reach(name, frozenset()) for name in direct}


def _super_calls(tree: ast.Module) -> Dict[int, Tuple[str, ...]]:
    """id of each ``super().__init__(...)`` call -> its class's bases."""
    found = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for call in ast.walk(cls):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__init__"
                    and isinstance(call.func.value, ast.Call)
                    and _last_name(call.func.value.func) == "super"
                ):
                    found[id(call)] = tuple(_last_name(base) for base in cls.bases)
    return found


def _names(tree: ast.Module) -> set:
    return {_last_name(node) for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _identifiers(tree: ast.Module) -> set:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }


@lru_cache(maxsize=None)
def _set_settings(bases: Tuple[Path, ...] = SETTERS) -> FrozenSet[str]:
    """Every ``Class.parameter`` some call, splat, ``replace`` or store in
    the code under ``bases`` sets."""
    trees = _trees(bases)
    forwarders = _forwarders(trees)
    dataclass_fields: Dict[str, List[str]] = {}
    for name, cls in _classes().items():
        if cls.dataclass and cls.init is None:
            for param, _, _ in cls.fields:
                dataclass_fields.setdefault(param, []).append(f"{name}.{param}")
    found = set()
    for tree in trees:
        supers = _super_calls(tree)
        named = _identifiers(tree) | {
            node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg
        }
        named_classes = tuple(name for name in _names(tree) if name in _classes())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                # ``options.probe.interval = x`` sets ``interval`` and, by
                # changing the value it holds, ``probe``.
                for link in ast.walk(node):
                    if isinstance(link, ast.Attribute):
                        found.update(dataclass_fields.get(link.attr, ()))
            if not isinstance(node, ast.Call):
                continue
            callee = _last_name(node.func)
            keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
            if callee == "replace":
                for keyword in keywords:
                    found.update(dataclass_fields.get(keyword, ()))
            for target in forwarders.get(callee, ()):
                found.update(
                    f"{owner}.{param}" for owner, param in _signature(target) if param in keywords
                )
            targets = supers.get(id(node), (callee,))
            splatted = named if len(keywords) < len(node.keywords) else set()
            if splatted and callee not in _classes():
                targets += named_classes
            for target in targets:
                signature = _signature(target)
                positional = len(node.args)
                for index, argument in enumerate(node.args):
                    if isinstance(argument, ast.Starred):
                        positional = index
                        break
                found.update(f"{owner}.{param}" for owner, param in signature[:positional])
                found.update(
                    f"{owner}.{param}"
                    for owner, param in signature
                    if param in keywords or param in splatted
                )
    return frozenset(found)


def _unset_settings() -> Dict[str, str]:
    return {name: where for name, where in _settings().items() if name not in _set_settings()}


def test_every_setting_in_src_is_set_somewhere():
    unset = {name: where for name, where in _unset_settings().items() if name not in ALLOWED_SETTINGS}
    assert not unset, (
        "defaulted settings nothing in src/, benchmarks/ledger/, examples/ or "
        "tests/ sets - fold each into a module constant where it is used, "
        "keeping its value, or, if one of this file's three reasons holds, "
        "list them in ALLOWED_SETTINGS with it:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(unset.items(), key=lambda i: i[1]))
    )


def test_settings_allow_list_is_current_and_only_shrinks():
    problems = _allow_list_problems(
        "ALLOWED_SETTINGS", ALLOWED_SETTINGS, ALLOWED_SETTINGS_CEILING, _settings(), _unset_settings()
    )
    assert not problems, "stale ALLOWED_SETTINGS:\n  " + "\n  ".join(problems)


def _built_from_constants(node: ast.AST) -> bool:
    """A literal, or a call whose arguments are all built from constants."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return all(map(_built_from_constants, node.elts))
    if isinstance(node, ast.Dict):
        return all(map(_built_from_constants, [*filter(None, node.keys), *node.values]))
    if isinstance(node, ast.UnaryOp):
        return _built_from_constants(node.operand)
    if isinstance(node, ast.Call):
        return all(map(_built_from_constants, [*node.args, *(k.value for k in node.keywords)]))
    return False


@lru_cache(maxsize=None)
def _state() -> Dict[str, str]:
    """``Class.attribute`` -> ``path:line`` of every field and ``self.X`` store."""
    found: Dict[str, str] = {}
    for path in _files(SRC):
        where = path.relative_to(ROOT)
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                for member in _fields(cls):
                    found.setdefault(f"{cls.name}.{member.target.id}", f"{where}:{member.lineno}")
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    found.setdefault(f"{cls.name}.{node.attr}", f"{where}:{node.lineno}")
    return found


@lru_cache(maxsize=None)
def _loaded_names() -> FrozenSet[str]:
    """Every attribute name ``src/repro/`` reads, by load or by string."""
    trees = _trees((SRC,))
    fields = {
        member.target.id
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for member in _fields(cls)
    }
    stored: Dict[str, List[ast.expr]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        stored.setdefault(target.attr, []).append(node.value)
    sinks = {
        name
        for name, values in stored.items()
        if name not in fields and all(map(_built_from_constants, values))
    }
    names = set()
    for tree in trees:
        skipped = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and isinstance(node.value.func.value, ast.Attribute)
                and node.value.func.value.attr in sinks
            ):
                skipped.add(id(node.value.func.value))
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id in ("__all__", "__slots__")
                for target in node.targets
            ):
                skipped.update(id(sub) for sub in ast.walk(node.value))
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return frozenset(names)


def _unread_state() -> Dict[str, str]:
    loaded = _loaded_names()
    return {
        name: where
        for name, where in _state().items()
        if name.rpartition(".")[2] not in loaded
    }


def test_every_attribute_in_src_is_read():
    dead = {name: where for name, where in _unread_state().items() if name not in ALLOWED_STATE}
    assert not dead, (
        "attributes and fields nothing in src/repro/ reads - delete them with "
        "whatever pure computation fed only them, or, if one of this file's "
        "three reasons holds, list them in ALLOWED_STATE with it:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(dead.items(), key=lambda i: i[1]))
    )


def test_state_allow_list_is_current_and_only_shrinks():
    problems = _allow_list_problems(
        "ALLOWED_STATE", ALLOWED_STATE, ALLOWED_STATE_CEILING, _state(), _unread_state()
    )
    assert not problems, "stale ALLOWED_STATE:\n  " + "\n  ".join(problems)


def _unused_imports(tree: ast.Module) -> List[Tuple[int, str]]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _strings(tree):
        try:
            annotation = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(node.id for node in ast.walk(annotation) if isinstance(node, ast.Name))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def _strings(tree: ast.Module) -> List[str]:
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_no_module_in_src_imports_a_name_it_never_uses():
    unused = [
        f"  {path.relative_to(ROOT)}:{line}  {name}"
        for path in _files(SRC)
        if path.name != "__init__.py"
        for line, name in _unused_imports(_tree(path))
    ]
    assert not unused, "imports nothing in their module names - remove them:\n" + "\n".join(unused)
