"""Every definition in ``src/repro/`` has a reader.

An AST pass lists each module-level function and class, and each method and
property, of ``src/repro/`` that no code in ``src/repro/`` reads.  A
module-level definition is read by an ``ast.Name``, an ``ast.Attribute``, an
imported name, a keyword argument or a string constant that is an identifier
(``getattr`` and registries); a function under a decorator call (the
``register_middleware`` builders) is read by the call.  A class member is
read only by an ``ast.Attribute`` load or an identifier string (``getattr``,
the ``HOOKS`` table): a bare name, a keyword or an import never reads one,
so a local variable called ``history`` keeps no ``history`` method alive.

An attribute load reaches the class its receiver resolves to, where the file
says so and with no inference:

* ``self.x`` or ``cls.x`` inside a method of the class;
* a parameter, variable, dataclass field, ``self.x`` store or property return
  annotated with a class of ``src/repro/`` (``C``, ``"C"``, ``Optional[C]``
  or ``C | None``);
* a name bound only by constructor calls (``x = C(...)``) or by calls
  ``recv.m(...)`` of a method annotated ``-> C`` (or ``-> Optional[C]``) on
  a resolved receiver, or a class's own name;
* ``self._x`` where ``__init__`` stores ``self._x = C(...)``, or a
  parameter ``p`` annotated ``C`` (``self._x = p`` or ``p or C(...)``), and
  no other store of it builds anything else;
* ``super().m`` inside a class, which resolves to its bases.

A resolved read reaches the first definition in the class's MRO, and the
override in every subclass that ``src/``, ``benchmarks/ledger/`` or
``examples/`` names outside a base list or an annotation (one that may be
constructed); ``super().m`` reaches the bases' definitions only.  A receiver
that does not resolve keeps every member of that name alive, so one
unresolved ``x.summary`` still keeps every ``summary`` alive, but
``c.summary`` with ``c: C`` keeps only the one ``C`` calls.
An import in an ``__init__.py`` and a name in ``__all__`` are re-exports,
not readers; dunder methods are read by the interpreter.

A definition nothing reads is either deleted or listed in ``ALLOWED`` with
one of three reasons:

* ``OUTSIDE`` - ``benchmarks/ledger/`` or ``examples/`` calls it;
* ``REFERENCE`` - a reference implementation a test compares against;
* ``PIN`` - a tier-1 pin or oracle has no other way to observe the fact.

The list may only shrink.  It fails when an entry gains a reader in
``src/repro/`` or disappears, and when its reason stops being true, so it
cannot go stale.

Four more passes hold the rest of the surface to the same terms:

* **unset settings** - a defaulted input of ``src/repro/`` that no code in
  ``src/``, ``benchmarks/ledger/`` or ``examples/`` sets; ``tests/`` is not
  a setter.  A setting is one of two kinds:

  - ``Class.field``, a defaulted dataclass field or ``__init__`` parameter.
    A call that names the class (or a subclass, or ``super().__init__``
    inside one, or either class of ``(A if x else B)(...)``) sets what it
    passes by position or keyword; a function that splats its own ``**``
    parameter into such a call passes on the keywords it is called with;
    any other ``**`` splat into it, or into a call naming no class of
    ``src/repro/`` (for every class its file names), sets each field its
    file names as a keyword or an identifier string;
    ``dataclasses.replace(x, f=...)`` and a store ``obj.f = v`` set a field
    ``f`` of the class ``x`` or ``obj`` resolves to (by the rules above)
    and of its bases and constructed subclasses, or of every class when it
    does not resolve; a store through a field (``options.probe.interval =
    x``) sets that field too.
  - ``function(parameter)``, a defaulted parameter of a module-level
    function or a method (``Class.method(parameter)``; a name two modules
    define is ``module.function``).  A call sets what it passes by position
    or keyword: a bare name reaches the module-level functions of that
    name, ``x.m(...)`` the definitions ``m`` dispatches to when ``x``
    resolves and every ``m`` (and module-level ``m``) when it does not.  A
    call with a ``*`` or ``**`` splat, a load that is not called (a
    callback, ``f = obj.m``) and an identifier string (``getattr``) set
    every parameter of what they reach.

  A call or ``replace`` outside ``benchmarks/ledger/`` and ``examples/``
  that passes a literal equal to the declared default sets nothing: the default says it already.  A setting nobody sets is a
  constant: fold it into one where it is used (read there, so a test can
  ``monkeypatch`` it), delete the code only another value reached, or list
  it in ``ALLOWED_SETTINGS`` with one of the three reasons.  The number of
  settings is held at ``SETTINGS_CEILING``, as ``tests/test_code_budget.py``
  holds the lines.
* **unread state** - a ``self.X`` attribute or dataclass field of
  ``src/repro/`` that nothing in ``src/repro/`` loads, with loads resolved
  as above: a resolved load reads the attribute only on its receiver's
  classes.  A load that is only the receiver of a call whose result is
  discarded (``self._sketch.observe(x)``) is not a read when every value the
  attribute is given is built from constants alone (a literal, or a call
  whose arguments are all constants): nothing outside it can see what it
  was fed.  Unread state goes, with any pure computation that fed only it,
  or is listed in ``ALLOWED_STATE`` with one of the three reasons
  (``OUTSIDE`` also covers a field the ledger or an example sets).
* **unused imports** - a name a module of ``src/repro/`` other than an
  ``__init__.py`` imports and never names.
* **unread parameters** - a parameter of a function of ``src/repro/`` that
  its body never names.  ``self``/``cls``, a name with a leading underscore,
  a body that does nothing (a docstring, ``pass``, ``...``, ``raise
  NotImplementedError`` or ``@abstractmethod``), a dunder method and a
  method that overrides or is overridden are exempt.  Drop the parameter
  with the argument at every call; where a caller fixes the signature (a
  callback), give it a leading underscore.

Imports and parameters have no allow-list: neither has a reader to cite.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUTSIDE_DIRS = (ROOT / "benchmarks" / "ledger", ROOT / "examples")
SETTERS = (ROOT / "src", *OUTSIDE_DIRS)

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
_SCOPE_NODES = _DEF_NODES + (ast.Lambda,)
_ACCESSOR_DECORATORS = {"setter", "getter", "deleter"}


def _files(base: Path) -> List[Path]:
    return sorted(base.rglob("*.py"))


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _trees(bases: Tuple[Path, ...]) -> List[ast.Module]:
    return [_tree(path) for base in bases for path in _files(base)]


def _last_name(node: Optional[ast.AST]) -> str:
    """``C`` for ``C`` and ``module.C``; empty for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


# ----------------------------------------------------------------------
# Classes and receivers
# ----------------------------------------------------------------------
class _Param(NamedTuple):
    name: str
    defaulted: bool
    line: int
    default: Optional[ast.expr]  # the declared default, where one is written out


class _Class(NamedTuple):
    where: str
    bases: Tuple[str, ...]
    dataclass: bool
    fields: Tuple[_Param, ...]
    init: Optional[Tuple[_Param, ...]]  # its own ``__init__``'s parameters
    methods: FrozenSet[str]  # the functions its body defines
    types: Dict[str, str]  # attribute -> the class the code says it holds
    returns: Dict[str, str]  # method -> the class its return annotation names


def _declared_default(value: ast.expr, keywords: Dict[str, ast.expr]) -> Optional[ast.expr]:
    """The default ``field(default=...)`` or a bound helper (``positive(1.0)``)
    declares."""
    if keywords.get("default") is not value:
        return keywords.get("default")
    position = _bound_helpers()[_last_name(value.func)]
    if len(value.args) > position:
        return value.args[position]
    return next(k.value for k in value.keywords if k.arg == "default")


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


def _parameter_defaults(args: ast.arguments) -> Dict[str, ast.expr]:
    """Each defaulted parameter of a signature -> its default."""
    positional = args.posonlyargs + args.args
    found = {
        arg.arg: default
        for arg, default in zip(positional[len(positional) - len(args.defaults) :], args.defaults)
    }
    found.update(
        (arg.arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    )
    return found


def _init_params(node: ast.ClassDef) -> Optional[Tuple[_Param, ...]]:
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            args = member.args
            defaults = _parameter_defaults(args)
            every = [*args.posonlyargs, *args.args][1:] + args.kwonlyargs
            return tuple(
                _Param(arg.arg, arg.arg in defaults, arg.lineno, defaults.get(arg.arg)) for arg in every
            )
    return None


def _annotated(annotation: Optional[ast.expr], known: FrozenSet[str]) -> str:
    """The class an annotation names as ``C``, ``"C"``, ``Optional[C]`` or
    ``C | None``; empty for any other annotation."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return _annotated(ast.parse(annotation.value, mode="eval").body, known)
        except SyntaxError:
            return ""
    if isinstance(annotation, ast.Subscript) and _last_name(annotation.value) == "Optional":
        return _annotated(annotation.slice, known)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [
            side
            for side in (annotation.left, annotation.right)
            if not (isinstance(side, ast.Constant) and side.value is None)
        ]
        return _annotated(sides[0], known) if len(sides) == 1 else ""
    name = _last_name(annotation)
    return name if name in known else ""


def _built(value: Optional[ast.expr], known: FrozenSet[str]) -> str:
    """The class a constructor call ``C(...)`` builds; empty for any other value."""
    name = _last_name(value.func) if isinstance(value, ast.Call) else ""
    return name if name in known else ""


def _stored(value: ast.expr, params: Dict[str, str], known: FrozenSet[str]) -> str:
    """The class ``self.x = value`` stores: ``C(...)``, or a parameter of
    ``params`` annotated ``C``, alone or as ``p or C(...)``."""
    if isinstance(value, ast.Name):
        return params.get(value.id, "")
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or) and len(value.values) == 2:
        first, second = value.values
        passed = params.get(first.id, "") if isinstance(first, ast.Name) else ""
        return passed if passed and passed == _built(second, known) else ""
    return _built(value, known)


def _self_attribute(node: ast.AST) -> str:
    """``x`` for ``self.x``; empty for anything else."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return ""


def _attribute_types(cls: ast.ClassDef, known: FrozenSet[str]) -> Dict[str, str]:
    """Attribute -> class, where an annotation (of a field, a ``self.x``
    store or a property's return) says so, or where ``__init__`` stores
    ``self.x = C(...)``, or ``self.x = p`` (``p or C(...)``) of a parameter
    ``p`` annotated ``C``, and every other store of ``self.x`` builds a ``C``
    too."""
    annotated: Dict[str, str] = {}
    built: Dict[str, Set[str]] = {}
    in_init: Set[str] = set()
    for member in cls.body:
        if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
            annotated[member.target.id] = _annotated(member.annotation, known)
        if not isinstance(member, _FUNCTION_NODES):
            continue
        if any(_last_name(decorator) == "property" for decorator in member.decorator_list):
            annotated[member.name] = _annotated(member.returns, known)
        params: Dict[str, str] = {}
        if member.name == "__init__":
            args = member.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params = {arg.arg: _annotated(arg.annotation, known) for arg in every}
        for node in ast.walk(member):
            if isinstance(node, ast.AnnAssign) and _self_attribute(node.target):
                annotated[_self_attribute(node.target)] = _annotated(node.annotation, known)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        name = _self_attribute(sub)
                        if name and isinstance(sub.ctx, ast.Store):
                            built.setdefault(name, set()).add(
                                _stored(node.value, params, known) if sub is target else ""
                            )
                            if member.name == "__init__":
                                in_init.add(name)
    types = {
        name: classes.pop()
        for name, classes in built.items()
        if name in in_init and len(classes) == 1 and "" not in classes
    }
    types.update(annotated)
    return {name: owner for name, owner in types.items() if owner}


def _class_info(node: ast.ClassDef, where: str, known: FrozenSet[str]) -> _Class:
    fields = []
    dataclass = _is_dataclass(node)
    if dataclass:
        for member in _fields(node):
            name, value, line = member.target.id, member.value, member.lineno
            keywords = _field_keywords(value)
            if keywords is None:
                fields.append(_Param(name, value is not None, line, value))
            elif not (
                isinstance(keywords.get("init"), ast.Constant) and keywords["init"].value is False
            ):
                defaulted = "default" in keywords or "default_factory" in keywords
                fields.append(_Param(name, defaulted, line, _declared_default(value, keywords)))
    return _Class(
        where,
        tuple(_last_name(base) for base in node.bases),
        dataclass,
        tuple(fields),
        _init_params(node),
        frozenset(member.name for member in node.body if isinstance(member, _FUNCTION_NODES)),
        _attribute_types(node, known),
        {
            member.name: _annotated(member.returns, known)
            for member in node.body
            if isinstance(member, _FUNCTION_NODES)
        },
    )


@lru_cache(maxsize=None)
def _classes() -> Dict[str, _Class]:
    """Every class of ``src/repro/`` by name (no two share one)."""
    nodes = [
        (path, node)
        for path in _files(SRC)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
    ]
    known = frozenset(node.name for _, node in nodes)
    return {node.name: _class_info(node, f"{path.relative_to(ROOT)}", known) for path, node in nodes}


@lru_cache(maxsize=None)
def _constructed_in(path: Path, known: FrozenSet[str]) -> FrozenSet[str]:
    """The classes a module may build: each one it names outside a class's
    bases and an annotation."""
    tree = _tree(path)
    skipped = set()
    for node in ast.walk(tree):
        parts: List[Optional[ast.AST]] = []
        if isinstance(node, ast.ClassDef):
            parts = list(node.bases)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            parts = [node.annotation]
        elif isinstance(node, _FUNCTION_NODES):
            parts = [node.returns]
        skipped.update(id(sub) for part in parts if part is not None for sub in ast.walk(part))
    return frozenset(
        _last_name(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
        and _last_name(node) in known
    )


@lru_cache(maxsize=None)
def _constructed() -> FrozenSet[str]:
    """The classes of ``src/repro/`` that ``src/``, ``benchmarks/ledger/`` or
    ``examples/`` may build."""
    known = frozenset(_classes())
    return frozenset(
        name for base in SETTERS for path in _files(base) for name in _constructed_in(path, known)
    )


def _own_nodes(body: List[ast.AST]) -> Iterator[ast.AST]:
    """The nodes of a scope's body, without the insides of a nested scope."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


class _Receiver(NamedTuple):
    classes: Tuple[str, ...]
    exact: bool  # ``super()``: the bases' own definitions, no subclass's override


_Scope = Tuple[Dict[str, str], bool]  # name -> class (empty: unresolved), a class body


class _Resolver:
    """The class of each receiver in one module, where the module says so:
    ``self``/``cls`` in a method, an annotated parameter, a name bound only by
    ``C(...)`` calls or by calls ``recv.m(...)`` of a method annotated
    ``-> C`` on a resolved receiver, a class's own name, ``super()``, and an
    attribute of a resolved receiver whose class annotates it or stores a
    ``C`` in it in ``__init__``.  Nothing is inferred beyond that."""

    def __init__(self, path: Path) -> None:
        tree = _tree(path)
        local = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        known = frozenset(_classes()) | {node.name for node in local}
        self.classes = {**_classes(), **{node.name: _class_info(node, str(path), known) for node in local}}
        self._known = known
        self._constructed = _constructed() | _constructed_in(path, known)
        self._names: Dict[int, str] = {}  # id of a name load -> its class
        self._supers: Dict[int, Tuple[str, ...]] = {}  # id of a ``super()`` call -> the bases
        self._mro: Dict[str, Tuple[str, ...]] = {}
        self._subclasses: Dict[str, Tuple[str, ...]] = {}
        self._walk(tree, [(self._bindings(tree, tree.body, "", []), False)], "")

    def _bindings(
        self, scope: ast.AST, body: List[ast.AST], owner: str, chain: List[_Scope]
    ) -> Dict[str, str]:
        """Name -> class for each name ``scope`` binds; empty where any of its
        bindings says nothing about the class.  ``chain`` holds the scopes
        ``scope`` sees, which a method call's receiver may come from."""
        nodes = list(_own_nodes(body))
        typed: Dict[int, str] = {}
        calls: Dict[int, ast.Attribute] = {}  # id of a target bound to ``recv.m(...)`` -> ``recv.m``
        for node in nodes:
            if isinstance(node, ast.Assign):
                built = _built(node.value, self._known)
                typed.update((id(target), built) for target in node.targets)
                if not built and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute):
                    calls.update((id(target), node.value.func) for target in node.targets)
            elif isinstance(node, ast.AnnAssign):
                typed[id(node.target)] = _annotated(node.annotation, self._known)
        names = self._bound(scope, nodes, owner, typed)
        if calls:

            def lookup(name: str) -> str:
                return names[name] if name in names else self._lookup(name, chain)

            for target, method in calls.items():
                typed[target] = self._returned(self.resolve(method.value, lookup), method.attr)
            names = self._bound(scope, nodes, owner, typed)
        return names

    def _bound(
        self, scope: ast.AST, nodes: List[ast.AST], owner: str, typed: Dict[int, str]
    ) -> Dict[str, str]:
        """``_bindings`` with the class of each assignment target in ``typed``."""
        bound: Dict[str, Set[str]] = {}
        if isinstance(scope, (*_FUNCTION_NODES, ast.Lambda)):
            args = scope.args
            every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            for index, arg in enumerate(arg for arg in every if arg is not None):
                receiver = index == 0 and owner and arg.arg in ("self", "cls")
                bound.setdefault(arg.arg, set()).add(
                    owner if receiver else _annotated(arg.annotation, self._known)
                )
        for node in nodes:
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                names = {node.id: typed.get(id(node), "")}
            elif isinstance(node, ast.ClassDef):
                names = {node.name: node.name}
            elif isinstance(node, _FUNCTION_NODES):
                names = {node.name: ""}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {
                    alias.asname or alias.name.partition(".")[0]: (
                        alias.name if isinstance(node, ast.ImportFrom) and alias.name in self._known else ""
                    )
                    for alias in node.names
                }
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                names = dict.fromkeys(node.names, "")
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names = {node.name: ""}
            else:
                continue
            for name, cls in names.items():
                bound.setdefault(name, set()).add(cls)
        return {name: classes.pop() if len(classes) == 1 else "" for name, classes in bound.items()}

    def _walk(self, node: ast.AST, chain: List[_Scope], owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTION_NODES, ast.Lambda)):
                body = [child.body] if isinstance(child, ast.Lambda) else child.body
                method_of = owner if isinstance(node, ast.ClassDef) else ""
                # A function does not see the class body around it.
                seen = [link for link in chain if not link[1]]
                scope = self._bindings(child, body, method_of, seen)
                self._walk(child, seen + [(scope, False)], owner)
            elif isinstance(child, ast.ClassDef):
                scope = self._bindings(child, child.body, "", chain)
                self._walk(child, chain + [(scope, True)], child.name)
            else:
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    self._names[id(child)] = self._lookup(child.id, chain)
                elif isinstance(child, ast.Call) and _last_name(child.func) == "super" and owner:
                    self._supers[id(child)] = tuple(
                        base for base in self.classes[owner].bases if base in self.classes
                    )
                self._walk(child, chain, owner)

    def _lookup(self, name: str, chain: List[_Scope]) -> str:
        for scope, _ in reversed(chain):
            if name in scope:
                return scope[name]
        return name if name in self._known else ""

    def mro(self, name: str) -> Tuple[str, ...]:
        """Class ``name`` and the classes it inherits from, depth first and
        left to right: Python's order for any class that reaches no class
        twice."""
        if name not in self._mro:
            order = [name]
            for base in self.classes[name].bases:
                if base in self.classes:
                    order += [cls for cls in self.mro(base) if cls not in order]
            self._mro[name] = tuple(order)
        return self._mro[name]

    def resolve(self, node: ast.expr, lookup: Optional[Callable[[str], str]] = None) -> str:
        """The class ``node`` holds an instance of (or is); empty where the
        module does not say.  ``lookup`` resolves a bare name where the walk
        has not reached it yet."""
        if isinstance(node, ast.Name):
            return lookup(node.id) if lookup else self._names.get(id(node), "")
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value, lookup)
            for cls in self.mro(owner) if owner else ():
                if node.attr in self.classes[cls].types:
                    return self.classes[cls].types[node.attr]
        return ""

    def receiver(self, node: ast.Attribute) -> Optional[_Receiver]:
        if id(node.value) in self._supers:
            bases = self._supers[id(node.value)]
            return _Receiver(bases, True) if bases else None
        owner = self.resolve(node.value)
        return _Receiver((owner,), False) if owner else None

    def family(self, receiver: _Receiver) -> Set[str]:
        """The classes a read through ``receiver`` may dispatch on: its own
        and, unless it is ``super()``, every constructed subclass."""
        found = set(receiver.classes)
        if not receiver.exact:
            for cls in receiver.classes:
                if cls not in self._subclasses:
                    self._subclasses[cls] = tuple(
                        sub for sub in self._constructed if sub in self.classes and cls in self.mro(sub)
                    )
                found.update(self._subclasses[cls])
        return found

    def targets(self, receiver: _Receiver, name: str) -> Set[str]:
        """``Class.name`` of each definition a read of ``name`` may call: the
        first in each family member's MRO."""
        found = set()
        for cls in self.family(receiver):
            owner = next((base for base in self.mro(cls) if name in self.classes[base].methods), "")
            if owner:
                found.add(f"{owner}.{name}")
        return found

    def _returned(self, owner: str, method: str) -> str:
        """The class a call of ``method`` on a ``owner`` returns, where every
        definition the call may dispatch to is annotated ``-> C`` or
        ``-> Optional[C]``; empty otherwise."""
        if not owner:
            return ""
        returns = {
            self.classes[target.rpartition(".")[0]].returns.get(method, "")
            for target in self.targets(_Receiver((owner,), False), method)
        }
        return returns.pop() if len(returns) == 1 else ""

    def holders(self, receiver: _Receiver) -> Set[str]:
        """Every class whose attributes a read through ``receiver`` may load."""
        return {base for cls in self.family(receiver) for base in self.mro(cls)}


@lru_cache(maxsize=None)
def _resolver(path: Path) -> _Resolver:
    return _Resolver(path)


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
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


class _Reads(NamedTuple):
    names: FrozenSet[str]  # read bare, so only a module-level definition
    attributes: FrozenSet[str]  # read through an unresolved receiver, or as a string
    members: FrozenSet[str]  # ``Class.member`` a resolved read may call


@lru_cache(maxsize=None)
def _reads(bases: Tuple[Path, ...]) -> _Reads:
    """What the code under ``bases`` reads."""
    names, attributes, members = set(), set(), set()
    for base in bases:
        for path in _files(base):
            tree = _tree(path)
            resolver = _resolver(path)
            reexports = path.name == "__init__.py"
            skipped = _not_readers(tree)
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    receiver = resolver.receiver(node)
                    if receiver is None:
                        attributes.add(node.attr)
                    else:
                        members.update(resolver.targets(receiver, node.attr))
                elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                    names.update(alias.name.rpartition(".")[2] for alias in node.names)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                ):
                    attributes.add(node.value)
                elif isinstance(node, _FUNCTION_NODES) and any(
                    isinstance(decorator, ast.Call) for decorator in node.decorator_list
                ):
                    names.add(node.name)
    return _Reads(frozenset(names), frozenset(attributes), frozenset(members))


def _is_read(name: str, reads: _Reads) -> bool:
    """A member is read through its own class or an unresolved receiver; a
    module-level definition by any reader of its name."""
    owner, _, bare = name.rpartition(".")
    if owner:
        return name in reads.members or bare in reads.attributes
    return bare in reads.names or bare in reads.attributes


def _unread() -> Dict[str, str]:
    """Definitions with no reader in ``src/repro/``."""
    reads = _reads((SRC,))
    return {name: where for name, where in _definitions().items() if not _is_read(name, reads)}


def test_every_definition_in_src_has_a_reader():
    dead = {name: where for name, where in _unread().items() if name not in ALLOWED}
    assert not dead, (
        "definitions nothing in src/repro/ reads - delete them with whatever "
        "only they use, or, if one of this file's three reasons holds, list "
        "them in ALLOWED with it:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(dead.items(), key=lambda i: i[1]))
    )


def _used_outside(entry: str) -> bool:
    """``benchmarks/ledger/`` or ``examples/`` reads, loads or sets ``entry``."""
    loaded, holders = _loads(OUTSIDE_DIRS)
    return (
        _is_read(entry, _reads(OUTSIDE_DIRS))
        or entry in holders
        or entry.rpartition(".")[2] in loaded
        or entry in _set_settings(OUTSIDE_DIRS)
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
    problems = []
    for entry, (reason, _) in sorted(allowed.items()):
        if entry not in defined:
            problems.append(f"{entry}: no longer defined - remove the entry")
        elif entry not in flagged:
            problems.append(f"{entry}: no longer flagged - remove the entry")
        elif (reason == OUTSIDE) != _used_outside(entry):
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


_C = "class C:\n    def m(self):\n        pass\n"
_C_AND_D = _C + "\nclass D:\n    def m(self):\n        pass\n"


@pytest.mark.parametrize(
    "snippet, reads",
    [
        (_C + "    def f(self):\n        self.m()\n", True),
        (_C + "\ndef f(c: C):\n    c.m()\n", True),
        (_C + "\ndef f(c: 'Optional[C]'):\n    c.m()\n", True),
        (_C + "\nc = C()\nc.m()\n", True),
        (_C + "\nclass D:\n    def __init__(self):\n        self._c = C()\n\n    def f(self):\n        self._c.m()\n", True),
        (_C + "\nclass E(C):\n    def m(self):\n        super().m()\n", True),
        ("class B:\n    def m(self):\n        pass\n\n" + _C.replace("C:", "C(B):") + "\nC()\n\ndef f(b: B):\n    b.m()\n", True),
        ("class B:\n    def m(self):\n        pass\n\n" + _C.replace("C:", "C(B):") + "\ndef f(b: B):\n    b.m()\n", False),
        (_C + "\ndef f(x):\n    x.m()\n", True),
        (_C + "\ndef f():\n    m = 1\n    return m\n", False),
        (_C + "\nclass D:\n    def m(self):\n        pass\n\ndef f(d: D):\n    d.m()\n", False),
        (_C_AND_D + "\nclass E:\n    def __init__(self, d: D):\n        self._d = d\n\n    def f(self):\n        self._d.m()\n", False),
        (_C_AND_D + "\nclass E:\n    def __init__(self, d: Optional[D] = None):\n        self._d = d or D()\n\n    def f(self):\n        self._d.m()\n", False),
        (_C_AND_D + "\nclass F:\n    def make(self) -> 'Optional[D]':\n        return D()\n\ndef f(factory: F):\n    d = factory.make()\n    d.m()\n", False),
    ],
    ids=[
        "self",
        "parameter",
        "optional-parameter",
        "constructed-name",
        "built-in-init",
        "super",
        "constructed-subclass-override",
        "unconstructed-subclass-override",
        "unresolved-receiver",
        "local-variable",
        "unrelated-class",
        "parameter-stored-in-init",
        "parameter-or-default-stored-in-init",
        "method-annotated-return",
    ],
)
def test_what_the_definitions_pass_counts_as_reading_a_member(tmp_path, snippet, reads):
    (tmp_path / "snippet.py").write_text(snippet)
    assert _is_read("C.m", _reads((tmp_path,))) is reads


# ----------------------------------------------------------------------
# Settings, state and imports
# ----------------------------------------------------------------------
#: ``Class.parameter`` -> (reason, what reads it).  Only ever remove entries.
ALLOWED_SETTINGS: Dict[str, Tuple[str, str]] = {
    "CoordinatorConfig.operation_timeout": (
        OUTSIDE,
        "ledger worker: waits out twice the timeout before counting outcomes",
    ),
    "EventQueue.push(priority)": (
        REFERENCE,
        "test_simulation_events: schedule_in, post_in and the wheel's arm match push at every priority",
    ),
}

#: ``ALLOWED_SETTINGS`` may only shrink: lower this with every entry removed.
#: Raised from 1 to 2 for ``EventQueue.push(priority)``: ``push`` is the
#: reference ``tests/test_simulation_events.py`` holds the written-out
#: scheduling paths to, priority for priority, and ``Simulator.schedule``,
#: its one caller in ``src/``, stopped passing one when its own ``priority``
#: turned out to be set only by tests.
ALLOWED_SETTINGS_CEILING = 2

#: How many settings ``_settings`` counts: ``Class.field`` and
#: ``function(parameter)`` alike.  Lower it with every setting folded into a
#: constant; a change that must raise it names the caller beside the number.
SETTINGS_CEILING = 301

#: ``Class.attribute`` -> (reason, what reads it).  Only ever remove entries.
ALLOWED_STATE: Dict[str, Tuple[str, str]] = {
    "RequestCoordinator.hinted_writes": (OUTSIDE, "ledger worker: hinted_writes_per_kop"),
    "RequestCoordinator.hedged_reads": (OUTSIDE, "ledger worker: hedged_reads_frac"),
    "Cluster.anti_entropy": (OUTSIDE, "ledger worker: repairs_per_kop adds its repairs_sent"),
    "RequestContext.requested_level": (OUTSIDE, "ledger layer driver builds a context by keyword"),
    "RequestContext.operation": (OUTSIDE, "ledger layer driver builds a context by keyword"),
    "VersionedValue.write_id": (OUTSIDE, "ledger layer driver builds versions by position"),
    "RequestCoordinator.reads_started": (PIN, "the request-path digests hash the coordinator's counters"),
    "RequestCoordinator.writes_started": (PIN, "the request-path digests hash the coordinator's counters"),
    "OperationResult.replicas_responded": (PIN, "quorum and hedging tests count each operation's answers"),
    "ReadAfterWriteProber.probes_started": (
        PIN,
        "prober tests count probe writes; probe_operations counts resolved writes and reads",
    ),
    "StorageStats.writes_applied": (OUTSIDE, "ledger worker: applies_per_op"),
    "StorageStats.writes_superseded": (OUTSIDE, "ledger worker: superseded_frac"),
    "StorageStats.tombstones": (
        PIN,
        "test_differential_oracles' storage oracle compares the engine's counters",
    ),
}

#: ``ALLOWED_STATE`` may only shrink: lower this with every entry removed.
#: Raised from 8 to 9 for ``Cluster.anti_entropy``: it was unread before too,
#: but ``self.config.anti_entropy`` shared its name until that setting became
#: a constant.  Raised from 9 to 10 for ``RequestContext.operation``, which
#: ``benchmarks/ledger/layers.py`` passes by keyword: nothing in ``src/``
#: reads it, but ``result.operation`` kept every ``operation`` alive until
#: loads resolved their receiver.  Raised from 10 to 13 for three
#: ``StorageStats`` counters: ``writes_applied`` and ``writes_superseded``,
#: which the ledger worker reads, and ``tombstones``, which only the storage
#: oracle of ``tests/test_differential_oracles.py`` compares.  All three were
#: unread in ``src/`` before too, kept alive only by the dict keys of
#: ``StorageStats.as_dict``, which nothing called and which went with the two
#: read counters only tests read.
ALLOWED_STATE_CEILING = 13

@lru_cache(maxsize=None)
def _signature(name: str) -> Tuple[Tuple[str, str], ...]:
    """(owner, parameter) in the order a call naming class ``name`` takes them."""
    cls = _classes().get(name)
    if cls is None:
        return ()
    if cls.init is not None:
        return tuple((name, param.name) for param in cls.init)
    inherited: Tuple[Tuple[str, str], ...] = next(
        (signature for signature in map(_signature, cls.bases) if signature), ()
    )
    if not cls.dataclass:
        return inherited
    own = [param.name for param in cls.fields]
    return tuple(entry for entry in inherited if entry[1] not in own) + tuple(
        (name, param) for param in own
    )


def _outside(path: Path) -> bool:
    """Whether ``path`` lies in ``benchmarks/ledger/`` or ``examples/``."""
    return any(path.is_relative_to(base) for base in OUTSIDE_DIRS)


def _restates(argument: ast.expr, default: Optional[ast.expr]) -> bool:
    """Whether ``argument`` is a literal equal to the literal ``default``."""
    if default is None:
        return False
    try:
        passed, declared = ast.literal_eval(argument), ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError):
        return False
    return passed == declared and isinstance(passed, bool) == isinstance(declared, bool)


# Function parameters --------------------------------------------------
class _Function(NamedTuple):
    where: str
    positional: Tuple[str, ...]  # what a call fills by position, ``self``/``cls`` dropped
    parameters: Tuple[str, ...]
    defaults: Dict[str, ast.expr]  # each defaulted parameter -> its default


@lru_cache(maxsize=None)
def _functions() -> Dict[str, _Function]:
    """``f`` or ``Class.m`` -> each module-level function and non-dunder method
    of ``src/repro/``; a name two modules define at module level is ``module.f``."""
    defined: List[Tuple[str, str, Path, ast.AST]] = []  # (owner, name, path, node)
    for path in _files(SRC):
        tree = _tree(path)
        defined += [("", node.name, path, node) for node in tree.body if isinstance(node, _FUNCTION_NODES)]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined += [
                    (cls.name, node.name, path, node)
                    for node in cls.body
                    if isinstance(node, _FUNCTION_NODES) and not node.name.startswith("__")
                ]
    counts = Counter(name for owner, name, _, _ in defined if not owner)
    shared = {name for name, count in counts.items() if count > 1}
    found = {}
    for owner, name, path, node in defined:
        key = f"{owner}.{name}" if owner else (f"{path.stem}.{name}" if name in shared else name)
        args = node.args
        positional = [arg.arg for arg in args.posonlyargs + args.args]
        if owner and not any(_last_name(d) == "staticmethod" for d in node.decorator_list):
            positional = positional[1:]
        every = [*positional, *(arg.arg for arg in args.kwonlyargs)]
        found[key] = _Function(
            f"{path.relative_to(ROOT)}:{node.lineno}", tuple(positional), tuple(every), _parameter_defaults(args)
        )
    return found


@lru_cache(maxsize=None)
def _function_index() -> Dict[str, Tuple[List[str], List[str]]]:
    """Bare name -> (its module-level functions, its methods)."""
    index: Dict[str, Tuple[List[str], List[str]]] = {}
    for key in _functions():
        owner, _, name = key.rpartition(".")
        entry = index.setdefault(name, ([], []))
        entry[1 if owner in _classes() else 0].append(key)
    return index


def _reached(node: ast.expr, resolver: _Resolver) -> List[str]:
    """The functions a call or load of ``node`` may reach: a bare name its
    module-level namesakes; ``x.m`` through a resolved receiver the
    definitions ``m`` dispatches to, through any other every ``m``."""
    if isinstance(node, ast.Name):
        return _function_index().get(node.id, ([], []))[0]
    if not isinstance(node, ast.Attribute):
        return []
    receiver = resolver.receiver(node)
    if receiver is not None:
        return [key for key in resolver.targets(receiver, node.attr) if key in _functions()]
    functions, methods = _function_index().get(node.attr, ([], []))
    return functions + methods


def _set_function_parameters(path: Path, tree: ast.Module, restated: bool) -> Set[str]:
    """The ``function(parameter)`` settings one module sets: what each call
    passes by position or keyword to what it reaches, unless it restates the
    default, and every parameter of what a call with a ``*``/``**`` splat, a
    load that is not called (a callback) or an identifier string
    (``getattr``) reaches.  ``__all__`` names nothing."""
    functions = _functions()
    resolver = _resolver(path)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    skipped = _not_readers(tree)
    found: Set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        every: List[str] = []
        if isinstance(node, ast.Call):
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                keyword.arg is None for keyword in node.keywords
            )
            for key in _reached(node.func, resolver):
                function = functions[key]
                if splat:
                    every.append(key)
                    continue
                passed = [*zip(function.positional, node.args), *((k.arg, k.value) for k in node.keywords)]
                found.update(
                    f"{key}({name})"
                    for name, argument in passed
                    if not (restated and _restates(argument, function.defaults.get(name)))
                )
        elif (
            isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and id(node) not in called
        ):
            every = _reached(node, resolver)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            every = [key for keys in _function_index().get(node.value, ()) for key in keys]
        found.update(f"{key}({name})" for key in every for name in functions[key].parameters)
    return found


@lru_cache(maxsize=None)
def _settings() -> Dict[str, str]:
    """``Class.parameter`` and ``function(parameter)`` -> ``path:line`` of
    every defaulted setting."""
    found = {}
    for name, cls in _classes().items():
        own = cls.init if cls.init is not None else (cls.fields if cls.dataclass else ())
        for param in own:
            if param.defaulted:
                found[f"{name}.{param.name}"] = f"{cls.where}:{param.line}"
    for key, function in _functions().items():
        found.update((f"{key}({name})", function.where) for name in function.defaults)
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


def _callees(func: ast.expr) -> Tuple[str, ...]:
    """``C`` for ``C(...)`` and ``module.C(...)``; both for ``(A if x else B)(...)``."""
    if isinstance(func, ast.IfExp):
        return _callees(func.body) + _callees(func.orelse)
    return (_last_name(func),)


def _names(tree: ast.Module) -> set:
    return {_last_name(node) for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _identifiers(tree: ast.Module) -> set:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }


def _settable(fields: List[str], resolver: _Resolver, receiver: Optional[_Receiver]) -> List[str]:
    """Of ``fields`` (``Class.field``), those a store or ``replace`` through
    ``receiver`` may set: only its own family's, when it resolves."""
    if receiver is None:
        return fields
    holders = resolver.holders(receiver)
    return [field for field in fields if field.partition(".")[0] in holders]


@lru_cache(maxsize=None)
def _set_settings(bases: Tuple[Path, ...] = SETTERS) -> FrozenSet[str]:
    """Every setting some call, splat, ``replace``, store or function call
    in the code under ``bases`` sets.  A call or ``replace``
    outside ``benchmarks/ledger/`` and ``examples/`` that passes a literal
    equal to the declared default sets nothing."""
    forwarders = _forwarders(_trees(bases))
    defaults = {
        f"{name}.{param.name}": param.default
        for name, cls in _classes().items()
        for param in (cls.init if cls.init is not None else cls.fields)
    }
    dataclass_fields: Dict[str, List[str]] = {}
    for name, cls in _classes().items():
        if cls.dataclass and cls.init is None:
            for param in cls.fields:
                dataclass_fields.setdefault(param.name, []).append(f"{name}.{param.name}")
    found = set()
    for path in (path for base in bases for path in _files(base)):
        tree = _tree(path)
        resolver = _resolver(path)
        restated = not _outside(path)
        found |= _set_function_parameters(path, tree, restated)

        def passes(setting: str, argument: ast.expr) -> bool:
            return not (restated and _restates(argument, defaults.get(setting)))

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
                        found.update(_settable(dataclass_fields.get(link.attr, []), resolver, resolver.receiver(link)))
            if not isinstance(node, ast.Call):
                continue
            callees = _callees(node.func)
            keywords = {keyword.arg: keyword.value for keyword in node.keywords if keyword.arg}
            if callees == ("replace",):
                owner = resolver.resolve(node.args[0]) if node.args else ""
                receiver = _Receiver((owner,), False) if owner else None
                for keyword, argument in keywords.items():
                    settable = _settable(dataclass_fields.get(keyword, []), resolver, receiver)
                    found.update(field for field in settable if passes(field, argument))
            for target in (target for callee in callees for target in forwarders.get(callee, ())):
                found.update(
                    f"{owner}.{param}"
                    for owner, param in _signature(target)
                    if param in keywords and passes(f"{owner}.{param}", keywords[param])
                )
            targets = supers.get(id(node), callees)
            splatted = named if len(keywords) < len(node.keywords) else set()
            if splatted and not any(callee in _classes() for callee in callees):
                targets += named_classes
            for target in targets:
                signature = _signature(target)
                positional = len(node.args)
                for index, argument in enumerate(node.args):
                    if isinstance(argument, ast.Starred):
                        positional = index
                        break
                found.update(
                    f"{owner}.{param}"
                    for (owner, param), argument in zip(signature, node.args[:positional])
                    if passes(f"{owner}.{param}", argument)
                )
                found.update(
                    f"{owner}.{param}"
                    for owner, param in signature
                    if param in splatted
                    or (param in keywords and passes(f"{owner}.{param}", keywords[param]))
                )
    return frozenset(found)


def _unset_settings() -> Dict[str, str]:
    return {name: where for name, where in _settings().items() if name not in _set_settings()}


def test_every_setting_in_src_is_set_somewhere():
    unset = {name: where for name, where in _unset_settings().items() if name not in ALLOWED_SETTINGS}
    assert not unset, (
        "defaulted settings nothing in src/, benchmarks/ledger/ or examples/ "
        "sets to another value - fold each into a module constant where it is "
        "used, keeping its value, and delete the code only another value "
        "reached, or, if one of this file's three reasons holds, list them in "
        "ALLOWED_SETTINGS with it:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(unset.items(), key=lambda i: i[1]))
    )


def test_settings_allow_list_is_current_and_only_shrinks():
    problems = _allow_list_problems(
        "ALLOWED_SETTINGS", ALLOWED_SETTINGS, ALLOWED_SETTINGS_CEILING, _settings(), _unset_settings()
    )
    assert not problems, "stale ALLOWED_SETTINGS:\n  " + "\n  ".join(problems)


def test_the_settable_surface_stays_at_its_ceiling():
    count = len(_settings())
    assert count <= SETTINGS_CEILING, (
        f"src/repro/ has {count} settings against a ceiling of {SETTINGS_CEILING}: "
        "make the new input a constant, or raise SETTINGS_CEILING with the "
        "caller that sets it written beside the number"
    )
    assert count == SETTINGS_CEILING, (
        f"src/repro/ is down to {count} settings: lower SETTINGS_CEILING from "
        f"{SETTINGS_CEILING} to {count} (it only moves down)"
    )


@pytest.mark.parametrize(
    "snippet, sets",
    [
        # A store to ``self`` names the class around it: ``Cluster.__init__``'s
        # ``self.network = NetworkModel(...)`` kept ``ClusterConfig.network``
        # set while nothing passed it.
        ("class Cluster:\n    def __init__(self):\n        self.node = object()\n", False),
        (
            "class Outer(ClusterConfig):\n    class Inner:\n"
            "        def f(self):\n            self.node = object()\n",
            False,
        ),
        ("class Mine(ClusterConfig):\n    def f(self):\n        self.node = object()\n", True),
        ("ClusterConfig(node=NodeConfig())\n", True),
        ("ClusterConfig(3, 3, None, None, NodeConfig())\n", True),
        ("replace(config, node=NodeConfig())\n", True),
        ("config.node = NodeConfig()\n", True),
        # A resolved receiver names only its own class's fields.
        ("def f(config: ClusterConfig):\n    return replace(config, node=NodeConfig())\n", True),
        ("def f(cluster: Cluster):\n    return replace(cluster, node=NodeConfig())\n", False),
        ("def f(cluster: Cluster):\n    cluster.node = NodeConfig()\n", False),
    ],
    ids=[
        "self-store",
        "nested-class-store",
        "subclass-store",
        "keyword",
        "positional",
        "replace",
        "store",
        "resolved-replace",
        "other-class-replace",
        "other-class-store",
    ],
)
def test_what_the_settings_pass_counts_as_setting_a_field(tmp_path, snippet, sets):
    (tmp_path / "snippet.py").write_text(snippet)
    assert ("ClusterConfig.node" in _set_settings((tmp_path,))) is sets


@pytest.mark.parametrize(
    "snippet, sets",
    [
        ("FaultPlan.generate(1, 60.0, nodes=4)\n", True),
        ("FaultPlan.generate(1, 60.0, 6, 4)\n", True),
        ("FaultPlan.generate(1, 60.0, faults=4)\n", False),
        ("def f(plan: FaultPlan):\n    return plan.generate(1, 60.0, nodes=4)\n", True),
        ("def f(simulator: Simulator):\n    return simulator.generate(1, 60.0, nodes=4)\n", False),
        ("def f(x):\n    return x.generate(1, 60.0, nodes=4)\n", True),
        ("def f(x):\n    return x.generate(1, 60.0)\n", False),
        ("FaultPlan.generate(1, 60.0, **options)\n", True),
        ("FaultPlan.generate(*arguments)\n", True),
        ("sample = FaultPlan.generate\n", True),
        ('getattr(FaultPlan, "generate")\n', True),
        ("generate(1, 60.0, nodes=4)\n", False),
    ],
    ids=[
        "keyword",
        "positional",
        "other-parameter",
        "resolved-receiver",
        "other-class",
        "unresolved-receiver",
        "unresolved-receiver-other-parameter",
        "keyword-splat",
        "positional-splat",
        "read-as-a-value",
        "identifier-string",
        "bare-name-of-a-method",
    ],
)
def test_what_the_settings_pass_counts_as_setting_a_function_parameter(tmp_path, snippet, sets):
    (tmp_path / "snippet.py").write_text(snippet)
    setting = "FaultPlan.generate(nodes)"
    assert setting in _settings()
    assert (setting in _set_settings((tmp_path,))) is sets


@pytest.mark.parametrize(
    "snippet, setting",
    [
        ("ClusterConfig(replication_factor=3)\n", "ClusterConfig.replication_factor"),
        ("ClusterConfig(4, 3)\n", "ClusterConfig.replication_factor"),
        ("replace(config, replication_factor=3)\n", "ClusterConfig.replication_factor"),
        ("FaultPlan.generate(1, 60.0, nodes=3)\n", "FaultPlan.generate(nodes)"),
    ],
    ids=["keyword", "positional", "replace", "function-parameter"],
)
def test_a_restated_default_sets_a_setting_only_from_outside_src(tmp_path, monkeypatch, snippet, setting):
    inside, outside, changed = tmp_path / "src", tmp_path / "examples", tmp_path / "changed"
    for base, text in ((inside, snippet), (outside, snippet), (changed, snippet.replace("3", "5"))):
        base.mkdir()
        (base / "snippet.py").write_text(text)
    monkeypatch.setattr(sys.modules[__name__], "OUTSIDE_DIRS", (outside,))
    assert setting not in _set_settings((inside,))
    assert setting in _set_settings((outside,))
    # Another value sets it from anywhere.
    assert setting in _set_settings((changed,))


def test_the_settings_pass_reads_no_tests_directory(tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_knob.py").write_text("CoordinatorConfig(operation_timeout=2.0)\n")
    assert "CoordinatorConfig.operation_timeout" in _set_settings((tests,))
    assert "CoordinatorConfig.operation_timeout" not in _set_settings()
    assert not any(base.name == "tests" for base in SETTERS)


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
def _sinks() -> FrozenSet[str]:
    """Attributes of ``src/repro/`` that are not fields and are only ever
    given values built from constants."""
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
    return frozenset(
        name
        for name, values in stored.items()
        if name not in fields and all(map(_built_from_constants, values))
    )


@lru_cache(maxsize=None)
def _loads(bases: Tuple[Path, ...] = (SRC,)) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """What the code under ``bases`` loads: (attribute names loaded through
    an unresolved receiver or named by an identifier string, ``Class.name``
    for each class a resolved load may read ``name`` of)."""
    names, held = set(), set()
    for path in (path for base in bases for path in _files(base)):
        tree = _tree(path)
        resolver = _resolver(path)
        skipped = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and isinstance(node.value.func.value, ast.Attribute)
                and node.value.func.value.attr in _sinks()
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
                receiver = resolver.receiver(node)
                if receiver is None:
                    names.add(node.attr)
                else:
                    held.update(f"{cls}.{node.attr}" for cls in resolver.holders(receiver))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return frozenset(names), frozenset(held)


def _unread_state() -> Dict[str, str]:
    names, held = _loads()
    return {
        name: where
        for name, where in _state().items()
        if name not in held and name.rpartition(".")[2] not in names
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


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def _does_nothing(function: ast.AST) -> bool:
    """An abstract method, or a body of a docstring, ``pass``, ``...`` or
    ``raise NotImplementedError``."""
    if any(_last_name(decorator) == "abstractmethod" for decorator in function.decorator_list):
        return True
    for statement in function.body:
        if isinstance(statement, ast.Pass) or (
            isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
        ):
            continue
        if isinstance(statement, ast.Raise) and _last_name(
            statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        ) == "NotImplementedError":
            continue
        return False
    return True


def _overridden(owner: str, method: str) -> bool:
    """Whether ``owner.method`` overrides, or is overridden by, a method of
    another class of ``src/repro/``."""
    resolver = _resolver(SRC / "__init__.py")  # defines no class: it knows just ``_classes()``
    return any(
        cls != owner
        and method in resolver.classes[cls].methods
        and (cls in resolver.mro(owner) or owner in resolver.mro(cls))
        for cls in resolver.classes
    )


def _unread_parameters() -> Dict[str, str]:
    """``function.parameter`` -> ``path:line`` of each parameter of a
    function of ``src/repro/`` that its body never names."""
    found = {}
    for path in _files(SRC):
        for owner in ast.walk(_tree(path)):
            if not isinstance(owner, (ast.Module, ast.ClassDef, *_FUNCTION_NODES)):
                continue
            for function in owner.body:
                if not isinstance(function, _FUNCTION_NODES) or _does_nothing(function):
                    continue
                method = isinstance(owner, ast.ClassDef)
                if method and (
                    function.name.startswith("__") or _overridden(owner.name, function.name)
                ):
                    continue
                named = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
                args = function.args
                for arg in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]:
                    if (
                        arg is not None
                        and arg.arg not in ("self", "cls")
                        and not arg.arg.startswith("_")
                        and arg.arg not in named
                    ):
                        qualified = f"{owner.name}.{function.name}" if method else function.name
                        found[f"{qualified}({arg.arg})"] = f"{path.relative_to(ROOT)}:{arg.lineno}"
    return found


def test_every_parameter_in_src_is_named_by_its_function():
    unread = _unread_parameters()
    assert not unread, (
        "parameters their function never names - drop each with the argument "
        "at every call, or, where a caller fixes the signature, give it a "
        "leading underscore:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(unread.items(), key=lambda i: i[1]))
    )
