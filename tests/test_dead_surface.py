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
* a name bound only by constructor calls (``x = C(...)``), or a class's own
  name;
* ``self._x`` where ``__init__`` stores ``self._x = C(...)`` and no other
  store of it builds anything else;
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

* **unset settings** - a defaulted dataclass field or ``__init__`` parameter
  of ``src/repro/`` that no code in ``src/``, ``benchmarks/ledger/`` or
  ``examples/`` sets; ``tests/`` is not a setter.  A call that names the
  class (or a subclass, or ``super().__init__`` inside one, or either class
  of ``(A if x else B)(...)``) sets what it passes by position or keyword; a
  function that splats its own ``**`` parameter into such a call passes on
  the keywords it is called with; any other ``**`` splat into it, or into a
  call naming no class of ``src/repro/`` (for every class its file names),
  sets each field its file names as a keyword or an identifier string;
  ``dataclasses.replace(x, f=...)`` and a store ``obj.f = v`` set a field
  ``f`` of the class ``x`` or ``obj`` resolves to (by the rules above) and
  of its bases and constructed subclasses, or of every class when it does
  not resolve; a store through a field (``options.probe.interval = x``)
  sets that field too.  A setting nobody sets is a constant: fold it into
  one where it is used (read there, so a test can ``monkeypatch`` it), or
  list it in ``ALLOWED_SETTINGS`` with one of the three reasons.
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
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

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
_Param = Tuple[str, bool, int]  # name, has a default, line


class _Class(NamedTuple):
    where: str
    bases: Tuple[str, ...]
    dataclass: bool
    fields: Tuple[_Param, ...]
    init: Optional[Tuple[_Param, ...]]  # its own ``__init__``'s parameters
    methods: FrozenSet[str]  # the functions its body defines
    types: Dict[str, str]  # attribute -> the class the code says it holds


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


def _self_attribute(node: ast.AST) -> str:
    """``x`` for ``self.x``; empty for anything else."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return ""


def _attribute_types(cls: ast.ClassDef, known: FrozenSet[str]) -> Dict[str, str]:
    """Attribute -> class, where an annotation (of a field, a ``self.x``
    store or a property's return) says so, or where ``__init__`` stores
    ``self.x = C(...)`` and every other store of ``self.x`` builds a ``C`` too."""
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
        for node in ast.walk(member):
            if isinstance(node, ast.AnnAssign) and _self_attribute(node.target):
                annotated[_self_attribute(node.target)] = _annotated(node.annotation, known)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        name = _self_attribute(sub)
                        if name and isinstance(sub.ctx, ast.Store):
                            built.setdefault(name, set()).add(
                                _built(node.value, known) if sub is target else ""
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
            keywords = _field_keywords(member.value)
            if keywords is None:
                fields.append((member.target.id, member.value is not None, member.lineno))
            elif not (
                isinstance(keywords.get("init"), ast.Constant) and keywords["init"].value is False
            ):
                defaulted = "default" in keywords or "default_factory" in keywords
                fields.append((member.target.id, defaulted, member.lineno))
    return _Class(
        where,
        tuple(_last_name(base) for base in node.bases),
        dataclass,
        tuple(fields),
        _init_params(node),
        frozenset(member.name for member in node.body if isinstance(member, _FUNCTION_NODES)),
        _attribute_types(node, known),
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
    ``C(...)`` calls, a class's own name, ``super()``, and an attribute of a
    resolved receiver whose class annotates it or builds it in ``__init__``.
    Nothing is inferred beyond that."""

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
        self._walk(tree, [(self._bindings(tree, tree.body, ""), False)], "")

    def _bindings(self, scope: ast.AST, body: List[ast.AST], owner: str) -> Dict[str, str]:
        """Name -> class for each name ``scope`` binds; empty where any of its
        bindings says nothing about the class."""
        bound: Dict[str, Set[str]] = {}
        if isinstance(scope, (*_FUNCTION_NODES, ast.Lambda)):
            args = scope.args
            every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            for index, arg in enumerate(arg for arg in every if arg is not None):
                receiver = index == 0 and owner and arg.arg in ("self", "cls")
                bound.setdefault(arg.arg, set()).add(
                    owner if receiver else _annotated(arg.annotation, self._known)
                )
        nodes = list(_own_nodes(body))
        typed: Dict[int, str] = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                typed.update((id(target), _built(node.value, self._known)) for target in node.targets)
            elif isinstance(node, ast.AnnAssign):
                typed[id(node.target)] = _annotated(node.annotation, self._known)
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
                scope = self._bindings(child, body, method_of)
                # A function does not see the class body around it.
                self._walk(child, [link for link in chain if not link[1]] + [(scope, False)], owner)
            elif isinstance(child, ast.ClassDef):
                self._walk(child, chain + [(self._bindings(child, child.body, ""), True)], child.name)
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

    def resolve(self, node: ast.expr) -> str:
        """The class ``node`` holds an instance of (or is); empty where the
        module does not say."""
        if isinstance(node, ast.Name):
            return self._names.get(id(node), "")
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value)
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
}

#: ``ALLOWED_SETTINGS`` may only shrink: lower this with every entry removed.
ALLOWED_SETTINGS_CEILING = 1

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
        "prober tests count probe writes; operations_issued() also counts reads still in flight",
    ),
}

#: ``ALLOWED_STATE`` may only shrink: lower this with every entry removed.
#: Raised from 8 to 9 for ``Cluster.anti_entropy``: it was unread before too,
#: but ``self.config.anti_entropy`` shared its name until that setting became
#: a constant.  Raised from 9 to 10 for ``RequestContext.operation``, which
#: ``benchmarks/ledger/layers.py`` passes by keyword: nothing in ``src/``
#: reads it, but ``result.operation`` kept every ``operation`` alive until
#: loads resolved their receiver.
ALLOWED_STATE_CEILING = 10

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
    """Every ``Class.parameter`` some call, splat, ``replace`` or store in
    the code under ``bases`` sets."""
    forwarders = _forwarders(_trees(bases))
    dataclass_fields: Dict[str, List[str]] = {}
    for name, cls in _classes().items():
        if cls.dataclass and cls.init is None:
            for param, _, _ in cls.fields:
                dataclass_fields.setdefault(param, []).append(f"{name}.{param}")
    found = set()
    for path in (path for base in bases for path in _files(base)):
        tree = _tree(path)
        resolver = _resolver(path)
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
            keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
            if callees == ("replace",):
                owner = resolver.resolve(node.args[0]) if node.args else ""
                receiver = _Receiver((owner,), False) if owner else None
                for keyword in keywords:
                    found.update(_settable(dataclass_fields.get(keyword, []), resolver, receiver))
            for target in (target for callee in callees for target in forwarders.get(callee, ())):
                found.update(
                    f"{owner}.{param}" for owner, param in _signature(target) if param in keywords
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
        "defaulted settings nothing in src/, benchmarks/ledger/ or examples/ "
        "sets - fold each into a module constant where it is used, keeping "
        "its value, or, if one of this file's three reasons holds, list them "
        "in ALLOWED_SETTINGS with it:\n"
        + "\n".join(f"  {where}  {name}" for name, where in sorted(unset.items(), key=lambda i: i[1]))
    )


def test_settings_allow_list_is_current_and_only_shrinks():
    problems = _allow_list_problems(
        "ALLOWED_SETTINGS", ALLOWED_SETTINGS, ALLOWED_SETTINGS_CEILING, _settings(), _unset_settings()
    )
    assert not problems, "stale ALLOWED_SETTINGS:\n  " + "\n  ".join(problems)


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
