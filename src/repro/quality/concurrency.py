"""Concurrency model backing the RPR5xx rules.

The file-scope rules before this family inspect one AST node at a time;
thread-safety properties live *between* nodes — a field is racy because
of how two methods disagree, a deadlock because of how two files order
their locks.  This module builds the three models that make those
properties checkable:

* a **per-class field-access model** (:class:`ClassModel`): which
  attributes each class declares as locks, which fields each method
  writes, and under which locks — including *ambient* locks inferred
  for private helpers that are only ever called with a lock held
  (``ResultCache._shrink`` never takes the lock itself; every caller
  does);
* **lock-scope tracking** (:class:`FunctionModel`): a structural walk
  of each function recording the set of held locks at every write,
  call, and blocking operation (``with lock:`` nesting, dataclass
  ``field(default_factory=threading.Lock)`` declarations, and the
  :mod:`repro.runtime.sanitize` factories are all recognized);
* a **project-wide lock-ordering graph** (:class:`LockGraph`): nodes
  are lock *roles* (``module.Class.attr``), edges mean "acquired the
  target while holding the source", propagated through the project call
  graph (``self.helper()``, same-module calls, imported functions, and
  module-level singletons like ``metrics``), with SCC-based cycle
  detection.  ``repro lint-code --lock-graph-out`` exports it as JSON.

Everything here is deliberately syntactic: no type inference beyond
constructor assignments, nested functions and lambdas are not entered
(their execution time is unknown), and unresolvable calls contribute
nothing.  The rules built on top prefer missed findings over false
ones — the self-gate keeps ``src/repro`` at zero.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.quality.engine import FileContext, ImportMap, ProjectContext

#: Constructor origins that create a lock, and the kind they create.
_LOCK_CTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "repro.runtime.sanitize.make_lock": "lock",
    "repro.runtime.sanitize.make_rlock": "rlock",
    "repro.runtime.sanitize.make_condition": "condition",
    "repro.runtime.sanitize.lock_factory": "lock",
    "repro.runtime.make_lock": "lock",
    "repro.runtime.make_rlock": "rlock",
    "repro.runtime.make_condition": "condition",
}

#: Method names that mutate their receiver in place: a call
#: ``self.X.append(...)`` counts as a write to field ``X``.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "remove", "discard",
    "pop", "popitem", "popleft", "clear", "update", "setdefault",
    "move_to_end", "sort", "reverse",
})

#: Methods whose writes are construction, not concurrent mutation.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Batch entry points that run every task before returning (RPR503).
_BATCH_DISPATCH = frozenset({
    "repro.runtime.executor.run_nmf_fits",
    "repro.runtime.run_nmf_fits",
})

#: ``subprocess`` entry points that block on a child process.
_SUBPROCESS_CALLS = frozenset({
    "run", "call", "check_call", "check_output", "Popen",
    "getoutput", "getstatusoutput",
})


def module_name_of(path: str) -> str:
    """Dotted module name for ``path`` (``src/repro/a/b.py`` → ``repro.a.b``).

    Falls back to the file stem for paths outside a ``src`` root (test
    fixtures), which keeps node ids stable and human-readable.
    """
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or Path(path).stem


def _resolve_origin(imports: ImportMap, node: ast.expr) -> str | None:
    """Dotted origin of an expression (``resolve_call`` on non-calls too)."""
    return imports.resolve_call(node)


def _lock_ctor_kind(imports: ImportMap, value: ast.expr) -> str | None:
    """Lock kind created by ``value``, or ``None``.

    Recognizes direct constructor calls (``threading.Lock()``,
    ``make_lock("name")``), bare factory references
    (``field(default_factory=threading.Lock)``), and lambdas returning a
    constructor call (``lambda: make_lock("name")``).
    """
    if isinstance(value, ast.Call):
        origin = _resolve_origin(imports, value.func)
        if origin in _LOCK_CTORS:
            return _LOCK_CTORS[origin]
        return None
    if isinstance(value, (ast.Name, ast.Attribute)):
        origin = _resolve_origin(imports, value)
        if origin in _LOCK_CTORS:
            return _LOCK_CTORS[origin]
        return None
    if isinstance(value, ast.Lambda):
        return _lock_ctor_kind(imports, value.body)
    return None


def _field_default_factory(
    imports: ImportMap, value: ast.expr
) -> ast.expr | None:
    """The ``default_factory=`` expression of a ``dataclasses.field`` call."""
    if not isinstance(value, ast.Call):
        return None
    origin = _resolve_origin(imports, value.func)
    if origin not in ("dataclasses.field", "dataclasses.field.field"):
        if not (isinstance(value.func, ast.Name) and value.func.id == "field"):
            return None
    for kw in value.keywords:
        if kw.arg == "default_factory":
            return kw.value
    return None


def _self_root(node: ast.expr) -> str | None:
    """First attribute after ``self`` in an attribute/subscript chain.

    ``self.stats.hits`` → ``"stats"``; ``self._mem[k]`` → ``"_mem"``;
    anything not rooted at ``self`` → ``None``.
    """
    chain: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def _walk_no_nested(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not enter nested function/class/lambda bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


# -- per-function facts ------------------------------------------------------


@dataclass(frozen=True)
class FieldWrite:
    """One write to ``self.<field>`` (or a module global), with held locks."""

    target: str
    line: int
    col: int
    locks: frozenset[str]
    method: str


@dataclass(frozen=True)
class BlockingCall:
    """A blocking operation performed while at least one lock was held."""

    line: int
    col: int
    what: str
    locks: frozenset[str]


@dataclass(frozen=True)
class AcquireEvent:
    """``with <lock>:`` entered while ``held_before`` were already held."""

    lock: str
    line: int
    held_before: tuple[str, ...]


@dataclass(frozen=True)
class BareAcquire:
    """A ``.acquire()`` call outside a ``with`` statement."""

    lock: str
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """A resolvable-looking call, with the locks held when it was made.

    ``target`` is symbolic until project resolution:
    ``("self", meth)``, ``("selfattr", attr, meth)``,
    ``("bare", name)``, or ``("dotted", base, meth)``.
    """

    target: tuple
    line: int
    locks: frozenset[str]


@dataclass
class FunctionModel:
    """Everything the rules need to know about one function or method."""

    name: str
    node: ast.AST
    writes: list[FieldWrite] = field(default_factory=list)
    global_writes: list[FieldWrite] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    acquires: list[AcquireEvent] = field(default_factory=list)
    bare_acquires: list[BareAcquire] = field(default_factory=list)
    finally_releases: set[str] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)


def _bound_local_names(
    node: ast.FunctionDef | ast.AsyncFunctionDef, global_names: set[str]
) -> frozenset[str]:
    """Names bound locally in ``node``: parameters plus bare assignments.

    Used to decide whether a bare name mutation (``cache[k] = v``)
    targets a module global or a local that shadows one.
    """
    args = node.args
    bound: set[str] = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *(a for a in (args.vararg, args.kwarg) if a is not None),
        )
    }
    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [sub.target]
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            targets = [sub.optional_vars]
        for target in targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            for elt in elts:
                if isinstance(elt, ast.Name):
                    bound.add(elt.id)
    return frozenset(bound - global_names)


class _FunctionScanner:
    """Walk one function body tracking the held-lock set structurally."""

    def __init__(
        self,
        model: FunctionModel,
        *,
        imports: ImportMap,
        class_locks: frozenset[str],
        module_locks: frozenset[str],
        attr_types: dict[str, str],
        global_names: set[str],
        module_mutables: frozenset[str] = frozenset(),
        is_init: bool,
    ) -> None:
        self.model = model
        self.imports = imports
        self.class_locks = class_locks
        self.module_locks = module_locks
        self.attr_types = attr_types
        self.global_names = global_names
        self.module_mutables = module_mutables
        self.is_init = is_init
        self.local_locks: dict[str, str] = {}
        self.local_types: dict[str, str] = {}
        self.local_bound = _bound_local_names(model.node, global_names)

    def _is_global_name(self, name: str) -> bool:
        """Does a bare ``name`` in this function denote a module global?

        ``global``-declared names always do.  Otherwise a name refers to
        the module binding only when the module assigns it and the
        function never rebinds it locally (parameters included).
        """
        if name in self.global_names:
            return True
        return name in self.module_mutables and name not in self.local_bound

    # -- lock expression recognition -----------------------------------------

    def _lock_key(self, node: ast.expr) -> str | None:
        """Held-lock key for an expression, or ``None`` if not a known lock."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.class_locks
        ):
            return f"attr:{node.attr}"
        if isinstance(node, ast.Name):
            if node.id in self.local_locks:
                return f"loc:{node.id}"
            if node.id in self.module_locks:
                return f"mod:{node.id}"
        return None

    def _receiver_type(self, node: ast.expr) -> str | None:
        """Constructor origin of a call receiver, when tracked."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self.attr_types.get(node.attr)
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        return None

    # -- driver --------------------------------------------------------------

    def scan(self, body: list[ast.stmt]) -> None:
        self._scan_body(body, ())

    def _scan_body(self, body: list[ast.stmt], locks: tuple[str, ...]) -> None:
        for stmt in body:
            self._scan_stmt(stmt, locks)

    def _scan_stmt(self, stmt: ast.stmt, locks: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions run at an unknown time
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in stmt.items:
                self._scan_expr(item.context_expr, locks + tuple(acquired))
                key = self._lock_key(item.context_expr)
                if key is not None:
                    self.model.acquires.append(AcquireEvent(
                        lock=key,
                        line=item.context_expr.lineno,
                        held_before=locks + tuple(acquired),
                    ))
                    acquired.append(key)
            self._scan_body(stmt.body, locks + tuple(acquired))
            return
        if isinstance(stmt, ast.Try):
            for call in self._release_calls(stmt.finalbody):
                key = self._lock_key(call.func.value)
                if key is not None:
                    self.model.finally_releases.add(key)
            self._scan_body(stmt.body, locks)
            for handler in stmt.handlers:
                self._scan_body(handler.body, locks)
            self._scan_body(stmt.orelse, locks)
            self._scan_body(stmt.finalbody, locks)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test, locks)
            self._scan_body(stmt.body, locks)
            self._scan_body(stmt.orelse, locks)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, locks)
            self._record_write_target(stmt.target, locks)
            self._scan_body(stmt.body, locks)
            self._scan_body(stmt.orelse, locks)
            return
        if isinstance(stmt, ast.Assign):
            self._track_local(stmt)
            for target in stmt.targets:
                self._record_write_target(target, locks)
            self._scan_expr(stmt.value, locks)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_write_target(stmt.target, locks)
            self._scan_expr(stmt.value, locks)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._record_write_target(stmt.target, locks)
            if stmt.value is not None:
                self._scan_expr(stmt.value, locks)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_write_target(target, locks)
            return
        if isinstance(stmt, (ast.Expr, ast.Return, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, locks)
            return
        # Remaining statements (match, imports, pass, ...) — scan any
        # expressions generically, same lockset.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, locks)
            elif isinstance(child, ast.stmt):
                self._scan_stmt(child, locks)
            elif isinstance(child, list):  # pragma: no cover - ast never lists here
                pass

    @staticmethod
    def _release_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"
                ):
                    yield node

    # -- facts ---------------------------------------------------------------

    def _track_local(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        kind = _lock_ctor_kind(self.imports, stmt.value)
        if kind is not None:
            self.local_locks[name] = kind
            return
        if isinstance(stmt.value, ast.Call):
            origin = _resolve_origin(self.imports, stmt.value.func)
            if origin is not None:
                self.local_types[name] = origin

    def _record_write_target(self, target: ast.expr, locks: tuple[str, ...]) -> None:
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._record_write_target(elt, locks)
            return
        root = _self_root(target)
        if root is not None:
            if not self.is_init:
                self.model.writes.append(FieldWrite(
                    target=root, line=target.lineno, col=target.col_offset,
                    locks=frozenset(locks), method=self.model.name,
                ))
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                self.model.global_writes.append(FieldWrite(
                    target=target.id, line=target.lineno,
                    col=target.col_offset,
                    locks=frozenset(locks), method=self.model.name,
                ))
            return
        # Mutation through a module-level container: ``cache[k] = v`` or
        # ``cache.field = v`` where ``cache`` is a module global.
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name) and self._is_global_name(base.id):
            self.model.global_writes.append(FieldWrite(
                target=base.id, line=target.lineno, col=target.col_offset,
                locks=frozenset(locks), method=self.model.name,
            ))

    def _scan_expr(self, expr: ast.expr, locks: tuple[str, ...]) -> None:
        lockset = frozenset(locks)
        for node in _walk_no_nested(expr):
            if not isinstance(node, ast.Call):
                continue
            self._record_call(node, lockset)
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _MUTATORS and not self.is_init:
                    root = _self_root(func.value)
                    if root is not None:
                        self.model.writes.append(FieldWrite(
                            target=root, line=node.lineno, col=node.col_offset,
                            locks=lockset, method=self.model.name,
                        ))
                    elif (
                        isinstance(func.value, ast.Name)
                        and self._is_global_name(func.value.id)
                    ):
                        self.model.global_writes.append(FieldWrite(
                            target=func.value.id, line=node.lineno,
                            col=node.col_offset,
                            locks=lockset, method=self.model.name,
                        ))
                if func.attr == "acquire":
                    key = self._lock_key(func.value)
                    if key is not None:
                        self.model.bare_acquires.append(BareAcquire(
                            lock=key, line=node.lineno, col=node.col_offset,
                        ))
            if lockset and isinstance(func, (ast.Attribute, ast.Name)):
                self._check_blocking(node, func, lockset)

    def _record_call(self, node: ast.Call, lockset: frozenset[str]) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.model.calls.append(CallSite(
                target=("bare", func.id), line=node.lineno, locks=lockset,
            ))
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                self.model.calls.append(CallSite(
                    target=("self", func.attr), line=node.lineno, locks=lockset,
                ))
            else:
                self.model.calls.append(CallSite(
                    target=("dotted", base.id, func.attr),
                    line=node.lineno, locks=lockset,
                ))
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            self.model.calls.append(CallSite(
                target=("selfattr", base.attr, func.attr),
                line=node.lineno, locks=lockset,
            ))

    def _check_blocking(
        self, node: ast.Call, func: ast.Attribute | ast.Name, lockset: frozenset[str]
    ) -> None:
        origin = _resolve_origin(self.imports, func)
        if origin is not None:
            if origin in _BATCH_DISPATCH:
                self.model.blocking.append(BlockingCall(
                    line=node.lineno, col=node.col_offset,
                    what=f"{origin.rsplit('.', 1)[-1]}() runs a task batch",
                    locks=lockset,
                ))
                return
            parts = origin.split(".")
            if parts[0] == "subprocess" and parts[-1] in _SUBPROCESS_CALLS:
                self.model.blocking.append(BlockingCall(
                    line=node.lineno, col=node.col_offset,
                    what=f"subprocess.{parts[-1]}() blocks on a child process",
                    locks=lockset,
                ))
                return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "result":
            self.model.blocking.append(BlockingCall(
                line=node.lineno, col=node.col_offset,
                what=".result() blocks on another thread's progress",
                locks=lockset,
            ))
            return
        if func.attr in ("get", "join"):
            rtype = self._receiver_type(func.value)
            if rtype is None:
                return
            is_queue = rtype.split(".")[0] == "queue"
            is_thread = rtype == "threading.Thread"
            if not (is_queue or is_thread):
                return
            if self._has_timeout(node, func.attr):
                return
            self.model.blocking.append(BlockingCall(
                line=node.lineno, col=node.col_offset,
                what=f".{func.attr}() without a timeout blocks indefinitely",
                locks=lockset,
            ))

    @staticmethod
    def _has_timeout(node: ast.Call, attr: str) -> bool:
        if any(kw.arg == "timeout" for kw in node.keywords):
            return True
        # Positional timeout: Queue.get(block, timeout) / Thread.join(timeout).
        needed = 2 if attr == "get" else 1
        return len(node.args) >= needed


# -- per-class / per-file models ---------------------------------------------


@dataclass(frozen=True)
class LockDecl:
    """One declared lock: attribute or module global."""

    name: str
    kind: str  # "lock" | "rlock" | "condition"
    line: int


@dataclass
class ClassModel:
    """Locks, typed attributes, and per-method facts for one class."""

    name: str
    module: str
    path: str
    node: ast.ClassDef
    locks: dict[str, LockDecl] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, FunctionModel] = field(default_factory=dict)
    ambient: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    def effective_locks(self, write: FieldWrite) -> frozenset[str]:
        """Held locks at a write, including the method's ambient set."""
        return write.locks | self.ambient.get(write.method, frozenset())


@dataclass
class FileModel:
    """Everything :mod:`rules_concurrency` needs from one file."""

    ctx: FileContext
    module: str
    classes: list[ClassModel] = field(default_factory=list)
    functions: dict[str, FunctionModel] = field(default_factory=dict)
    module_locks: dict[str, LockDecl] = field(default_factory=dict)
    #: Module-level singletons: name → constructor origin (dotted).
    instances: dict[str, str] = field(default_factory=dict)
    #: Classes defined in this module, by bare name.
    class_names: set[str] = field(default_factory=set)


def _scan_class(ctx: FileContext, module: str, node: ast.ClassDef) -> ClassModel:
    imports = ctx.imports
    model = ClassModel(name=node.name, module=module, path=ctx.path, node=node)
    local_classes = {
        n.name for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)
    }

    # Pass 1: lock and attribute-type declarations.
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is None:
                continue
            factory = _field_default_factory(imports, stmt.value)
            candidate = factory if factory is not None else stmt.value
            kind = _lock_ctor_kind(imports, candidate)
            if kind is not None:
                model.locks[stmt.target.id] = LockDecl(
                    stmt.target.id, kind, stmt.lineno
                )
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                kind = _lock_ctor_kind(imports, stmt.value)
                if kind is not None:
                    model.locks[target.id] = LockDecl(
                        target.id, kind, stmt.lineno
                    )
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name not in _INIT_METHODS:
            continue
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            kind = _lock_ctor_kind(imports, sub.value)
            if kind is not None:
                model.locks[target.attr] = LockDecl(target.attr, kind, sub.lineno)
                continue
            if isinstance(sub.value, ast.Call):
                origin = _resolve_origin(imports, sub.value.func)
                if origin is None and isinstance(sub.value.func, ast.Name):
                    if sub.value.func.id in local_classes:
                        origin = f"{module}.{sub.value.func.id}"
                if origin is not None:
                    model.attr_types[target.attr] = origin

    # Pass 2: method scans with the declared locks in scope.
    class_locks = frozenset(model.locks)
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fm = FunctionModel(name=stmt.name, node=stmt)
        scanner = _FunctionScanner(
            fm,
            imports=imports,
            class_locks=class_locks,
            module_locks=frozenset(),
            attr_types=model.attr_types,
            global_names=set(),
            is_init=stmt.name in _INIT_METHODS,
        )
        scanner.scan(stmt.body)
        model.methods[stmt.name] = fm

    _infer_ambient(model)
    return model


def _infer_ambient(model: ClassModel) -> None:
    """Fixpoint ambient-lock inference for private helper methods.

    A private method (leading underscore, not a dunder) called only from
    inside the class inherits the *intersection* of the locks held at
    its intra-class call sites: if every caller holds ``_lock``, the
    helper's writes are lock-protected even though it never acquires
    anything.  Starting from "all class locks" and shrinking keeps the
    fixpoint monotone; public methods and never-called helpers get the
    empty set (callable from anywhere).
    """
    all_locks = frozenset(f"attr:{name}" for name in model.locks)
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for caller, fm in model.methods.items():
        for call in fm.calls:
            if call.target[0] == "self" and call.target[1] in model.methods:
                sites.setdefault(call.target[1], []).append((caller, call.locks))

    def is_private(name: str) -> bool:
        return name.startswith("_") and not (
            name.startswith("__") and name.endswith("__")
        )

    ambient = {
        name: (all_locks if is_private(name) and name in sites else frozenset())
        for name in model.methods
    }
    for _ in range(len(model.methods) + 2):
        changed = False
        for name, call_sites in sites.items():
            if not is_private(name):
                continue
            inferred = None
            for caller, locks in call_sites:
                here = locks | ambient.get(caller, frozenset())
                inferred = here if inferred is None else (inferred & here)
            inferred = inferred if inferred is not None else frozenset()
            if inferred != ambient[name]:
                ambient[name] = inferred
                changed = True
        if not changed:
            break
    model.ambient = ambient


def _scan_module(ctx: FileContext) -> FileModel:
    module = module_name_of(ctx.path)
    model = FileModel(ctx=ctx, module=module)
    imports = ctx.imports
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.ClassDef):
            model.class_names.add(stmt.name)
            model.classes.append(_scan_class(ctx, module, stmt))
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = _lock_ctor_kind(imports, stmt.value)
            if kind is not None:
                model.module_locks[target.id] = LockDecl(
                    target.id, kind, stmt.lineno
                )
            elif isinstance(stmt.value, ast.Call):
                origin = _resolve_origin(imports, stmt.value.func)
                if origin is None and isinstance(stmt.value.func, ast.Name):
                    if isinstance(stmt.value.func, ast.Name):
                        name = stmt.value.func.id
                        if any(
                            isinstance(n, ast.ClassDef) and n.name == name
                            for n in ctx.tree.body
                        ):
                            origin = f"{module}.{name}"
                if origin is not None:
                    model.instances[target.id] = origin

    module_locks = frozenset(model.module_locks)
    module_mutables = frozenset(
        target.id
        for stmt in ctx.tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        if isinstance(target, ast.Name)
    ) - module_locks
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        global_names = {
            name
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Global)
            for name in sub.names
        }
        fm = FunctionModel(name=stmt.name, node=stmt)
        scanner = _FunctionScanner(
            fm,
            imports=imports,
            class_locks=frozenset(),
            module_locks=module_locks,
            attr_types={},
            global_names=global_names,
            module_mutables=module_mutables,
            is_init=False,
        )
        scanner.scan(stmt.body)
        model.functions[stmt.name] = fm
    return model


def file_model(ctx: FileContext) -> FileModel:
    """The (memoized) concurrency model for one parsed file."""
    cached = getattr(ctx, "_concurrency_model", None)
    if cached is None:
        cached = _scan_module(ctx)
        ctx._concurrency_model = cached  # type: ignore[attr-defined]
    return cached


def display_lock(key: str) -> str:
    """Human form of a held-lock key (``attr:_lock`` → ``self._lock``)."""
    prefix, _, name = key.partition(":")
    if prefix == "attr":
        return f"self.{name}"
    return name


# -- the project-wide lock graph ---------------------------------------------


@dataclass(frozen=True)
class LockEdge:
    """``src`` was held when ``dst`` was acquired, at ``path:line``."""

    src: str
    dst: str
    path: str
    line: int


@dataclass
class LockGraph:
    """Project lock-ordering graph with deterministic cycle detection."""

    nodes: dict[str, str] = field(default_factory=dict)  # id → kind
    edges: dict[tuple[str, str], LockEdge] = field(default_factory=dict)

    def add_edge(self, src: str, dst: str, path: str, line: int) -> None:
        key = (src, dst)
        prior = self.edges.get(key)
        if prior is None or (path, line) < (prior.path, prior.line):
            self.edges[key] = LockEdge(src, dst, path, line)

    def cycles(self) -> list[list[str]]:
        """Strongly connected components with a real cycle, sorted.

        Each cycle is the sorted node list of one SCC of size ≥ 2, plus
        any single node with a self-edge on a non-reentrant lock.
        """
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]
        adjacency: dict[str, list[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        for targets in adjacency.values():
            targets.sort()

        def strongconnect(v: str) -> None:
            # Iterative Tarjan: recursion depth is unbounded on long chains.
            work = [(v, 0)]
            while work:
                node, i = work.pop()
                if i == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                targets = adjacency.get(node, [])
                while i < len(targets):
                    w = targets[i]
                    i += 1
                    if w not in index:
                        work.append((node, i))
                        work.append((w, 0))
                        recurse = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if recurse:
                    continue
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for node in sorted(self.nodes):
            if node not in index and node in adjacency:
                strongconnect(node)
        for src, dst in self.edges:
            if src == dst and self.nodes.get(src) != "rlock":
                sccs.append([src])
        return sorted(sccs)

    def cycle_edges(self, cycle: list[str]) -> list[LockEdge]:
        members = set(cycle)
        return sorted(
            (
                e for (s, d), e in self.edges.items()
                if s in members and d in members
            ),
            key=lambda e: (e.path, e.line, e.src, e.dst),
        )

    def to_doc(self) -> dict:
        """JSON-ready form (the ``lock-graph.json`` CI artifact)."""
        return {
            "version": 1,
            "nodes": [
                {"id": node, "kind": kind}
                for node, kind in sorted(self.nodes.items())
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "path": e.path, "line": e.line}
                for (_, _), e in sorted(self.edges.items())
            ],
            "cycles": self.cycles(),
        }


def build_lock_graph(project: ProjectContext) -> LockGraph:
    """Assemble the cross-file lock-ordering graph for a project.

    Per-function acquisition summaries are propagated through the
    resolvable call graph (bounded fixpoint), then every "call made
    while holding H" contributes edges from each lock of H to every
    lock the callee may acquire.
    """
    models = [file_model(ctx) for ctx in project.files]
    graph = LockGraph()

    class_index: dict[str, ClassModel] = {}
    func_index: dict[str, FunctionModel] = {}
    func_home: dict[str, tuple[FileModel, ClassModel | None]] = {}
    instance_types: dict[tuple[str, str], str] = {}
    for fmodel in models:
        for cm in fmodel.classes:
            class_index[cm.qualname] = cm
            for lock in cm.locks.values():
                graph.nodes[f"{cm.qualname}.{lock.name}"] = lock.kind
            for mname, mm in cm.methods.items():
                qual = f"{cm.qualname}.{mname}"
                func_index[qual] = mm
                func_home[qual] = (fmodel, cm)
        for lock in fmodel.module_locks.values():
            graph.nodes[f"{fmodel.module}.{lock.name}"] = lock.kind
        for fname, fn in fmodel.functions.items():
            qual = f"{fmodel.module}.{fname}"
            func_index[qual] = fn
            func_home[qual] = (fmodel, None)
        for name, origin in fmodel.instances.items():
            instance_types[(fmodel.module, name)] = origin

    def node_id(key: str, cm: ClassModel | None, fmodel: FileModel) -> str | None:
        prefix, _, name = key.partition(":")
        if prefix == "attr" and cm is not None:
            return f"{cm.qualname}.{name}"
        if prefix == "mod":
            return f"{fmodel.module}.{name}"
        return None  # local locks stay function-private

    def resolve_target(
        target: tuple, fmodel: FileModel, cm: ClassModel | None
    ) -> str | None:
        kind = target[0]
        if kind == "self" and cm is not None:
            qual = f"{cm.qualname}.{target[1]}"
            return qual if qual in func_index else None
        if kind == "selfattr" and cm is not None:
            origin = cm.attr_types.get(target[1])
            if origin is None:
                return None
            qual = f"{origin}.{target[2]}"
            return qual if qual in func_index else None
        if kind == "bare":
            qual = f"{fmodel.module}.{target[1]}"
            if qual in func_index:
                return qual
            member = fmodel.ctx.imports.members.get(target[1])
            if member is not None:
                qual = f"{member[0]}.{member[1]}"
                if qual in func_index:
                    return qual
            return None
        if kind == "dotted":
            base, meth = target[1], target[2]
            origin = instance_types.get((fmodel.module, base))
            if origin is None:
                member = fmodel.ctx.imports.members.get(base)
                if member is not None:
                    origin = instance_types.get(member)
                    if origin is None and f"{member[0]}.{member[1]}.{meth}" in func_index:
                        return f"{member[0]}.{member[1]}.{meth}"
                mod = fmodel.ctx.imports.modules.get(base)
                if origin is None and mod is not None:
                    qual = f"{mod}.{meth}"
                    return qual if qual in func_index else None
            if origin is not None:
                qual = f"{origin}.{meth}"
                return qual if qual in func_index else None
        return None

    direct: dict[str, set[str]] = {}
    resolved_calls: dict[str, list[tuple[str, int, frozenset[str]]]] = {}
    for qual, fn in func_index.items():
        fmodel, cm = func_home[qual]
        acquired: set[str] = set()
        for event in fn.acquires:
            nid = node_id(event.lock, cm, fmodel)
            if nid is not None:
                acquired.add(nid)
                for held in event.held_before:
                    hid = node_id(held, cm, fmodel)
                    if hid is not None and hid != nid:
                        graph.add_edge(hid, nid, fmodel.ctx.path, event.line)
        direct[qual] = acquired
        calls: list[tuple[str, int, frozenset[str]]] = []
        for call in fn.calls:
            callee = resolve_target(call.target, fmodel, cm)
            if callee is not None and callee != qual:
                calls.append((callee, call.line, call.locks))
        resolved_calls[qual] = calls

    effective = {qual: set(locks) for qual, locks in direct.items()}
    for _ in range(len(func_index) + 2):
        changed = False
        for qual, calls in resolved_calls.items():
            mine = effective[qual]
            before = len(mine)
            for callee, _, _ in calls:
                mine |= effective.get(callee, set())
            if len(mine) != before:
                changed = True
        if not changed:
            break

    for qual, calls in resolved_calls.items():
        fmodel, cm = func_home[qual]
        for callee, line, locks in calls:
            if not locks:
                continue
            held_ids = [
                hid for hid in (node_id(k, cm, fmodel) for k in locks)
                if hid is not None
            ]
            if not held_ids:
                continue
            for acquired_id in effective.get(callee, ()):
                for hid in held_ids:
                    if hid != acquired_id:
                        graph.add_edge(hid, acquired_id, fmodel.ctx.path, line)
    return graph
