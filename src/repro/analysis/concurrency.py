"""Concurrency-safety lint over the repo's own Python sources.

The serving stack is concurrent three different ways at once — handler
threads over a shared :class:`~repro.storage.pool.ConnectionPool`, an
asyncio front end whose event loop must never block, and ``spawn``-ed
``multiprocessing`` workers whose state crosses a pickle boundary.  Each
discipline is easy to state, easy to break in review, and invisible to
pytest until the failure is a stalled loop or a deadlock under load.
This pass checks them statically, :mod:`ast`-based like
:mod:`repro.analysis.codelint` (no imports of the linted code):

``async-blocking`` (error)
    A blocking call — sqlite3 / pool / :class:`PolicyServer` work,
    ``time.sleep``, file or socket I/O — directly inside an ``async
    def`` body.  The executor-routing idiom of :mod:`repro.net.httpd`
    (wrap the work in a nested ``def``/lambda and hand the *function*
    to the request core's ``run``, which the async transport sends to
    ``run_in_executor``) is recognized and not flagged: the walker
    does not descend into nested non-async functions, and a call that
    is itself ``await``-ed is assumed to be a coroutine.

``bare-acquire`` (error)
    An explicit ``lock.acquire()`` with no matching ``lock.release()``
    in a ``finally`` block of the same function: an exception in
    between leaves the lock held forever.  ``with lock:`` never emits
    an ``acquire`` call node, so the idiomatic form passes by
    construction.

``double-acquire`` (error)
    While lexically inside ``with self.<lock>`` — where ``<lock>`` was
    assigned ``threading.Lock()`` (non-reentrant) in ``__init__`` —
    the method calls another method of the same class that takes the
    same lock, or nests ``with self.<lock>`` directly: a guaranteed
    self-deadlock.  RLocks are exempt (re-entry is their point).

``unguarded-attribute`` (warning)
    In a class that owns a ``threading.Lock``/``RLock`` attribute, an
    instance attribute written under ``with self.<lock>`` on one path
    and with no lock on another (``__init__`` excluded — construction
    happens-before publication).  Mixed guarding means the lock
    protects nothing.

``spawn-target`` (error)
    A ``multiprocessing`` ``Process(target=...)`` whose target is a
    lambda, a bound method / attribute, or a function nested inside
    the calling function.  Under the ``spawn`` start method the child
    unpickles the target; only module-level functions survive that
    without dragging the parent's object graph (locks, sockets,
    pools) across.

``spawn-config-mutable`` (error)
    A ``*Config`` dataclass (the worker-config naming convention) that
    is not ``frozen=True``, or that declares a field with a mutable
    annotation (``list``/``dict``/``set``/bare ``Any``...).  Spawned
    workers receive configs by pickle; mutable state silently forks
    between parent and child.

Findings share the :mod:`repro.analysis.findings` model and the
``lint-baseline.json`` grandfather machinery; ``p3pdb lint
--concurrency`` runs this pass and ``--explain <rule-id>`` prints the
rule catalog entry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Sequence

from repro.analysis.codelint import _package_parts, iter_python_files
from repro.analysis.findings import Finding

#: Method names whose call blocks the thread on database work.  The
#: execute-family mirrors codelint's EXECUTE_METHODS plus the commit/
#: restore verbs; the server-facing names are the PolicyServer calls the
#: async front end must route through its executor.
BLOCKING_DB_METHODS = frozenset({
    "execute", "executemany", "executescript",
    "query", "query_one", "scalar", "explain",
    "commit", "rollback", "restore_backup",
})

BLOCKING_SERVER_METHODS = frozenset({
    "serve_many", "match_all", "install_policy", "register_preference",
    "install_reference_file", "flush_log",
})

#: Socket verbs that park the calling thread (asyncio streams expose
#: none of these — reader/writer use read()/write(), which are safe and
#: deliberately absent here).
BLOCKING_SOCKET_METHODS = frozenset({"recv", "accept", "sendall"})

#: pathlib I/O that hits the filesystem synchronously.
BLOCKING_PATH_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: Field annotations a spawn-crossing config dataclass may use: scalars
#: and immutable containers, optionally unioned with None.
_IMMUTABLE_ANNOTATIONS = frozenset({
    "int", "str", "float", "bool", "bytes", "tuple", "frozenset", "None",
})


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for non-name receivers."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _scoped_nodes(func: ast.AST):
    """Every node in *func*'s own scope — nested ``def``/``lambda``
    bodies excluded (they are their own scopes, visited separately)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_blocking_call(node: ast.Call) -> str | None:
    """The reason *node* blocks the thread, or None if it does not."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open() performs synchronous file I/O"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Name):
        if receiver.id == "time" and func.attr == "sleep":
            return "time.sleep stalls the event loop"
        if receiver.id == "sqlite3" and func.attr == "connect":
            return "sqlite3.connect blocks on filesystem I/O"
    # pool.read() / pool.write() — only when the receiver *is* a pool
    # attribute, so asyncio StreamWriter.write()/StreamReader.read()
    # never match.
    if func.attr in ("read", "write"):
        if ((isinstance(receiver, ast.Attribute)
                and receiver.attr == "pool")
                or (isinstance(receiver, ast.Name)
                    and receiver.id == "pool")):
            return (f"pool.{func.attr}() takes a database connection "
                    "(and possibly the writer lock)")
        return None
    if func.attr in BLOCKING_DB_METHODS:
        return f".{func.attr}() executes database work synchronously"
    if func.attr in BLOCKING_SERVER_METHODS:
        return (f".{func.attr}() is a PolicyServer call that reads or "
                "writes the database")
    if func.attr in BLOCKING_SOCKET_METHODS:
        return f".{func.attr}() blocks on socket I/O"
    if func.attr in BLOCKING_PATH_METHODS:
        return f".{func.attr}() performs synchronous file I/O"
    return None


class _AsyncBodyWalker:
    """Walk an ``async def`` body without entering nested sync scopes.

    Nested ``def``/``lambda`` bodies are exactly the executor-routing
    idiom (the work is *defined* inline but *executed* on the pool), so
    descending into them would flag the one correct pattern.  Nested
    ``async def``s get their own visit from the linter, so they are
    skipped here too.
    """

    def __init__(self, report) -> None:
        self._report = report

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Await):
            # An awaited call is a coroutine by definition; its
            # *arguments* are still evaluated synchronously.
            value = node.value
            if isinstance(value, ast.Call):
                for child in ast.iter_child_nodes(value):
                    if child is not value.func:
                        self._visit(child)
                return
            self._visit(value)
            return
        if isinstance(node, ast.Call):
            reason = _is_blocking_call(node)
            if reason is not None:
                self._report(node, reason)
        for child in ast.iter_child_nodes(node):
            self._visit(child)


def _lock_attributes(cls: ast.ClassDef) -> dict[str, bool]:
    """``{attr: reentrant}`` for every ``self.X = threading.[R]Lock()``
    (or bare ``Lock()``/``RLock()``) assignment in the class body."""
    locks: dict[str, bool] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call):
            continue
        func = node.value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name not in ("Lock", "RLock"):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                locks[target.attr] = name == "RLock"
    return locks


def _with_lock_names(node: ast.With, locks: dict[str, bool]) -> set[str]:
    """Which of *locks* this ``with`` statement acquires."""
    held: set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in locks):
            held.add(expr.attr)
    return held


def _methods_by_name(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {item.name: item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _method_acquires(method: ast.FunctionDef,
                     locks: dict[str, bool]) -> set[str]:
    """Locks *method* takes anywhere in its own (non-nested) body."""
    taken: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not method:
            return
        if isinstance(node, ast.With):
            taken.update(_with_lock_names(node, locks))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(method)
    return taken


class _Linter(ast.NodeVisitor):
    def __init__(self, rel_path: str, parts: tuple[str, ...]):
        self.rel_path = rel_path
        self.parts = parts
        self.findings: list[Finding] = []

    def _report(self, severity: str, code: str, message: str,
                node: ast.AST) -> None:
        self.findings.append(Finding(
            severity, code, message,
            path=self.rel_path, line=getattr(node, "lineno", None),
        ))

    # -- async-blocking ------------------------------------------------------

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        def report(call: ast.Call, reason: str) -> None:
            self._report(
                "error", "async-blocking",
                f"blocking call in async def {node.name!r}: {reason} — "
                "wrap the work in a function and run it via "
                "loop.run_in_executor (the request core's run(fn) idiom)",
                call,
            )

        _AsyncBodyWalker(report).walk(node.body)
        self._check_bare_acquires(node)
        self.generic_visit(node)

    # -- bare-acquire --------------------------------------------------------

    def _function_releases_in_finally(self, func: ast.AST,
                                      receiver: str) -> bool:
        for node in _scoped_nodes(func):
            if not isinstance(node, ast.Try):
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "release"
                            and _dotted(sub.func.value) == receiver):
                        return True
        return False

    def _check_bare_acquires(self, func: ast.AST) -> None:
        for node in _scoped_nodes(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"):
                receiver = _dotted(node.func.value)
                if receiver is None:
                    continue
                if not self._function_releases_in_finally(func, receiver):
                    self._report(
                        "error", "bare-acquire",
                        f"{receiver}.acquire() has no matching "
                        f"{receiver}.release() in a finally block: an "
                        "exception in between leaves the lock held — "
                        "use `with` or try/finally",
                        node,
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_bare_acquires(node)
        self.generic_visit(node)

    # -- class-scoped rules --------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_spawn_config(node)
        locks = _lock_attributes(node)
        if locks:
            self._check_double_acquire(node, locks)
            self._check_unguarded_attributes(node, locks)
        self.generic_visit(node)

    def _check_double_acquire(self, cls: ast.ClassDef,
                              locks: dict[str, bool]) -> None:
        nonreentrant = {name for name, reentrant in locks.items()
                        if not reentrant}
        if not nonreentrant:
            return
        methods = _methods_by_name(cls)
        acquires = {name: _method_acquires(method, locks)
                    for name, method in methods.items()}

        def scan(node: ast.AST, held: frozenset[str],
                 method_name: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                return
            if isinstance(node, ast.With):
                taken = _with_lock_names(node, locks) & nonreentrant
                again = taken & held
                if again:
                    lock = sorted(again)[0]
                    self._report(
                        "error", "double-acquire",
                        f"method {method_name!r} re-acquires "
                        f"non-reentrant self.{lock} while already "
                        "holding it: guaranteed self-deadlock",
                        node,
                    )
                held = held | frozenset(taken)
                for stmt in node.body:
                    scan(stmt, held, method_name)
                return
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in acquires):
                callee = node.func.attr
                inner = acquires[callee] & nonreentrant & held
                if inner:
                    lock = sorted(inner)[0]
                    self._report(
                        "error", "double-acquire",
                        f"method {method_name!r} holds non-reentrant "
                        f"self.{lock} and calls self.{callee}(), which "
                        "takes the same lock: guaranteed self-deadlock "
                        "— split out a _locked helper",
                        node,
                    )
            for child in ast.iter_child_nodes(node):
                scan(child, held, method_name)

        for name, method in methods.items():
            for stmt in method.body:
                scan(stmt, frozenset(), name)

    def _check_unguarded_attributes(self, cls: ast.ClassDef,
                                    locks: dict[str, bool]) -> None:
        guarded: dict[str, ast.AST] = {}
        unguarded: dict[str, ast.AST] = {}

        def targets_of(node: ast.AST) -> list[str]:
            names: list[str] = []
            if isinstance(node, ast.Assign):
                candidates: list[ast.expr] = []
                for target in node.targets:
                    if isinstance(target, ast.Tuple):
                        candidates.extend(target.elts)
                    else:
                        candidates.append(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                candidates = [node.target]
            else:
                return names
            for target in candidates:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    names.append(target.attr)
            return names

        def scan(node: ast.AST, held: bool) -> None:
            if isinstance(node, ast.With):
                now_held = held or bool(_with_lock_names(node, locks))
                for stmt in node.body:
                    scan(stmt, now_held)
                return
            for name in targets_of(node):
                store = guarded if held else unguarded
                store.setdefault(name, node)
            for child in ast.iter_child_nodes(node):
                scan(child, held)

        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # construction happens-before publication
            for stmt in item.body:
                scan(stmt, False)

        for name in sorted(set(guarded) & set(unguarded)):
            node = unguarded[name]
            self._report(
                "warning", "unguarded-attribute",
                f"attribute self.{name} of class {cls.name!r} is "
                "written under the class lock on one path and without "
                "it here: mixed guarding means the lock protects "
                "nothing — move this write under the lock",
                node,
            )

    # -- spawn safety --------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self._check_spawn_target(keyword.value)
        self.generic_visit(node)

    def _check_spawn_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Lambda):
            what = "a lambda"
        elif isinstance(target, ast.Attribute):
            what = f"a bound attribute ({_dotted(target) or 'method'})"
        else:
            return  # a Name: module-level by the repo's convention
        self._report(
            "error", "spawn-target",
            f"multiprocessing Process target is {what}: under the "
            "spawn start method the child must unpickle the target — "
            "pass a module-level function",
            target,
        )

    def _check_spawn_config(self, cls: ast.ClassDef) -> None:
        if not cls.name.endswith("Config"):
            return
        frozen = False
        is_dataclass = False
        for decorator in cls.decorator_list:
            func = decorator.func if isinstance(decorator,
                                                ast.Call) else decorator
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name != "dataclass":
                continue
            is_dataclass = True
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (keyword.arg == "frozen"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True):
                        frozen = True
        if not is_dataclass:
            return
        if not frozen:
            self._report(
                "error", "spawn-config-mutable",
                f"config dataclass {cls.name!r} is not frozen=True: a "
                "spawn-crossing config mutated after pickling silently "
                "diverges between parent and child",
                cls,
            )
        for item in cls.body:
            if not isinstance(item, ast.AnnAssign) or not isinstance(
                    item.target, ast.Name):
                continue
            if not self._annotation_immutable(item.annotation):
                self._report(
                    "error", "spawn-config-mutable",
                    f"field {item.target.id!r} of config dataclass "
                    f"{cls.name!r} has a mutable annotation "
                    f"({ast.unparse(item.annotation)}): spawn-crossing "
                    "configs must hold immutable values "
                    "(int/str/float/bool/bytes/tuple/None)",
                    item,
                )

    def _annotation_immutable(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            # `None` in a union, or a string annotation (re-parse it).
            if node.value is None:
                return True
            if isinstance(node.value, str):
                try:
                    return self._annotation_immutable(
                        ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    return False
            return False
        if isinstance(node, ast.Name):
            return node.id in _IMMUTABLE_ANNOTATIONS
        if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                      ast.BitOr):
            return (self._annotation_immutable(node.left)
                    and self._annotation_immutable(node.right))
        if isinstance(node, ast.Subscript):
            base = node.value
            base_name = base.attr if isinstance(base, ast.Attribute) \
                else (base.id if isinstance(base, ast.Name) else None)
            if base_name in ("Optional", "Union"):
                inner = node.slice
                elements = inner.elts if isinstance(inner,
                                                    ast.Tuple) else [inner]
                return all(self._annotation_immutable(e)
                           for e in elements)
            if base_name in ("tuple", "Tuple", "frozenset",
                             "FrozenSet", "Literal"):
                return True
            return False
        return False


def concurrency_source(source: str, rel_path: str,
                       parts: tuple[str, ...] | None = None
                       ) -> list[Finding]:
    """Lint one module's *source* text (unit-test entry point)."""
    if parts is None:
        parts = tuple(Path(rel_path).parts)
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return [Finding("error", "syntax-error",
                        f"cannot parse: {exc.msg}",
                        path=rel_path, line=exc.lineno)]
    linter = _Linter(rel_path, parts)
    linter.visit(tree)
    return linter.findings


def concurrency_file(path: Path, root: Path) -> list[Finding]:
    rel = path.resolve()
    try:
        rel_str = rel.relative_to(root.resolve()).as_posix()
    except ValueError:
        rel_str = path.as_posix()
    return concurrency_source(path.read_text(encoding="utf-8"), rel_str,
                              _package_parts(path, root))


def concurrency_paths(targets: Sequence[str | Path],
                      root: str | Path | None = None) -> list[Finding]:
    """Run the concurrency pass over every Python file under *targets*."""
    base = Path(root) if root is not None else Path.cwd()
    findings: list[Finding] = []
    for target in targets:
        for path in iter_python_files(Path(target)):
            findings.extend(concurrency_file(path, base))
    return findings
