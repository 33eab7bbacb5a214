"""Concurrency rules (RPR5xx).

The runtime is threaded — broker lanes, handler threads, admission
gates, locked caches and metrics — and these rules guard the
invariants that keep that layer correct, using the cross-method and
cross-file models from :mod:`repro.quality.concurrency`:

* **RPR501** — a field written both under a held lock and without one
  across a class's methods (or a module global both under and outside a
  module lock).  Half-guarded state is the classic lost-update race:
  the guarded sites suggest the author intended mutual exclusion, the
  unguarded one breaks it.
* **RPR502** — ``lock.acquire()`` without a ``try/finally`` release in
  the same function.  An exception between acquire and release leaves
  the lock held forever; ``with lock:`` is the structural fix.
* **RPR503** — a blocking call (a task batch, ``subprocess``,
  ``.result()``, untimed ``queue.get``/``Thread.join``) made while
  holding a lock.  Every thread contending for that lock now waits on
  the slow operation too — and if the blocked-on work needs the same
  lock, it is a deadlock.
* **RPR504** — a cycle in the project-wide lock-ordering graph: some
  code path acquires ``A`` then ``B`` while another acquires ``B``
  then ``A``.  Two threads taking the two paths concurrently deadlock.
  The graph is also exported as a CI artifact
  (``repro lint-code --lock-graph-out lock-graph.json``).

Suppress deliberate exceptions with ``# repro: noqa[RPR5xx]`` plus a
comment explaining the threading contract that makes the code safe
(see CONTRIBUTING).  The runtime complement to these static rules is
:mod:`repro.runtime.sanitize`, which checks the same ordering property
on live acquisitions.
"""

from __future__ import annotations

from typing import Iterator

from repro.quality.concurrency import (
    ClassModel,
    FileModel,
    FunctionModel,
    build_lock_graph,
    display_lock,
    file_model,
)
from repro.quality.engine import (
    FileContext,
    Finding,
    ProjectContext,
    Severity,
    make_finding,
    rule,
)


def _iter_functions(model: FileModel) -> Iterator[tuple[FunctionModel, ClassModel | None]]:
    for cm in model.classes:
        for fm in cm.methods.values():
            yield fm, cm
    for fm in model.functions.values():
        yield fm, None


@rule("RPR501", name="guarded-field-inconsistency", severity=Severity.ERROR)
def check_guarded_fields(ctx: FileContext) -> Iterator[Finding]:
    """Field written both under a held lock and without one.

    For every class that declares a lock, each instance field's writes
    (outside ``__init__``) must agree: all under a lock, or none.  A
    mixed field is a race — the unguarded write can interleave with a
    guarded read-modify-write and lose updates.  Private helpers whose
    every intra-class call site holds a lock inherit that lock
    (ambient-lock inference), so lock-free helper bodies called under
    ``with self._lock:`` do not fire.  Module globals are held to the
    same standard against module-level locks.
    """
    model = file_model(ctx)
    for cm in model.classes:
        if not cm.locks:
            continue
        writes_by_field: dict[str, list] = {}
        for fm in cm.methods.values():
            for w in fm.writes:
                if w.target in cm.locks:
                    continue
                writes_by_field.setdefault(w.target, []).append((w, cm))
        for field_name, entries in sorted(writes_by_field.items()):
            guarded = [
                (w, c) for w, c in entries if c.effective_locks(w)
            ]
            unguarded = [
                (w, c) for w, c in entries if not c.effective_locks(w)
            ]
            if not guarded or not unguarded:
                continue
            g_write, g_cm = guarded[0]
            lock_names = ", ".join(
                sorted(display_lock(k) for k in g_cm.effective_locks(g_write))
            )
            for w, _ in unguarded:
                yield make_finding(
                    "RPR501", ctx.path, w.line,
                    f"'self.{field_name}' is written under {lock_names} "
                    f"(e.g. {g_cm.name}.{g_write.method} line {g_write.line}) "
                    f"but written without a lock in {cm.name}.{w.method}; "
                    "guard every write or restructure so one thread owns "
                    "the field",
                    col=w.col,
                )
    if model.module_locks:
        global_writes: dict[str, list] = {}
        for fm in model.functions.values():
            for w in fm.global_writes:
                global_writes.setdefault(w.target, []).append(w)
        for name, writes in sorted(global_writes.items()):
            guarded = [w for w in writes if w.locks]
            unguarded = [w for w in writes if not w.locks]
            if not guarded or not unguarded:
                continue
            lock_names = ", ".join(
                sorted(display_lock(k) for k in guarded[0].locks)
            )
            for w in unguarded:
                yield make_finding(
                    "RPR501", ctx.path, w.line,
                    f"module global '{name}' is written under {lock_names} "
                    f"(e.g. {guarded[0].method} line {guarded[0].line}) but "
                    f"written without a lock in {w.method}",
                    col=w.col,
                )


@rule("RPR502", name="unstructured-acquire", severity=Severity.ERROR)
def check_unstructured_acquire(ctx: FileContext) -> Iterator[Finding]:
    """``lock.acquire()`` without a ``with`` block or try/finally release.

    A raise between ``acquire()`` and ``release()`` leaves the lock held
    for the life of the process; every later acquirer deadlocks.  The
    rule accepts an ``acquire`` when the same function releases the same
    lock inside a ``finally`` block; everything else should be
    ``with lock:``.
    """
    model = file_model(ctx)
    for fm, _cm in _iter_functions(model):
        for acq in fm.bare_acquires:
            if acq.lock in fm.finally_releases:
                continue
            yield make_finding(
                "RPR502", ctx.path, acq.line,
                f"{display_lock(acq.lock)}.acquire() without a try/finally "
                "release in this function; use 'with "
                f"{display_lock(acq.lock)}:' so an exception cannot leave "
                "the lock held",
                col=acq.col,
            )


@rule("RPR503", name="blocking-call-under-lock", severity=Severity.ERROR)
def check_blocking_under_lock(ctx: FileContext) -> Iterator[Finding]:
    """Blocking call made while holding a lock.

    Task batches, ``subprocess`` calls, ``.result()`` waits,
    and untimed ``queue.get``/``Thread.join`` can take unbounded time —
    or wait on a thread that needs the very lock the caller holds.
    Compute the slow result outside the critical section, then take the
    lock to publish it.
    """
    model = file_model(ctx)
    for fm, _cm in _iter_functions(model):
        for call in fm.blocking:
            held = ", ".join(sorted(display_lock(k) for k in call.locks))
            yield make_finding(
                "RPR503", ctx.path, call.line,
                f"{call.what} while holding {held}; move the blocking work "
                "outside the critical section",
                col=call.col,
            )


@rule("RPR504", name="lock-order-cycle", severity=Severity.ERROR, scope="project")
def check_lock_order_cycles(project: ProjectContext) -> Iterator[Finding]:
    """Lock-acquisition-order cycle across the project (potential deadlock).

    Built from the static lock graph: an edge ``A → B`` means some code
    path acquires ``B`` (directly or through resolvable calls) while
    holding ``A``.  A strongly connected component of size ≥ 2 means
    two opposite orders exist, so two threads can each hold one lock
    and wait forever for the other.  Break the cycle by imposing a
    global acquisition order or narrowing one critical section.
    """
    graph = build_lock_graph(project)
    for cycle in graph.cycles():
        edges = graph.cycle_edges(cycle)
        if not edges:
            continue
        anchor = edges[0]
        route = ", ".join(f"{e.src} -> {e.dst} ({e.path}:{e.line})" for e in edges)
        yield make_finding(
            "RPR504", anchor.path, anchor.line,
            "lock-order cycle between {" + ", ".join(cycle) + "}: " + route +
            "; impose one acquisition order across these locks",
        )
