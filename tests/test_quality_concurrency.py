"""Tests for the RPR5xx concurrency rule family.

Each rule gets a *bad* fixture that must fire and a *corrected* fixture
that must stay silent, per the CONTRIBUTING.md contract.  The rules
lean on cross-method inference (guarded-by analysis, ambient-lock
fixpoint) and cross-file inference (the lock-ordering graph), so the
fixtures exercise those paths explicitly rather than single statements.
"""

import textwrap

import pytest

from repro.quality import ProjectContext, analyze_paths, build_lock_graph
from repro.quality.concurrency import file_model, module_name_of


def lint_sources(tmp_path, files, select=None):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], select=select)


def codes(result):
    return [f.code for f in result.findings]


class TestRPR501GuardedFields:
    BAD = """\
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, k, v):
                with self._lock:
                    self._items[k] = v

            def wipe(self):
                self._items = {}
        """

    def test_mixed_guarded_unguarded_write_fires(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": self.BAD},
                              select=["RPR501"])
        assert codes(result) == ["RPR501"]
        f = result.findings[0]
        assert "_items" in f.message
        assert "self._lock" in f.message
        assert f.line == 13  # the unguarded write in wipe()

    def test_all_writes_guarded_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def wipe(self):
                    with self._lock:
                        self._items = {}
            """}, select=["RPR501"])
        assert result.findings == []

    def test_init_writes_never_count_as_unguarded(self, tmp_path):
        """``__init__`` runs before the object escapes; its writes are
        construction, not races."""
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v
            """}, select=["RPR501"])
        assert result.findings == []

    def test_ambient_lock_via_private_helper(self, tmp_path):
        """A private method only ever called with the lock held inherits
        it — the cross-method inference that kills the obvious false
        positive on guarded helper functions."""
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._put_locked(k, v)

                def drop(self, k):
                    with self._lock:
                        self._put_locked(k, None)

                def _put_locked(self, k, v):
                    self._items[k] = v
            """}, select=["RPR501"])
        assert result.findings == []

    def test_helper_called_unlocked_gets_no_ambient_lock(self, tmp_path):
        """A helper with even one lock-free call site inherits nothing,
        so its write conflicts with the directly guarded one."""
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def put_fast(self, k, v):
                    self._put_locked(k, v)

                def _put_locked(self, k, v):
                    self._items[k] = v
            """}, select=["RPR501"])
        assert codes(result) == ["RPR501"]
        assert result.findings[0].line == 16  # the helper's write

    def test_module_global_variant(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            _lock = threading.Lock()
            _registry = {}

            def register(k, v):
                with _lock:
                    _registry[k] = v

            def clear():
                global _registry
                _registry = {}
            """}, select=["RPR501"])
        assert codes(result) == ["RPR501"]

    def test_mutator_calls_count_as_writes(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put(self, v):
                    with self._lock:
                        self._items.append(v)

                def put_fast(self, v):
                    self._items.append(v)
            """}, select=["RPR501"])
        assert codes(result) == ["RPR501"]


class TestRPR502UnstructuredAcquire:
    def test_bare_acquire_without_finally_fires(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def risky(self):
                    self._lock.acquire()
                    do_work()
                    self._lock.release()
            """}, select=["RPR502"])
        assert codes(result) == ["RPR502"]
        assert "acquire" in result.findings[0].message

    def test_acquire_with_finally_release_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def careful(self):
                    self._lock.acquire()
                    try:
                        do_work()
                    finally:
                        self._lock.release()
            """}, select=["RPR502"])
        assert result.findings == []

    def test_with_statement_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def fine(self):
                    with self._lock:
                        do_work()
            """}, select=["RPR502"])
        assert result.findings == []


class TestRPR503BlockingUnderLock:
    def test_future_result_under_lock_fires(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self, future):
                    with self._lock:
                        return future.result()
            """}, select=["RPR503"])
        assert codes(result) == ["RPR503"]

    def test_queue_get_without_timeout_fires(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import queue
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._q = queue.Queue()

                def drain(self):
                    with self._lock:
                        return self._q.get()
            """}, select=["RPR503"])
        assert codes(result) == ["RPR503"]

    def test_queue_get_with_timeout_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import queue
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._q = queue.Queue()

                def drain(self):
                    with self._lock:
                        return self._q.get(timeout=1.0)
            """}, select=["RPR503"])
        assert result.findings == []

    def test_subprocess_under_lock_fires(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import subprocess
            import threading

            _lock = threading.Lock()

            def run():
                with _lock:
                    subprocess.run(["ls"])
            """}, select=["RPR503"])
        assert codes(result) == ["RPR503"]

    def test_pool_dispatch_under_lock_fires(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            from repro.runtime.executor import run_nmf_fits

            _lock = threading.Lock()

            def run(a, specs):
                with _lock:
                    return run_nmf_fits(a, specs)
            """}, select=["RPR503"])
        assert codes(result) == ["RPR503"]

    def test_blocking_outside_lock_is_silent(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import subprocess
            import threading

            _lock = threading.Lock()

            def run(future):
                with _lock:
                    pending = True
                out = subprocess.run(["ls"])
                return future.result()
            """}, select=["RPR503"])
        assert result.findings == []


class TestRPR504LockOrderCycles:
    BAD = {
        "a.py": """\
            import threading

            from b import other

            class A:
                def __init__(self):
                    self._lock = threading.Lock()

                def hit(self):
                    with self._lock:
                        other.poke()
            """,
        "b.py": """\
            import threading

            import a


            class B:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.peer = a.A()

                def poke(self):
                    with self._lock:
                        pass

                def reverse(self):
                    with self._lock:
                        self.peer.hit()


            other = B()
            """,
    }

    def test_cross_file_cycle_fires(self, tmp_path):
        result = lint_sources(tmp_path, dict(self.BAD), select=["RPR504"])
        assert codes(result) == ["RPR504"]
        msg = result.findings[0].message
        assert "A._lock" in msg and "B._lock" in msg

    def test_consistent_order_is_silent(self, tmp_path):
        # Same two classes, but B only ever takes its own lock: the
        # graph keeps the A → B edge and loses the back edge.
        files = dict(self.BAD)
        files["b.py"] = """\
            import threading


            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass


            other = B()
            """
        result = lint_sources(tmp_path, files, select=["RPR504"])
        assert result.findings == []

    def test_graph_doc_names_the_cycle(self, tmp_path):
        for name, source in self.BAD.items():
            (tmp_path / name).write_text(textwrap.dedent(source))
        result = analyze_paths([str(tmp_path)], select=["RPR504"])
        doc = build_lock_graph(ProjectContext(result.contexts)).to_doc()
        assert doc["version"] == 1
        assert len(doc["cycles"]) == 1
        assert sorted(doc["cycles"][0]) == ["a.A._lock", "b.B._lock"]


class TestInfrastructure:
    def test_module_name_of_strips_src_prefix(self):
        assert module_name_of("src/repro/runtime/cache.py") == (
            "repro.runtime.cache"
        )
        assert module_name_of("/x/src/pkg/mod.py") == "pkg.mod"
        assert module_name_of("standalone.py") == "standalone"

    def test_sanitize_factories_count_as_locks(self, tmp_path):
        """Locks built via repro.runtime.sanitize wrappers join the
        guarded-by analysis exactly like raw threading ctors."""
        result = lint_sources(tmp_path, {"mod.py": """\
            from repro.runtime.sanitize import make_lock

            class Store:
                def __init__(self):
                    self._lock = make_lock("store")
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def wipe(self):
                    self._items = {}
            """}, select=["RPR501"])
        assert codes(result) == ["RPR501"]

    def test_noqa_silences_concurrency_finding(self, tmp_path):
        result = lint_sources(tmp_path, {"mod.py": """\
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v

                def wipe(self):
                    self._items = {}  # repro: noqa[RPR501]
            """}, select=["RPR501"])
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_file_model_is_memoized(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import threading\n_lock = threading.Lock()\n")
        result = analyze_paths([str(path)], select=["RPR501"])
        ctx = result.contexts[0]
        assert file_model(ctx) is file_model(ctx)
