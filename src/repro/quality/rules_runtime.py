"""Cache-safety and convention rules (RPR2xx, RPR3xx).

* **RPR202** — the :class:`~repro.factorization.nmf.NMF` dataclass and
  the ``NMF_KEY_PARAMS`` tuple consumed by the cache-key builder
  (:mod:`repro.runtime.cache`) drifting apart.  A solver knob missing
  from the key makes two different configurations alias one cache entry.
* **RPR301** — a metric name that is not a dotted-lowercase string
  literal.  ``runtime.summary()`` groups counters and timers by their
  dotted prefixes; dynamic or free-form names fragment the report.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.quality.engine import (
    FileContext,
    Finding,
    ProjectContext,
    Severity,
    make_finding,
    rule,
)

_METRIC_METHODS = frozenset({"inc", "get", "timer", "record_time"})

_METRIC_NAME_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")


# -- RPR202: NMF dataclass fields vs the cache-key parameter list ------------


def _is_dataclass_decorated(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "dataclass":
            return True
    return False


def _nmf_config_fields(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """Constructor-relevant field names of the NMF dataclass.

    Fit artifacts follow the scikit-learn trailing-underscore convention
    (``components_`` …) and never enter a cache key; everything else is
    solver configuration.
    """
    fields: list[tuple[str, int]] = []
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.endswith("_") or name.startswith("_"):
            continue
        fields.append((name, stmt.lineno))
    return fields


def _string_tuple_assignment(tree: ast.Module, varname: str) -> tuple[list[str], int] | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and t.id == varname:
                if isinstance(value, (ast.Tuple, ast.List)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts
                ):
                    return [e.value for e in value.elts], node.lineno
    return None


@rule("RPR202", name="cache-key-completeness", severity=Severity.ERROR, scope="project")
def check_cache_key_completeness(project: ProjectContext) -> Iterator[Finding]:
    """NMF solver knob missing from the cache-key parameter list.

    The content-addressed cache digests exactly the parameters named in
    ``NMF_KEY_PARAMS`` (:mod:`repro.runtime.cache`).  A dataclass field
    absent from that tuple would let two different solver configurations
    hash to the same key and silently serve each other's results.
    """
    nmf_ctx = None
    nmf_cls = None
    for ctx in project.files:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name == "NMF" \
                    and _is_dataclass_decorated(node):
                nmf_ctx, nmf_cls = ctx, node
                break
        if nmf_cls is not None:
            break
    key_ctx = None
    key_params: list[str] | None = None
    key_line = 1
    for ctx in project.files:
        found = _string_tuple_assignment(ctx.tree, "NMF_KEY_PARAMS")
        if found is not None:
            key_ctx, (key_params, key_line) = ctx, found
            break
    if nmf_cls is None or nmf_ctx is None or key_params is None or key_ctx is None:
        return
    fields = _nmf_config_fields(nmf_cls)
    field_names = {name for name, _ in fields}
    for name, line in fields:
        if name not in key_params:
            yield make_finding(
                "RPR202", nmf_ctx.path, line,
                f"NMF field {name!r} is not in NMF_KEY_PARAMS "
                f"({key_ctx.path}:{key_line}); differing values would alias "
                "cache entries",
            )
    for name in key_params:
        if name not in field_names and name not in ("W0", "H0"):
            yield make_finding(
                "RPR202", key_ctx.path, key_line,
                f"NMF_KEY_PARAMS names {name!r}, which is not a field of the "
                "NMF dataclass (stale entry?)",
            )


@rule("RPR301", name="metric-name-discipline", severity=Severity.WARNING)
def check_metric_names(ctx: FileContext) -> Iterator[Finding]:
    """Metric name that is not a dotted-lowercase string literal.

    Counter/timer names must be literal so one grep finds every site and
    so ``runtime.summary()`` can group by prefix; they must be
    dotted-lowercase (``subsystem.event``) so the groups are real.
    Conditional names belong in an ``if``/``else`` with one literal per
    branch, not in a ternary.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _METRIC_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id == "metrics"
        ):
            continue
        if not node.args:
            continue
        name_arg = node.args[0]
        if not isinstance(name_arg, ast.Constant) or not isinstance(
            name_arg.value, str
        ):
            yield make_finding(
                "RPR301", ctx.path, name_arg,
                f"metrics.{func.attr}() name must be a string literal "
                "(dynamic names fragment runtime.summary())",
            )
        elif not _METRIC_NAME_RE.fullmatch(name_arg.value):
            yield make_finding(
                "RPR301", ctx.path, name_arg,
                f"metric name {name_arg.value!r} is not dotted-lowercase "
                "(expected 'subsystem.event')",
            )
