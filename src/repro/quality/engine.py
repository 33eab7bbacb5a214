"""Rule engine: AST walk, registry, suppression, finding collection.

The engine is deliberately boring: it parses a set of Python files once,
hands each file (and then the whole file set) to every registered rule,
and collects :class:`Finding` records.  All the judgement lives in the
rule modules; all the bookkeeping — discovery, parsing, ``# repro:
noqa[RPRnnn]`` suppression, ordering, metrics — lives here, so a new
rule is one decorated function plus a fixture test.

Rule codes are stable and namespaced by concern:

* ``RPR1xx`` — determinism (unseeded randomness, wall-clock reads),
* ``RPR2xx`` — cache safety (cache-key completeness),
* ``RPR3xx`` — conventions (metrics-name discipline),
* ``RPR4xx`` — curriculum-data invariants,
* ``RPR000`` — reserved: a file the engine could not parse.

Suppression is per statement: a trailing ``# repro: noqa[RPR101]``
comment (comma-separated codes, or bare ``# repro: noqa`` for any code)
silences findings anchored to any line of the simple statement it sits
on — a noqa on the first line of a multi-line call also covers findings
anchored to the continuation lines.  On a compound statement (``with``,
``if``, ``def``…) it covers the header only, never the body.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.runtime.metrics import metrics

#: Code reserved for files the engine cannot parse.
PARSE_ERROR_CODE = "RPR000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


class Severity(enum.Enum):
    """How bad a finding is; drives the ``--fail-on`` exit threshold."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    code: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    @property
    def where(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def __str__(self) -> str:
        return f"{self.where}: {self.severity.value} {self.code} {self.message}"


@dataclass(frozen=True)
class ImportMap:
    """Local-name → imported-thing resolution for one module.

    ``modules`` maps a local alias to the dotted module it names
    (``np`` → ``numpy``); ``members`` maps a from-imported name to its
    ``(module, attribute)`` origin (``choice`` → ``("random",
    "choice")``).  Good enough for the determinism rules — no flow
    analysis, just the import statements.
    """

    modules: Mapping[str, str]
    members: Mapping[str, tuple[str, str]]

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportMap":
        modules: dict[str, str] = {}
        members: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import numpy.random` binds `numpy`; with `as r` it
                    # binds the full dotted path to `r`.
                    modules[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    members[alias.asname or alias.name] = (node.module, alias.name)
        return cls(modules, members)

    def resolve_call(self, func: ast.expr) -> str | None:
        """Dotted origin of a call target, or ``None`` when untracked.

        ``np.random.rand`` → ``"numpy.random.rand"``; a bare ``choice``
        from ``from random import choice`` → ``"random.choice"``.
        """
        attrs: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        attrs.reverse()
        if node.id in self.modules:
            return ".".join([self.modules[node.id], *attrs])
        if node.id in self.members:
            module, member = self.members[node.id]
            return ".".join([module, member, *attrs])
        return None


@dataclass
class FileContext:
    """One parsed file plus everything rules need to inspect it."""

    path: str
    source: str
    tree: ast.Module
    imports: ImportMap
    #: line → suppressed codes (``None`` means every code).
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            imports=ImportMap.of(tree),
            noqa=_expand_noqa(_collect_noqa(source), tree),
        )

    def suppressed(self, line: int, code: str) -> bool:
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code in codes


@dataclass
class ProjectContext:
    """The whole analyzed file set, for cross-file rules."""

    files: list[FileContext]

    def find(self, *, suffix: str) -> FileContext | None:
        """First file whose (posix) path ends with ``suffix``."""
        for ctx in self.files:
            if Path(ctx.path).as_posix().endswith(suffix):
                return ctx
        return None


def _collect_noqa(source: str) -> dict[int, frozenset[str] | None]:
    out: dict[int, frozenset[str] | None] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if not m:
                continue
            raw = m.group("codes")
            if raw is None:
                out[tok.start[0]] = None
            else:
                codes = frozenset(
                    c.strip().upper() for c in raw.split(",") if c.strip()
                )
                prev = out.get(tok.start[0], frozenset())
                out[tok.start[0]] = None if prev is None else prev | codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


def _statement_extents(tree: ast.Module) -> list[tuple[int, int]]:
    """Line spans a noqa comment should cover, smallest-last for lookup.

    Simple statements span their full ``lineno..end_lineno`` (a noqa on
    the first line of a multi-line call covers the continuation lines
    the finding may anchor to).  Compound statements cover only their
    header — ``lineno`` up to the line before their first body
    statement — so a noqa on ``with lock:`` never silences the body.
    """
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        body = getattr(node, "body", None)
        if body and isinstance(body, list) and isinstance(body[0], ast.stmt):
            end = min(end, body[0].lineno - 1)
        if end > node.lineno:
            spans.append((node.lineno, end))
    # Smallest span last so the innermost statement wins the lookup.
    spans.sort(key=lambda s: (s[1] - s[0]), reverse=True)
    return spans


def _expand_noqa(
    noqa: dict[int, frozenset[str] | None], tree: ast.Module
) -> dict[int, frozenset[str] | None]:
    """Spread each noqa line across its enclosing statement's extent."""
    if not noqa:
        return noqa
    spans = _statement_extents(tree)
    if not spans:
        return noqa
    out = dict(noqa)
    for line, codes in noqa.items():
        extent: tuple[int, int] | None = None
        for span in spans:
            if span[0] <= line <= span[1]:
                extent = span  # innermost (smallest) span sorts last
        if extent is None:
            continue
        for covered in range(extent[0], extent[1] + 1):
            prev = out.get(covered, frozenset())
            if codes is None or prev is None:
                out[covered] = None
            else:
                out[covered] = prev | codes
    return out


# -- rule registry -----------------------------------------------------------

FileRule = Callable[[FileContext], Iterable[Finding]]
ProjectRule = Callable[[ProjectContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable code, default severity, check function."""

    code: str
    name: str
    severity: Severity
    summary: str
    scope: str  # "file" | "project"
    check: Callable[..., Iterable[Finding]]


#: code → rule.  Populated by the ``@rule`` decorator at import time.
RULES: dict[str, Rule] = {}


def rule(
    code: str,
    *,
    name: str,
    severity: Severity,
    scope: str = "file",
) -> Callable[[Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]]:
    """Register a rule function under a stable ``RPRnnn`` code.

    The decorated function receives a :class:`FileContext` (``scope=
    "file"``) or a :class:`ProjectContext` (``scope="project"``) and
    yields :class:`Finding` records; its docstring's first line becomes
    the catalogue summary.
    """
    if not re.fullmatch(r"RPR\d{3}", code):
        raise ValueError(f"rule code must look like RPRnnn, got {code!r}")
    if scope not in ("file", "project"):
        raise ValueError(f"scope must be 'file' or 'project', got {scope!r}")

    def deco(fn: Callable[..., Iterable[Finding]]) -> Callable[..., Iterable[Finding]]:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        summary = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else name
        RULES[code] = Rule(
            code=code, name=name, severity=severity, summary=summary,
            scope=scope, check=fn,
        )
        return fn

    return deco


def make_finding(
    code: str, ctx_path: str, node_or_line, message: str, *, col: int | None = None
) -> Finding:
    """Build a finding for a registered rule, inheriting its severity."""
    r = RULES[code]
    if isinstance(node_or_line, int):
        line, column = node_or_line, (col if col is not None else 0)
    else:
        line = getattr(node_or_line, "lineno", 1)
        column = getattr(node_or_line, "col_offset", 0) if col is None else col
    return Finding(
        code=code, severity=r.severity, path=ctx_path,
        line=line, col=column, message=message,
    )


# -- discovery and the analysis driver --------------------------------------


def discover(paths: Sequence[str | Path]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[str, None] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterator[Path] = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = iter([p])
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for f in candidates:
            parts = f.parts
            if "__pycache__" in parts or any(
                part.startswith(".") and part not in (".", "..") for part in parts
            ):
                continue
            seen.setdefault(str(f), None)
    return sorted(seen)


@dataclass
class AnalysisResult:
    """Everything one engine run produced."""

    findings: list[Finding]
    files: list[str]
    n_suppressed: int = 0
    #: Parsed contexts, kept for post-analysis consumers (lock-graph export).
    contexts: list[FileContext] = field(default_factory=list)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    @property
    def n_errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def n_warnings(self) -> int:
        return self.count(Severity.WARNING)


def _parse_one(path: str) -> tuple[FileContext | None, Finding | None]:
    try:
        source = Path(path).read_text(encoding="utf-8")
        return FileContext.parse(path, source), None
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return None, Finding(
            code=PARSE_ERROR_CODE, severity=Severity.ERROR, path=path,
            line=line, col=0, message=f"cannot analyze file: {exc}",
        )


def analyze_paths(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
) -> AnalysisResult:
    """Run every registered rule over ``paths``.

    ``select`` restricts the run to the named codes (the parse check
    always runs).  Findings come back sorted by ``(path, line, col, code)``;
    suppressed findings are dropped and counted in ``n_suppressed``.
    """
    # Import for the registration side effect: the rule modules populate
    # RULES when the package loads, but analyze_paths must also work when
    # engine is imported directly.
    import repro.quality  # noqa: F401

    selected = set(select) if select is not None else None
    unknown = (selected or set()) - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")

    files = discover(paths)
    metrics.inc("quality.files", len(files))
    findings: list[Finding] = []
    contexts: list[FileContext] = []
    with metrics.timer("quality.analyze"):
        for path in files:
            ctx, parse_error = _parse_one(path)
            if ctx is not None:
                contexts.append(ctx)
            if parse_error is not None:
                findings.append(parse_error)
        active = [
            r for r in RULES.values()
            if selected is None or r.code in selected
        ]
        by_path = {ctx.path: ctx for ctx in contexts}
        project = ProjectContext(contexts)
        raw = findings
        findings = []
        n_suppressed = 0
        for r in active:
            if r.scope == "file":
                raw.extend(f for ctx in contexts for f in r.check(ctx))
            else:
                raw.extend(r.check(project))
        for f in raw:
            ctx = by_path.get(f.path)
            if ctx is not None and ctx.suppressed(f.line, f.code):
                n_suppressed += 1
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    metrics.inc("quality.findings", len(findings))
    metrics.inc("quality.suppressed", n_suppressed)
    return AnalysisResult(
        findings=findings, files=files, n_suppressed=n_suppressed,
        contexts=contexts,
    )
