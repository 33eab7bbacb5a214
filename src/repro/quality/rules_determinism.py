"""Determinism rules (RPR1xx).

The library's contract — bit-identical results for any batch layout or
cache state — survives only while every stochastic draw flows from an
explicit seed and no result depends on the wall clock.  These rules
catch the two ways that contract silently dies:

* **RPR101** — a draw from global/unseeded random state (``np.random.rand``
  and friends, the stdlib ``random`` module, an argless
  ``np.random.default_rng()``) in library code;
* **RPR102** — a wall-clock read (``time.time()``, argless
  ``datetime.now()``) in library code.  ``time.perf_counter()`` is fine:
  it measures durations, it never parameterizes a result.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.quality.engine import (
    FileContext,
    Finding,
    Severity,
    make_finding,
    rule,
)

#: numpy.random attributes that are *constructors of explicit state* and
#: therefore fine to call with arguments (argless calls still seed from
#: OS entropy and are flagged).
_NP_STATE_CTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: Wall-clock call origins → why they are flagged.
_WALL_CLOCK = {
    "time.time": "time.time() reads the wall clock",
    "time.time_ns": "time.time_ns() reads the wall clock",
    "datetime.datetime.now": "datetime.now() reads the wall clock",
    "datetime.datetime.utcnow": "datetime.utcnow() reads the wall clock",
    "datetime.datetime.today": "datetime.today() reads the wall clock",
    "datetime.date.today": "date.today() reads the wall clock",
}

#: Files allowed to read the wall clock (timing infrastructure itself).
_WALL_CLOCK_ALLOWED_SUFFIXES = ("runtime/metrics.py",)


def _is_argless(call: ast.Call) -> bool:
    return not call.args and not call.keywords


@rule("RPR101", name="unseeded-randomness", severity=Severity.ERROR)
def check_unseeded_randomness(ctx: FileContext) -> Iterator[Finding]:
    """Draw from global or unseeded random state in library code.

    Module-level ``np.random.<dist>`` calls and the stdlib ``random``
    module share hidden global state: the number of draws one call site
    consumes perturbs every other, which breaks run-to-run and
    serial-vs-parallel equivalence.  An argless
    ``np.random.default_rng()`` (or ``SeedSequence()`` /
    ``RandomState()``) seeds from OS entropy, so the result cannot be
    reproduced.  Thread a seed through :func:`repro.util.rng.as_rng`
    instead.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = ctx.imports.resolve_call(node.func)
        if origin is None:
            continue
        parts = origin.split(".")
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            fn = parts[2]
            if fn in _NP_STATE_CTORS:
                if _is_argless(node):
                    yield make_finding(
                        "RPR101", ctx.path, node,
                        f"np.random.{fn}() without a seed draws OS entropy; "
                        "pass a seed (or accept one from the caller)",
                    )
            elif fn[:1].islower():
                yield make_finding(
                    "RPR101", ctx.path, node,
                    f"np.random.{fn}(...) uses numpy's hidden global state; "
                    "use an explicit np.random.Generator "
                    "(repro.util.rng.as_rng)",
                )
        elif parts[0] == "random" and len(parts) == 2:
            fn = parts[1]
            if fn[:1].islower():
                yield make_finding(
                    "RPR101", ctx.path, node,
                    f"random.{fn}(...) uses the stdlib's hidden global state; "
                    "use an explicit np.random.Generator "
                    "(repro.util.rng.as_rng)",
                )
            elif fn == "Random" and _is_argless(node):
                yield make_finding(
                    "RPR101", ctx.path, node,
                    "random.Random() without a seed draws OS entropy; "
                    "pass a seed",
                )


@rule("RPR102", name="wall-clock", severity=Severity.ERROR)
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    """Wall-clock read in library code.

    A result that depends on ``time.time()`` or ``datetime.now()``
    cannot be reproduced or cached content-addressably.  Durations
    belong to ``time.perf_counter()`` inside
    :mod:`repro.runtime.metrics`, which is the one module allowed to
    touch the clock.
    """
    posix = Path(ctx.path).as_posix()
    if posix.endswith(_WALL_CLOCK_ALLOWED_SUFFIXES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = ctx.imports.resolve_call(node.func)
        if origin in _WALL_CLOCK and _is_argless(node):
            yield make_finding(
                "RPR102", ctx.path, node,
                f"{_WALL_CLOCK[origin]}; library results must not depend on "
                "it (timing belongs in repro.runtime.metrics)",
            )
