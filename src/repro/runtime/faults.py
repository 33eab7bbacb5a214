"""Deterministic, seeded fault injection for the result cache.

The cache's recovery paths in :mod:`repro.runtime.cache` (a failed write
is counted and skipped; a corrupt entry is detected on read, moved to
``quarantine/`` and recomputed) are only trustworthy if they can be
exercised *on demand*, not just when the disk happens to fail.  This
module is that switch: a :class:`FaultPlan` describes which faults to
inject at what rate, and every injection decision is a pure function of
``(plan seed, site, token)`` — no global counters, no wall clock — so a
faulty run is exactly reproducible.

Injection sites:

* ``cache_corrupt`` — a persisted cache entry is truncated after the
  atomic rename, so the next read must detect and quarantine it.
* ``disk_error`` — a cache write raises :class:`OSError` before writing.

Activation: ``configure(fault_plan=...)`` /
:func:`set_fault_plan` (wins) or the ``REPRO_FAULTS`` environment
variable, e.g.::

    REPRO_FAULTS="seed=7,cache_corrupt=0.1,disk_error=0.05"
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields

from repro.runtime.metrics import metrics


#: Injection-site name -> metric counter (literal names for RPR301).
_SITE_COUNTERS = {
    "cache_corrupt": "faults.cache_corrupt",
    "disk_error": "faults.disk_error",
}

#: Fault sites whose plan field is a probability in [0, 1].
FAULT_SITES = tuple(_SITE_COUNTERS)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of injected faults.

    Every rate is an independent per-decision probability; decisions are
    derived by hashing ``(seed, site, token)``, so the same plan produces
    the same faults on every run.
    """

    seed: int = 0
    cache_corrupt: float = 0.0
    disk_error: float = 0.0

    def __post_init__(self) -> None:
        for site in FAULT_SITES:
            rate = getattr(self, site)
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"{site} rate must be in [0, 1], got {rate}")

    # -- decisions -----------------------------------------------------------

    def should(self, site: str, *, token: str = "") -> bool:
        """Deterministically decide whether to inject ``site`` here.

        ``token`` is a free-form discriminator (the cache key); the
        decision is a pure function of the plan seed, the site and it.
        """
        rate = float(getattr(self, site))
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(f"{self.seed}|{site}|{token}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        return u < rate


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` mini-language into a :class:`FaultPlan`.

    Comma-separated ``key=value`` pairs; keys are the :class:`FaultPlan`
    fields.  Unknown keys and unparsable values raise ``ValueError`` —
    a chaos plan that is silently misread would fake coverage.
    """
    kwargs: dict[str, object] = {}
    valid = {f.name: f.type for f in fields(FaultPlan)}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"fault plan entry {part!r} is not key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in valid:
            raise ValueError(
                f"unknown fault plan key {key!r}; valid keys: {sorted(valid)}"
            )
        try:
            kwargs[key] = int(raw) if key == "seed" else float(raw)
        except ValueError:
            raise ValueError(
                f"fault plan value {raw!r} for {key!r} is not numeric"
            ) from None
    return FaultPlan(**kwargs)  # type: ignore[arg-type]


#: Plan set via :func:`repro.runtime.configure`; ``None`` defers to the env.
_configured_plan: FaultPlan | None = None

#: Memoized parse of the last-seen ``REPRO_FAULTS`` string.
_env_memo: tuple[str, FaultPlan] | None = None


def set_fault_plan(plan: FaultPlan | str | None) -> None:
    """Set (or with ``None`` clear) the configured fault plan.

    A string is parsed with :func:`parse_fault_plan`.
    """
    global _configured_plan
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    _configured_plan = plan


def fault_plan_from_env() -> FaultPlan | None:
    """The ``REPRO_FAULTS`` plan, or ``None`` when unset.

    Malformed plans raise: a chaos run that silently injected nothing
    would report a clean bill of health it never earned.
    """
    global _env_memo
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    if _env_memo is not None and _env_memo[0] == raw:
        return _env_memo[1]
    plan = parse_fault_plan(raw)
    _env_memo = (raw, plan)
    return plan


def active_fault_plan() -> FaultPlan | None:
    """Effective plan: ``configure(fault_plan=...)`` > ``REPRO_FAULTS`` > off."""
    if _configured_plan is not None:
        return _configured_plan
    return fault_plan_from_env()


def record_injection(site: str) -> None:
    """Count one injected fault under its ``faults.*`` metric."""
    # Names stay greppable: every value of _SITE_COUNTERS is a literal.
    metrics.inc(_SITE_COUNTERS[site])  # repro: noqa[RPR301]
