"""Deterministic fault injection for the whole pipeline.

Resilience claims are worthless untested: this module lets tests and CI
*inject* failures at the exact seams a production deployment would see
them, deterministically, and prove every recovery path works.  A
:class:`FaultPlan` is a seeded set of :class:`FaultRule` triggers over
named **sites**:

========================  =============================================
``store.read``            the (Extent) rule reads an extent
``machine.step``          one reduction step (or big-step node visit)
``method.call``           the (Method) rule invokes an MJava body
``commit``                :meth:`Database.run` installs EE′/OE′
``persistence.save``      between temp-file write and ``os.replace``
``persistence.load``      before a dump file is parsed
``sched.admit``           :meth:`Database.run_many` admits one query
``wal.append``            before a WAL record's bytes are written
``wal.fsync``             after a record is written, before its fsync
``recovery.replay``       before each WAL record is replayed
``replica.ship``          a replica's shipper polls the primary's log
``replica.apply``         before a shipped record is applied to a replica
``failover.promote``      a replica is promoted to primary
``shard.install``         per touched shard, before the commit is logged
``exec.shard``            a per-shard pipeline task starts on the pool
``exec.traverse``         a compiled ``traverse`` closure starts chasing
========================  =============================================

Sites guard themselves with one global-load-plus-``None``-check
(:func:`maybe_fault`), the same cost discipline as :mod:`repro.obs` —
an uninstrumented run pays nothing measurable.

A rule can raise a :class:`~repro.errors.TransientFault` ("transient"),
inject latency via the plan's injectable ``sleep`` ("latency"), or
both.  Firing is deterministic: hit counters plus a seeded RNG for
probabilistic rules, so a failing CI run replays exactly.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ReproError, TransientFault
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS

#: Every site the pipeline exposes, in pipeline order.
SITES: tuple[str, ...] = (
    "store.read",
    "machine.step",
    "method.call",
    "commit",
    "persistence.save",
    "persistence.load",
    "sched.admit",
    "wal.append",
    "wal.fsync",
    "recovery.replay",
    "replica.ship",
    "replica.apply",
    "failover.promote",
    "shard.install",
    "exec.shard",
    "exec.traverse",
)

KINDS: tuple[str, ...] = ("transient", "latency")


@dataclass(frozen=True)
class FaultRule:
    """One trigger: *where* (site), *when* (at/every/times/probability),
    *what* (kind + delay).

    ``at`` fires on the nth hit of the site (1-based); ``every`` fires
    on every kth hit; ``probability`` fires with the given chance per
    hit (seeded — deterministic per plan).  ``times`` caps total
    firings (``None`` = unlimited).  Conditions compose conjunctively.
    """

    site: str
    at: int | None = None
    every: int | None = None
    probability: float | None = None
    times: int | None = None
    kind: str = "transient"
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ReproError(
                f"unknown fault site {self.site!r} (known: {', '.join(SITES)})"
            )
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(KINDS)})"
            )
        if self.at is not None and self.at < 1:
            raise ReproError("fault rule 'at' is 1-based; must be >= 1")
        if self.every is not None and self.every < 1:
            raise ReproError("fault rule 'every' must be >= 1")
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ReproError("fault rule probability must be in [0, 1]")
        if self.delay < 0:
            raise ReproError("fault rule delay must be >= 0")

    def describe(self) -> str:
        conds = []
        if self.at is not None:
            conds.append(f"at={self.at}")
        if self.every is not None:
            conds.append(f"every={self.every}")
        if self.probability is not None:
            conds.append(f"p={self.probability:g}")
        if self.times is not None:
            conds.append(f"times={self.times}")
        what = self.kind + (f"+{self.delay:g}s" if self.delay else "")
        return f"{self.site} [{', '.join(conds) or 'always'}] -> {what}"


def _validated_rule(rule: FaultRule) -> FaultRule:
    """Reject anything that is not a known-site :class:`FaultRule`.

    ``FaultRule.__post_init__`` already validates genuine rules, but a
    plan built from duck-typed objects (or a rule whose fields were
    mutated via ``object.__setattr__``) would otherwise sit silently in
    the plan and never fire — a typo'd site must fail at construction,
    not during the experiment it was supposed to run.
    """
    if not isinstance(rule, FaultRule):
        raise ReproError(
            f"fault plans take FaultRule instances, got {type(rule).__name__}"
        )
    if rule.site not in SITES:
        raise ReproError(
            f"unknown fault site {rule.site!r} (known: {', '.join(SITES)})"
        )
    if rule.kind not in KINDS:
        raise ReproError(
            f"unknown fault kind {rule.kind!r} (known: {', '.join(KINDS)})"
        )
    return rule


class FaultPlan:
    """A seeded, deterministic set of fault rules plus firing state.

    Install with :func:`install`/:func:`uninstall` or scoped::

        with inject(FaultPlan([FaultRule("commit", at=1)], seed=7)):
            db.run(q, atomic=True)

    ``sleep`` is injectable so latency rules are instantaneous in tests.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.rules: list[FaultRule] = [
            _validated_rule(rule) for rule in rules
        ]
        self.seed = seed
        self.sleep = sleep
        self.rng = random.Random(seed)
        self.hits: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self._rule_firings: dict[int, int] = {}
        # scheduled workers hit one shared plan concurrently; counters
        # and the seeded RNG must stay consistent under that interleaving
        self._lock = threading.Lock()

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(_validated_rule(rule))
        return self

    # -- firing ----------------------------------------------------------
    def hit(self, site: str) -> None:
        """Record one hit of ``site``; fire any matching rule.

        The hit/firing bookkeeping runs under the plan's lock; the
        *consequences* (sleeping, raising) happen outside it so a
        latency rule never stalls other threads' fault decisions.
        """
        to_sleep = 0.0
        to_raise: TransientFault | None = None
        fired: list[tuple[str, int]] = []
        with self._lock:
            count = self.hits.get(site, 0) + 1
            self.hits[site] = count
            for idx, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if not self._matches(idx, rule, count):
                    continue
                self._rule_firings[idx] = self._rule_firings.get(idx, 0) + 1
                self.fired[site] = self.fired.get(site, 0) + 1
                fired.append((rule.kind, count))
                if _OBS.enabled:
                    _METRICS.counter(
                        "faults_injected_total", site=site, kind=rule.kind
                    ).inc()
                if rule.delay:
                    to_sleep += rule.delay
                if rule.kind == "transient" and to_raise is None:
                    to_raise = TransientFault(
                        f"injected fault at {site} (hit #{count})", site=site
                    )
        # flight-record outside the plan lock: the ring has its own
        for kind, hit_no in fired:
            _flight.record("fault", site=site, kind=kind, hit=hit_no)
        if to_sleep:
            self.sleep(to_sleep)
        if to_raise is not None:
            raise to_raise

    def _matches(self, idx: int, rule: FaultRule, count: int) -> bool:
        if rule.times is not None and self._rule_firings.get(idx, 0) >= rule.times:
            return False
        if rule.at is not None and count != rule.at:
            return False
        if rule.every is not None and count % rule.every != 0:
            return False
        if rule.probability is not None and self.rng.random() >= rule.probability:
            return False
        return True

    # -- reporting -------------------------------------------------------
    def describe(self) -> str:
        lines = [f"fault plan (seed {self.seed}):"]
        for rule in self.rules:
            lines.append(f"  {rule.describe()}")
        if not self.rules:
            lines.append("  (no rules)")
        total_hits = sum(self.hits.values())
        total_fired = sum(self.fired.values())
        lines.append(f"hits: {total_hits}, fired: {total_fired}")
        for site in SITES:
            if site in self.hits:
                lines.append(
                    f"  {site}: {self.hits[site]} hit(s), "
                    f"{self.fired.get(site, 0)} fired"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The active plan (process-local, same discipline as repro.obs._state)
# ---------------------------------------------------------------------------


class _FaultState:
    __slots__ = ("plan",)

    def __init__(self) -> None:
        self.plan: FaultPlan | None = None


STATE = _FaultState()


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active fault plan."""
    STATE.plan = plan


def uninstall() -> None:
    """Deactivate fault injection."""
    STATE.plan = None


def active() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return STATE.plan


@dataclass
class _Injection:
    """Context manager returned by :func:`inject`; restores the prior plan."""

    plan: FaultPlan
    _prev: FaultPlan | None = field(default=None, repr=False)

    def __enter__(self) -> FaultPlan:
        self._prev = STATE.plan
        STATE.plan = self.plan
        return self.plan

    def __exit__(self, *exc: object) -> bool:
        STATE.plan = self._prev
        return False


def inject(plan: FaultPlan) -> _Injection:
    """Scoped installation: ``with inject(plan): ...``."""
    return _Injection(plan)


def maybe_fault(site: str) -> None:
    """The hook every site calls; near-free when no plan is installed."""
    plan = STATE.plan
    if plan is not None:
        plan.hit(site)
