"""Compiled set-at-a-time execution of IOQL queries.

The reduction machine (Figure 2/4) and the big-step evaluator execute
comprehensions tuple-at-a-time over immutable environments — faithful
to the paper, but far slower than the hardware allows.  This package
supplies the production path the paper licenses:

* Theorem 4 (functional queries are deterministic up to the oid
  bijection ∼) means any evaluation of a ``new``-free query that agrees
  with the machine on observables is sound — so we may compile such
  queries to set-at-a-time pipeline operators and run them without
  consulting the reduction rules at all;
* Theorem 5 (every dynamic effect trace is a subeffect of the static
  Figure 3 effect) tells us exactly which extents a cached plan or
  result can depend on — so a committed write with ``A(C)``/``U(C)``
  atoms needs to evict only the cache entries whose ``R`` set touches
  ``C``.

Modules:

* :mod:`repro.exec.compiler` — lowers a typechecked, optimizer-
  normalised query to a tree of Python closures (scan, filter with each
  predicate where the optimizer left it, hash join, projection, the
  binary set operators);
* :mod:`repro.exec.runtime` — the per-evaluation :class:`ExecContext`
  of one database at one store triple, threading budgets, fault sites,
  obs and the dynamic effect trace through the operators;
* :mod:`repro.exec.cache` — the effect-invalidated plan/result cache;
* :mod:`repro.exec.engine` — the entry points used by
  :meth:`repro.db.database.Database.run` and the explain surfaces.
"""

from repro.exec.cache import PlanCache, PlanEntry, schema_fingerprint
from repro.exec.compiler import CompiledPlan, NotCompilable, compile_plan
from repro.exec.engine import PlanDecision, execute_plan
from repro.exec.runtime import ExecContext

__all__ = [
    "CompiledPlan",
    "ExecContext",
    "NotCompilable",
    "PlanCache",
    "PlanDecision",
    "PlanEntry",
    "compile_plan",
    "execute_plan",
    "schema_fingerprint",
]
