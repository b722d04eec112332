"""The runtime semantics of ``traverse``: a semi-naive reference chase.

One function, :func:`chase`, is shared by every engine — the big-step
evaluator, the reduction machine's (Traverse) rule, and the compiled
pipelines' YELLOW route (every bounded depth) and RED fallback all call
it (the RED closure-index route is a separate implementation certified
equal by the differential suite).  Sharing the frontier loop keeps the
engines' observable behaviour — the reachable oid set, the classes
visited (hence the instrumented effect), and the error/bounding
discipline — identical by construction.

Semantics, matching the typing/effect rules:

* the start set is included at depth 0; ``depth <= k`` admits oids at
  most ``k`` links away; ``depth=None`` chases to saturation;
* the chase is *semi-naive*: only the newly-discovered frontier is
  expanded each round, so a cyclic store converges once the frontier
  drains rather than looping (reachability over a finite OE is always
  finite);
* an object whose class lacks the attribute, or whose attribute holds
  a non-reference value, is a *leaf* — the chain stops there, it does
  not get stuck (a traversal is a reachability query, not a chain of
  projections);
* a reference to an oid absent from OE is a genuine error (dangling
  pointer) and raises through ``oe.get``;
* ``tick`` is invoked once per visited node so callers can charge
  fuel/budget — exhaustion mid-fixpoint raises out of the chase with
  the store untouched (the chase never writes).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.db.store import ObjectEnv, ObjectRecord
from repro.lang.ast import OidRef, Query


def _noop() -> None:
    return None


def attr_value(rec: ObjectRecord, attr: str) -> Query | None:
    """``rec``'s value for ``attr``, or None when undeclared (a leaf)."""
    for a, v in rec.attrs:
        if a == attr:
            return v
    return None


def chase(
    oe: ObjectEnv,
    start: Iterable[str],
    attr: str,
    depth: int | None,
    *,
    tick: Callable[[], None] = _noop,
) -> tuple[frozenset[str], frozenset[str]]:
    """``(reachable oids, classes visited)`` for the closure over ``attr``.

    ``classes visited`` drives the instrumented effect — one ``R(C)``
    per class whose objects the chase touched, always a subeffect of
    the static closure (Figure 3 discipline).
    """
    result: set[str] = set()
    classes: set[str] = set()
    frontier: list[str] = []
    for o in start:
        if o in result:
            continue
        tick()
        classes.add(oe.get(o).cname)
        result.add(o)
        frontier.append(o)

    hops = 0
    while frontier and (depth is None or hops < depth):
        hops += 1
        nxt: list[str] = []
        for o in frontier:
            tick()
            val = attr_value(oe.get(o), attr)
            if not isinstance(val, OidRef) or val.name in result:
                continue
            target = val.name
            classes.add(oe.get(target).cname)
            result.add(target)
            nxt.append(target)
        frontier = nxt
    return frozenset(result), frozenset(classes)
