"""Static reference-closure analysis for recursive ``traverse`` queries.

A ``traverse(x in q over a)`` can read any extent holding an object the
chase might visit.  Statically, the visitable classes are the
*subclass-widened reachable closure* of the source element class under
the declared type of attribute ``a``:

* a runtime element of a ``Set<C>`` source may belong to any subclass
  of ``C``, so every class in ``C``'s subclass cone contributes;
* each cone class that declares (or inherits) ``a`` at a class type
  ``D`` can reach objects of ``D`` — whose runtime class is again
  anywhere in ``D``'s cone — and the chase recurses from there;
* a cone class whose ``a`` is primitive-typed (or that lacks ``a``)
  stops the chain at its objects: a traversal is a reachability query,
  not a projection, so such objects are leaves, not errors.

The closure is the foundation of the Figure 3-style effect rule for
``traverse`` (one ``R`` atom per closure class), which in turn is what
lets the whole stack — compiled routing (Theorem 4), cache/index/stats
invalidation (Theorem 5), the scheduler's conflict graph, replica
freshness marks, and sharding — handle recursion with *no* bespoke
logic: they all consume ``Effect.reads()``.

When a chain escapes the declared schema (an attribute typed at a class
the hierarchy does not know — possible only for hand-built schemas that
bypassed validation), the analysis reports the escape and callers fall
back to reading *every* class: the ``U``-like conservative effect the
issue tracker calls the safety net.
"""

from __future__ import annotations

from repro.model.schema import Schema
from repro.model.types import OBJECT, ClassType


def attr_declared(schema: Schema, cname: str, attr: str) -> bool:
    """True iff ``cname`` declares (or inherits) ``attr`` at any type.

    Distinguishes a primitive-typed attribute — a legitimate chase leaf
    — from an attribute that exists nowhere in the closure, which can
    only be a typo.
    """
    try:
        schema.atype(cname, attr)
    except Exception:
        return False
    return True


def attr_in_closure(schema: Schema, cname: str, attr: str) -> bool:
    """False iff no class a traversal of ``attr`` from ``cname`` may
    reach declares ``attr``: the traversal would be the identity on its
    source, so the attribute can only be a typo.  Both type systems
    reject such a ``traverse``.
    """
    cone, escaped = reachable_closure(schema, cname, attr)
    return escaped or any(attr_declared(schema, c, attr) for c in cone)


def attr_target(schema: Schema, cname: str, attr: str) -> str | None:
    """The class ``attr`` points at from ``cname``, or ``None``.

    ``None`` means the chain stops at ``cname``'s objects: the
    attribute is undeclared there or is not reference-typed.
    """
    try:
        t = schema.atype(cname, attr)
    except Exception:
        return None
    if isinstance(t, ClassType):
        return t.name
    return None


def reachable_closure(
    schema: Schema, cname: str, attr: str
) -> tuple[frozenset[str], bool]:
    """``(classes, escaped)`` for a traversal of ``attr`` from ``cname``.

    ``classes`` is the subclass-widened set of classes whose extents
    the chase may read (always containing ``cname``'s own cone when
    declared).  ``escaped`` is True when a link targets a class the
    hierarchy does not declare — the caller must then widen to the
    whole schema.
    """
    hierarchy = schema.hierarchy
    if cname == OBJECT:
        # a Set<Object> source could hold anything: every class is fair
        # game, which is exactly the whole-schema fallback
        return schema.class_names(), True
    if not hierarchy.declared(cname):
        return frozenset(), True

    seen: set[str] = set()
    escaped = False
    frontier = [cname]
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        if cur == OBJECT or not hierarchy.declared(cur):
            escaped = True
            continue
        # the whole cone joins at once: runtime members of cur's extent
        # family are exactly the cone's instances
        for cone_class in hierarchy.subclasses(cur):
            if cone_class in seen:
                continue
            seen.add(cone_class)
            target = attr_target(schema, cone_class, attr)
            if target is not None:
                frontier.append(target)
    return frozenset(seen), escaped


def closure_read_set(schema: Schema, cname: str, attr: str) -> frozenset[str]:
    """The classes a traversal from ``cname`` over ``attr`` may read.

    The escape hatch applied: a chain leaving the declared schema
    widens to every class (the conservative ``U``-like read set).
    """
    classes, escaped = reachable_closure(schema, cname, attr)
    if escaped:
        return schema.class_names() | classes
    return classes


def result_lub(schema: Schema, cname: str, attr: str) -> str:
    """The lub-widened element class of a traversal's result set.

    Folds :func:`ClassHierarchy.lub_class` over the reachable closure —
    with single inheritance and the common root this always exists
    (``Object`` in the worst case).
    """
    classes, escaped = reachable_closure(schema, cname, attr)
    if escaped or not classes:
        return OBJECT
    out: str | None = None
    for c in sorted(classes):
        out = c if out is None else schema.hierarchy.lub_class(out, c)
    return out if out is not None else OBJECT
