"""Graph-shape differential certification of `traverse`.

Every query runs through all three engines — the big-step fixpoint (the
spec), the reduction machine's (Traverse) rule, and the compiled
pipeline with its two complexity routes — and all three must agree
exactly with an *independent* model-level closure
(:func:`tests.traverse_helpers.reachable`).  The compiled run's dynamic
effect must additionally stay inside the static Figure-3 bound.

Shapes are chosen to stress the fixpoint's edge rules: self-loops
(1-cycles), 2-cycles, diamonds (converging chains, where naive
frontier handling double-visits), chains deeper than 1000 nodes (well
past any plausible stack limit), disconnected components, and mixed
Ref/Node chains whose leaves lack the traversed attribute.  Depths cover
both routes: every bounded depth (0/2/8/9/50) takes the YELLOW
iterative chase, unbounded takes RED (the closure index's parent walk
when acyclic, the chase otherwise).

The grid is 6 shapes x 10 seeds x 6 depths = 360 differential queries,
plus sharded-extent and ``run_many`` batches over the same stores.
"""

from __future__ import annotations

import random

import pytest

from repro.effects.algebra import Effect, read

from tests.traverse_helpers import graph_db, oids, reachable

DEPTHS = (0, 2, 8, 9, 50, None)
SEEDS = range(10)
ENGINES = ("bigstep", "reduction", "compiled")


# ---------------------------------------------------------------------------
# shape generators: seed -> edges dict
# ---------------------------------------------------------------------------


def shape_selfloop(rng: random.Random) -> dict:
    """Self-loops sprinkled among short chains."""
    edges: dict = {}
    n = rng.randrange(4, 12)
    for i in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            edges[f"s{i}"] = f"s{i}"  # 1-cycle
        elif kind == 1:
            edges[f"s{i}"] = f"s{(i + 1) % n}"
        else:
            edges[f"s{i}"] = None
    return edges


def shape_two_cycle(rng: random.Random) -> dict:
    """Disjoint 2-cycles, some with tails feeding into them."""
    edges: dict = {}
    pairs = rng.randrange(2, 6)
    for p in range(pairs):
        a, b = f"p{p}a", f"p{p}b"
        edges[a], edges[b] = b, a
        if rng.random() < 0.5:
            edges[f"p{p}t"] = a  # a tail entering the cycle
    return edges


def shape_diamond(rng: random.Random) -> dict:
    """Converging chains: many roots funnel into one shared spine."""
    edges: dict = {}
    spine = rng.randrange(3, 8)
    for i in range(spine - 1):
        edges[f"m{i}"] = f"m{i + 1}"
    edges[f"m{spine - 1}"] = None
    for r in range(rng.randrange(2, 7)):
        edges[f"d{r}"] = f"m{rng.randrange(spine)}"
    return edges


def shape_deep_chain(rng: random.Random) -> dict:
    """A single chain > 1000 nodes — far past any recursion limit."""
    n = 1001 + rng.randrange(50)
    edges = {f"c{i:05d}": f"c{i + 1:05d}" for i in range(n - 1)}
    edges[f"c{n - 1:05d}"] = None
    return edges


def shape_disconnected(rng: random.Random) -> dict:
    """Several islands: chains, cycles, and isolated leaves."""
    edges: dict = {}
    for isle in range(rng.randrange(3, 6)):
        kind = rng.randrange(3)
        size = rng.randrange(1, 5)
        names = [f"i{isle}n{j}" for j in range(size)]
        for j, name in enumerate(names):
            if kind == 0:  # chain
                edges[name] = names[j + 1] if j + 1 < size else None
            elif kind == 1:  # ring
                edges[name] = names[(j + 1) % size]
            else:  # isolated leaves
                edges[name] = None
    return edges


def shape_mixed(rng: random.Random) -> dict:
    """Random functional graph over Ref and Node objects."""
    n = rng.randrange(6, 20)
    names = [f"x{i}" for i in range(n)]
    edges: dict = {}
    for name in names:
        if rng.random() < 0.3:
            edges[name] = None  # Node leaf: no `next` at all
        else:
            edges[name] = names[rng.randrange(n)]
    return edges


SHAPES = {
    "selfloop": shape_selfloop,
    "two_cycle": shape_two_cycle,
    "diamond": shape_diamond,
    "deep_chain": shape_deep_chain,
    "disconnected": shape_disconnected,
    "mixed": shape_mixed,
}


def pick_start(rng: random.Random, edges: dict) -> tuple[str, list[str]]:
    """A query source string and the model-level start names."""
    refs = sorted(n for n, t in edges.items() if t is not None)
    nodes = sorted(n for n, t in edges.items() if t is None)
    choice = rng.randrange(3)
    if choice == 0 and refs:
        return "refs", refs
    if choice == 1 and nodes:
        return "nodes", nodes
    pool = sorted(edges)
    starts = sorted(rng.sample(pool, min(len(pool), 3)))
    literal = "{" + ", ".join(f"@{s}" for s in starts) + "}"
    return literal, starts


def query_src(source: str, depth) -> str:
    bound = f" depth <= {depth}" if depth is not None else ""
    return f"traverse(x in {source} over next{bound})"


# ---------------------------------------------------------------------------
# the 360-query differential grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_all_engines_agree_with_model(shape, seed):
    rng = random.Random(f"{shape}-{seed}")
    edges = SHAPES[shape](rng)
    db = graph_db(edges)
    for depth in DEPTHS:
        source, starts = pick_start(rng, edges)
        src = query_src(source, depth)
        expected = reachable(edges, starts, depth)
        static = db.effect_of(src)
        answers = {}
        for engine in ENGINES:
            res = db.run(src, engine=engine, commit=False)
            answers[engine] = oids(res.value)
            assert res.effect.subeffect_of(static), (
                f"{shape}/{seed}/{engine}: dynamic effect escapes static "
                f"bound for {src}"
            )
        for engine, got in answers.items():
            assert got == expected, (
                f"{shape}/{seed}/{engine}: {src} diverged from model "
                f"({len(got)} vs {len(expected)} oids)"
            )


def test_static_effect_is_closure_not_syntax():
    # the differential grid checks containment; pin the exact bound
    db = graph_db({"a": "b", "b": None})
    assert db.effect_of("traverse(x in refs over next)") == Effect.of(
        read("Node"), read("Ref")
    )


# ---------------------------------------------------------------------------
# sharded extents answer identically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ("diamond", "mixed", "two_cycle"))
@pytest.mark.parametrize("seed", range(4))
def test_sharded_store_agrees(shape, seed):
    rng = random.Random(f"shard-{shape}-{seed}")
    edges = SHAPES[shape](rng)
    plain = graph_db(edges)
    sharded = graph_db(edges)
    sharded.shard("Ref", k=4)
    sharded.shard("Node", k=2)
    for depth in (0, 8, 9, None):
        src = query_src("refs", depth)
        a = oids(plain.run(src, commit=False).value)
        b = oids(sharded.run(src, engine="compiled", commit=False).value)
        assert a == b, f"{shape}/{seed}: sharded diverged on {src}"


# ---------------------------------------------------------------------------
# run_many batches answer as-if sequential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_run_many_traversals_match_sequential(seed):
    rng = random.Random(f"batch-{seed}")
    edges = shape_mixed(rng)
    db = graph_db(edges)
    sources = []
    for depth in DEPTHS:
        source, _ = pick_start(rng, edges)
        sources.append(query_src(source, depth))
    expected = [oids(db.run(s, commit=False).value) for s in sources]
    result = db.run_many(sources, workers=4)
    assert len(result) == len(sources)
    for i, outcome in enumerate(result):
        assert outcome.ok, f"batch query {i} raised {outcome.error!r}"
        assert oids(outcome.value) == expected[i]


def test_run_many_traverse_interleaved_with_writes():
    # a traverse's widened R-closure must serialize against an A(Node)
    # writer admitted earlier — the batch answers as-if sequential
    db = graph_db({"a": "b", "b": None})
    sources = [
        "traverse(x in refs over next)",
        "new Node(tag: 99)",
        "traverse(x in nodes over next)",
    ]
    result = db.run_many(sources, workers=4)
    assert all(o.ok for o in result)
    assert oids(result[0].value) == {"@a", "@b"}
    # the third query sees the Node created by the second
    assert len(result[2].value.items) == 2
