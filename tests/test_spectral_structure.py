"""Irreducibility and aperiodicity of the support digraph against an
oracle that uses no matrix powers: sympy's strongly connected components,
and each component's period as the gcd of its simple cycles' lengths,
enumerated by brute force over orderings of its nodes."""

import itertools
import math
import random

import pytest
from sympy.utilities.iterables import strongly_connected_components

from powerpos import PolyMatrix, Polynomial, is_aperiodic, is_irreducible

ONE, ZERO = Polynomial.constant(1, 1), Polynomial.zero(1)


def support_matrix(dim, edges):
    return PolyMatrix.from_rows([[ONE if (i, j) in edges else ZERO for j in range(dim)]
                                 for i in range(dim)])


def component_period(nodes, edges):
    """gcd of the lengths of the simple cycles within `nodes`; 0 if none.
    Each cycle is listed once, from its least node."""
    g = 0
    for start in nodes:
        rest = [v for v in nodes if v > start]
        for k in range(len(rest) + 1):
            for path in itertools.permutations(rest, k):
                cycle = (start, *path, start)
                if all(step in edges for step in zip(cycle, cycle[1:])):
                    g = math.gcd(g, k + 1)
                    if g == 1:
                        return 1
    return g


def oracle(dim, edges):
    """(irreducible, aperiodic): one component that carries a cycle, and
    every component of period 1 (a node on no cycle has period 0)."""
    periods = [component_period(sorted(c), edges)
               for c in strongly_connected_components((list(range(dim)), sorted(edges)))]
    return len(periods) == 1 and periods[0] > 0, all(g == 1 for g in periods)


def all_digraphs(max_dim):
    for dim in range(1, max_dim + 1):
        pairs = list(itertools.product(range(dim), repeat=2))
        for bits in range(2 ** len(pairs)):
            yield dim, {pair for k, pair in enumerate(pairs) if bits >> k & 1}


def random_digraphs(count, seed=83):
    """Random digraphs on 4-7 nodes: half with independent edges, half
    layered (edges only from class c to class c + 1 mod k, plus at most
    one chord), so periodic components are common."""
    rng = random.Random(seed)
    for index in range(count):
        dim = rng.randint(4, 7)
        density = rng.uniform(0.15, 0.6)
        pairs = itertools.product(range(dim), repeat=2)
        if index % 2 == 0:
            yield dim, {pair for pair in pairs if rng.random() < density}
            continue
        k = rng.randint(2, 4)
        layer = [rng.randrange(k) for _ in range(dim)]
        edges = {(i, j) for i, j in pairs
                 if layer[j] == (layer[i] + 1) % k and rng.random() < density + 0.3}
        if rng.random() < 0.5:
            edges.add((rng.randrange(dim), rng.randrange(dim)))
        yield dim, edges


def cycle(dim):
    return {(i, (i + 1) % dim) for i in range(dim)}


def test_structure_matches_the_oracle_on_every_small_and_many_random_digraphs():
    graphs = list(all_digraphs(3))
    assert len(graphs) == 530
    graphs += random_digraphs(500)
    seen = set()
    for dim, edges in graphs:
        a = support_matrix(dim, edges)
        got = (is_irreducible(a), is_aperiodic(a))
        assert got == oracle(dim, edges), (dim, sorted(edges))
        seen.add((dim > 3, got))
    # every outcome occurs among both the small and the random digraphs
    assert seen == {(big, (irr, aper)) for big in (False, True)
                    for irr in (False, True) for aper in (False, True)}


@pytest.mark.parametrize("dim, edges, irreducible, aperiodic, periods", [
    # all closed walks have length 8, the dim itself
    (8, cycle(8), True, False, [8]),
    # the chord 4 -> 0 adds a 5-cycle; nodes 5..7 lie on the 8-cycle alone
    (8, cycle(8) | {(4, 0)}, True, True, [1]),
    # self-loops make {0, 1} aperiodic, but node 2 has no edge at all
    (3, {(0, 0), (0, 1), (1, 0), (1, 1)}, False, False, [1, 0]),
], ids=["8-cycle", "8-cycle-with-5-cycle-chord", "edgeless-node"])
def test_named_structures(dim, edges, irreducible, aperiodic, periods):
    a = support_matrix(dim, edges)
    assert is_irreducible(a) is irreducible
    assert is_aperiodic(a) is aperiodic
    assert oracle(dim, edges) == (irreducible, aperiodic)
    components = strongly_connected_components((list(range(dim)), sorted(edges)))
    assert sorted(component_period(sorted(c), edges) for c in components) == sorted(periods)
