import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import genprob
from genprob.catalog import load, names


@lru_cache(maxsize=None)
def catalog_group(name):
    """Session-shared catalog groups: pair caches accumulate across tests."""
    return load(name)


def run_python(code, *args, timeout):
    """Run ``code`` in a fresh interpreter that imports this genprob, with
    the default cap."""
    src = str(Path(genprob.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("GENPROB_CAP", None)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def catalog_names(max_order=None):
    from genprob.catalog import entry

    out = []
    for name in names():
        if max_order is None or entry(name).expected_order <= max_order:
            out.append(name)
    return out


def transporters(G):
    """For each element index i, an image tuple g with rep^g = g_i, rep the
    representative of i's class: each class is searched from its
    representative by conjugating with the generators as tuple products, so
    the oracle does not read the group's index tables."""
    from genprob.perm import identity_tuple, inv, mul

    reps, _, _ = G._conjugacy_data()
    elems = G.element_tuples()
    found = {}
    for r in reps:
        found[r] = identity_tuple(G.degree)
        orbit = [r]
        for i in orbit:
            for s in G._gen_tuples:
                j = G.index_of(mul(mul(inv(s), elems[i]), s))
                if j not in found:
                    found[j] = mul(found[i], s)
                    orbit.append(j)
    return [found[i] for i in range(G.order)]


def conjugate_members(G, members, g):
    """Indices of the conjugates c^-1 m c of the members m, c the image
    tuple ``g``, formed as tuple products: the oracle that row transport by
    conjugation tables is checked against."""
    from genprob.perm import inv, mul

    elems = G.element_tuples()
    g_inv = inv(g)
    return frozenset(G.index_of(mul(mul(g_inv, elems[i]), g)) for i in members)


def brute_omega_global(C, G):
    """Indices of Omega(G), pair by pair: g lies in it iff P(g, G) = 1,
    read off the exhaustive count ``prob_sets``, which decides each pair of
    {g} x G afresh, with no class reduction and no pair cache."""
    from genprob.group import ElementSet
    from genprob.probability import prob_sets

    everything = ElementSet(G, frozenset(range(G.order)))
    return frozenset(
        g for g in range(G.order)
        if prob_sets(C, G, ElementSet(G, frozenset({g})), everything).favorable == G.order)


def list_bfs(adjacency, source):
    """Distance from ``source`` to each vertex it reaches, by a
    breadth-first search over neighbour lists."""
    dist = {source: 0}
    order = [source]
    for v in order:
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    return dist


@pytest.fixture(scope="session")
def group_of():
    return catalog_group


@pytest.fixture
def pair_row_calls(monkeypatch):
    """The image tuple of x for every Omega(x) row that
    ``probability.omega`` computes while the test runs."""
    import genprob.probability as probability

    calls = []
    pair_row = probability.pair_row

    def counted(C, G, xt):
        calls.append(xt)
        return pair_row(C, G, xt)

    monkeypatch.setattr(probability, "pair_row", counted)
    return calls


@pytest.fixture
def chain_builds(monkeypatch):
    """The degree of every stabilizer chain built while the test runs."""
    from genprob.group import StabilizerChain

    calls = []
    init = StabilizerChain.__init__

    def counted(self, degree, gens):
        calls.append(degree)
        init(self, degree, gens)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    return calls


@pytest.fixture
def index_of_calls(monkeypatch):
    """The argument of every ``FiniteGroup.index_of`` call made while the
    test runs."""
    from genprob.group import FiniteGroup

    calls = []
    index_of = FiniteGroup.index_of

    def counted(self, p):
        calls.append(p)
        return index_of(self, p)

    monkeypatch.setattr(FiniteGroup, "index_of", counted)
    return calls


@pytest.fixture
def mul_calls(monkeypatch):
    """The arguments of every tuple product ``perm.mul`` made while the
    test runs, counted at each genprob module that binds it."""
    import sys

    import genprob.perm as perm

    calls = []
    mul = perm.mul

    def counted(p, q):
        calls.append((p, q))
        return mul(p, q)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "genprob" and getattr(module, "mul", None) is mul:
            monkeypatch.setattr(module, "mul", counted)
    return calls
