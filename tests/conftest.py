from functools import lru_cache

import pytest

from genprob.catalog import load, names


@lru_cache(maxsize=None)
def catalog_group(name):
    """Session-shared catalog groups: pair caches accumulate across tests."""
    return load(name)


def catalog_names(max_order=None):
    from genprob.catalog import entry

    out = []
    for name in names():
        if max_order is None or entry(name).expected_order <= max_order:
            out.append(name)
    return out


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

    def counted(C, G, xt, candidates=None):
        calls.append(xt)
        return pair_row(C, G, xt, candidates)

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
