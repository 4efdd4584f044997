import itertools

import pytest
from hypothesis import given, strategies as st

from genprob import FiniteGroup, Permutation
from genprob.errors import DegreeMismatch, ParseError
from genprob.perm import identity_tuple, inv, mul
from genprob.tower import dihedral_tower


def perms(degree):
    return st.permutations(range(degree)).map(lambda t: Permutation(tuple(t)))


class TestBasics:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity()
        assert e.images == (0, 1, 2, 3)
        assert str(e) == "()"

    def test_composition_is_left_to_right(self):
        # image-tuple convention: (p*q)(i) = q(p(i))
        a = Permutation.parse("(1,2,3)", 5)
        b = Permutation.parse("(1,2,3,4,5)", 5)
        assert str(a * b) == "(1,3,2,4,5)"
        assert (a * b).order() == 5

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            Permutation.identity(3) * Permutation.identity(4)

    def test_order(self):
        assert Permutation.parse("(1,2)(3,4,5)", 5).order() == 6
        assert Permutation.identity(7).order() == 1

    def test_pow_and_inverse(self):
        p = Permutation.parse("(1,2,3,4)", 4)
        assert p ** 4 == Permutation.identity(4)
        assert p ** -1 == p.inverse()
        assert p ** 0 == Permutation.identity(4)

    def test_conjugation_via_pow(self):
        x = Permutation.parse("(1,2)", 4)
        g = Permutation.parse("(1,3)", 4)
        assert x ** g == Permutation.parse("(2,3)", 4)

    def test_cycles_sorted_by_smallest_moved_point(self):
        p = Permutation.parse("(4,5)(1,2,3)", 6)
        assert p.cycles() == [(0, 1, 2), (3, 4)]


class TestParsing:
    def test_roundtrip(self):
        for text in ["()", "(1,2)", "(1,2,3)(4,5)", "(2,7)(3,5,6)"]:
            p = Permutation.parse(text, 7)
            assert Permutation.parse(str(p), 7) == p

    @pytest.mark.parametrize("bad", [
        "(1,2", "(0,1)", "(1,9)", "(1,1)", "(1,2)(2,3)", "junk",
        pytest.param(f"(1,{'9' * 5000})", id="5000-digit-point"),
    ])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            Permutation.parse(bad, 5)


class TestProperties:
    @given(perms(6), perms(6))
    def test_mul_matches_tuple_helper(self, p, q):
        assert (p * q).images == mul(p.images, q.images)

    @given(perms(6))
    def test_inverse_cancels(self, p):
        assert (p * p.inverse()).is_identity()
        assert inv(p.images) == p.inverse().images

    @given(perms(5), perms(5), perms(5))
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(perms(6))
    def test_order_annihilates(self, p):
        assert (p ** p.order()).is_identity()
        for k in range(1, p.order()):
            assert not (p ** k).is_identity()

    @given(perms(6))
    def test_str_parse_roundtrip(self, p):
        assert Permutation.parse(str(p), 6) == p

    @given(perms(6), perms(6))
    def test_conjugation_is_homomorphism_in_base(self, x, g):
        assert (x ** g).images == mul(mul(inv(g.images), x.images), g.images)

    def test_identity_tuple(self):
        assert identity_tuple(4) == (0, 1, 2, 3)


class TestMulKernel:
    """``mul`` gathers with one itemgetter from degree 2 up, and with a map
    below, where an itemgetter would return a bare item or refuse."""

    @staticmethod
    def reference(p, q):
        return tuple(q[i] for i in p)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_small_degrees(self, degree):
        for p in itertools.permutations(range(degree)):
            for q in itertools.permutations(range(degree)):
                product = mul(p, q)
                assert type(product) is tuple
                assert product == self.reference(p, q)

    def test_degree_729(self):
        top = dihedral_tower(3, 6).levels[-1]
        assert top.degree == 729
        r, x = (g.images for g in top.generators)
        for p, q in [(r, x), (x, r), (r, r), (mul(r, x), r), (x, mul(x, r))]:
            assert mul(p, q) == self.reference(p, q)

    def test_permutation_product_on_degree_one(self):
        G = FiniteGroup(1, [Permutation.identity(1)])
        e = G.identity
        assert (e * e).images == (0,)
        assert e * e == e and e ** 3 == e
        assert G.order == 1 and G.elements() == [e]
