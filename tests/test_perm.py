import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from genprob import FiniteGroup, Permutation
from genprob.errors import DegreeMismatch, ParseError
from genprob.perm import identity_tuple, inv, mul
from genprob.tower import dihedral_tower
from genprob.util import prime_factors

from conftest import run_python


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
        with pytest.raises(DegreeMismatch):
            Permutation.parse("(1,2)", 3) ** Permutation.parse("(1,2)", 4)
        a, b = Permutation.parse("(1,2)", 2), Permutation.identity(3)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DegreeMismatch):
                x.commutes_with(y)
        assert a.commutes_with(Permutation.identity(2))

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


class TestValueSemantics:
    def test_equal_images_are_equal_and_hash_alike(self):
        p = Permutation.parse("(1,2,3)", 4)
        q = Permutation((1, 2, 0, 3))
        assert p == q and p is not q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1
        assert p != Permutation.identity(4)
        assert p != p.images

    def test_order_is_that_of_the_image_tuples(self):
        perms = [Permutation(t) for t in itertools.permutations(range(3))]
        assert sorted(reversed(perms)) == perms
        a, b = perms[1], perms[2]
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a or b <= a or a > b or a >= b)
        assert a <= a and a >= a and not a < a and not a > a
        with pytest.raises(TypeError):
            a < a.images

    def test_assignment_raises(self):
        p = Permutation.identity(3)
        with pytest.raises(AttributeError):
            p.images = (1, 0, 2)
        with pytest.raises(AttributeError):
            p.label = "x"
        with pytest.raises(AttributeError):
            del p.images
        assert p.images == (0, 1, 2)

    def test_images_must_be_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))
        with pytest.raises(ValueError):
            Permutation(images=(1, 2))

    def test_repr(self):
        assert repr(Permutation.parse("(1,2)(3,4)", 5)) == "Permutation[5] (1,2)(3,4)"
        assert repr(Permutation.identity(2)) == "Permutation[2] ()"

    def test_copy_and_pickle_keep_the_value(self):
        p = Permutation.parse("(1,3)(2,4,5)", 5)
        assert copy.copy(p) == p
        assert copy.deepcopy(p) == p
        assert pickle.loads(pickle.dumps(p)) == p

    def test_product_with_a_non_permutation_is_a_type_error(self):
        with pytest.raises(TypeError):
            Permutation.parse("(1,2)", 3) * 3
        with pytest.raises(TypeError):
            3 * Permutation.parse("(1,2)", 3)


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


@pytest.mark.parametrize("call", [
    "pi_part(6, [1])", "pi_part(6, [0])", "pi_part(6, (2, 1))", "pi_part(6, [-3])",
    "prime_component((1, 2, 0), 3, [1])",
])
def test_prime_below_two_is_refused(call):
    # n % 1 is always 0, so a 1 among the primes looped for ever, and a 0
    # raised ZeroDivisionError; a fresh interpreter with a timeout shows a
    # hang as a failure
    result = run_python(
        "from genprob.perm import prime_component\n"
        "from genprob.util import pi_part\n"
        f"try:\n    {call}\nexcept ValueError as e:\n    print(e)\n", timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("not a prime: ")


@pytest.mark.parametrize("n", [0, -6])
def test_prime_factors_refuses_n_below_one(n):
    # both gave [], as if n had no prime divisor, where pi_part refuses them
    with pytest.raises(ValueError, match=f"^not a positive integer: {n}$"):
        prime_factors(n)


@pytest.mark.parametrize("call, message", [
    ("pi_part(0, [2])", "not a positive integer: 0"),
    ("pi_part(-4, [2])", "not a positive integer: -4"),
    ("prime_component((1, 2, 0), 0, [3])", "not a positive integer: 0"),
    ("tuple_power((1, 2, 0), -1)", "negative exponent: -1"),
])
def test_out_of_range_argument_is_refused(call, message):
    # every p divides 0, and -1 >> 1 is -1, so those looped for ever; a
    # negative n gave a part all the same
    result = run_python(
        "from genprob.perm import prime_component, tuple_power\n"
        "from genprob.util import pi_part\n"
        f"try:\n    {call}\nexcept ValueError as e:\n    print(e)\n", timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout == message + "\n"
