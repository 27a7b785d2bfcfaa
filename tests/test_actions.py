"""Generator actions, word algebra and the conjugation-orbit decision."""

import json
import random
import re
from fractions import Fraction

import pytest

from hypothesis import assume, given, settings, strategies as st

from rbx.actions import (
    Dilate,
    InvalidGenerator,
    Shear,
    ShearSquared,
    Translate,
    affine_orbit_word,
    apply_word,
    apply_word_tuple,
    generator_from_json,
    generator_to_json,
    inverse_word,
    word_from_json,
    word_to_json,
)
from rbx.operators import AnalyticOp
from rbx.poly import Poly
from random_values import random_poly, random_rat


def random_vanishing(rng, b, max_deg=3):
    return Poly((-b, Fraction(1))) * random_poly(rng, max_deg)


def random_op(rng, max_deg=4):
    return AnalyticOp(random_rat(rng), random_poly(rng, max_deg))


big_rats = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**256), 2**256), st.integers(1, 2**256)),
)
polys = st.lists(big_rats, max_size=5).map(lambda cs: Poly(tuple(cs)))


class TestGenerators:
    def test_shear_formula(self):
        op = AnalyticOp(0, Poly.one())
        assert Shear(1, Poly((-1, 1))).apply(op) == AnalyticOp(0, Poly.x())

    def test_shear_fixed_point(self):
        # multiplier vanishing at b: the shear does nothing
        op = AnalyticOp(0, Poly.x())
        assert Shear(0, Poly((0, 0, 1))).apply(op) == op

    @pytest.mark.parametrize("kind", [Shear, ShearSquared])
    def test_zero_fiber_value_returns_op(self, kind):
        # op.r has a root at each shear's base point, so r(b)**power * s is zero
        rng = random.Random(29)
        for _ in range(20):
            b = random_rat(rng)
            op = AnalyticOp(random_rat(rng), random_vanishing(rng, b))
            gen = kind(b, random_vanishing(rng, b))
            assert gen.apply(op) == op
            assert apply_word((gen, gen.inverse()), op) == op
            # a tuple mixing a zero and a nonzero fiber value still round-trips
            other = AnalyticOp(op.a, op.r + Poly.one())
            assert apply_word_tuple((gen, gen.inverse()), [op, other]) == [op, other]
            assert gen.apply(other) != other

    def test_translate_formula(self):
        assert Translate(2).apply(AnalyticOp(2, Poly.x())) == AnalyticOp(0, Poly((2, 1)))

    def test_dilate_formula(self):
        assert Dilate(2).apply(AnalyticOp(2, Poly.x())) == AnalyticOp(1, Poly((0, 2)))

    def test_squared_shear_uses_squared_value(self):
        op = AnalyticOp(0, Poly.constant(3))
        moved = ShearSquared(0, Poly.x()).apply(op)
        assert moved.r == Poly((3, 9))

    @pytest.mark.parametrize("kind", [Shear, ShearSquared])
    @settings(deadline=None)
    @given(data=st.data())
    def test_apply_matches_the_defining_formula(self, kind, data):
        # r + r(b)**power * s, with 256-bit numerators and denominators and
        # multipliers vanishing at b
        b = data.draw(big_rats)
        s = Poly((-b, 1)) * data.draw(polys)
        r = data.draw(polys)
        root = data.draw(st.booleans())
        if root:
            r = Poly((-b, 1)) * r
        assume(r)
        op = AnalyticOp(data.draw(big_rats), r)
        moved = kind(b, s).apply(op)
        assert moved == AnalyticOp(op.a, r + s * r(b) ** kind.power)
        if root:
            assert moved == op

    def test_invariants_enforced(self):
        with pytest.raises(InvalidGenerator):
            Shear(1, Poly.one())
        with pytest.raises(InvalidGenerator):
            ShearSquared(0, Poly((1, 1)))
        with pytest.raises(InvalidGenerator):
            Dilate(0)

    def test_nonzero_multiplier_preserved(self):
        rng = random.Random(13)
        for _ in range(20):
            op = random_op(rng)
            b = random_rat(rng)
            assert not Shear(b, random_vanishing(rng, b)).apply(op).r.is_zero()
            assert not ShearSquared(b, random_vanishing(rng, b)).apply(op).r.is_zero()


class TestWords:
    def test_empty_word_is_identity(self):
        op = AnalyticOp(1, Poly((1, 2)))
        assert apply_word((), op) == op

    def test_opposite_shears_cancel(self):
        rng = random.Random(19)
        for _ in range(10):
            op = random_op(rng)
            b = random_rat(rng)
            s = random_vanishing(rng, b)
            assert apply_word((Shear(b, s), Shear(b, -s)), op) == op

    def test_concatenation_matches_sequencing(self):
        rng = random.Random(23)
        op = random_op(rng)
        w1 = (Translate(random_rat(rng)), Shear(0, Poly((0, 1))))
        w2 = (Dilate(Fraction(3, 2)),)
        assert apply_word(w1 + w2, op) == apply_word(w2, apply_word(w1, op))

    def test_inverse_word_round_trip(self):
        rng = random.Random(29)
        for _ in range(10):
            op = random_op(rng)
            b = random_rat(rng)
            word = (
                Shear(b, random_vanishing(rng, b)),
                ShearSquared(b, random_vanishing(rng, b)),
                Translate(random_rat(rng)),
                Dilate(Fraction(rng.randint(1, 5), rng.randint(1, 3))),
            )
            assert apply_word(word + inverse_word(word), op) == op

    def test_single_inverses(self):
        assert inverse_word((Translate(3),)) == (Translate(-3),)
        assert inverse_word(()) == ()
        gen = ShearSquared(1, Poly((-1, 1)))
        assert inverse_word((gen,)) == (ShearSquared(1, Poly((1, -1))),)

    def test_tuple_action_is_diagonal(self):
        rng = random.Random(31)
        ops = [random_op(rng) for _ in range(3)]
        word = (Shear(0, Poly((0, 1))), Translate(1))
        assert apply_word_tuple(word, ops) == [apply_word(word, op) for op in ops]


class TestInvariants:
    def test_fiber_value(self):
        assert AnalyticOp(5, Poly.x()).r(2) == 2
        assert AnalyticOp(0, Poly((-2, 1))).r(2) == 0

    def test_fiber_value_invariant_under_shears(self):
        rng = random.Random(37)
        for _ in range(20):
            op = random_op(rng)
            b = random_rat(rng)
            s = random_vanishing(rng, b)
            assert Shear(b, s).apply(op).r(b) == op.r(b)
            assert ShearSquared(b, s).apply(op).r(b) == op.r(b)

    def test_orbit_chart(self):
        op = AnalyticOp(2, Poly.x())
        assert (op.a, op.r(1)) == (2, 1)

    def test_orbit_chart_invariant(self):
        rng = random.Random(41)
        for _ in range(20):
            op = random_op(rng)
            chart = (op.a, op.r(1))
            moved = Shear(1, random_vanishing(rng, Fraction(1))).apply(op)
            assert (moved.a, moved.r(1)) == chart

    def test_excluded_locus_flagged(self):
        assert AnalyticOp(0, Poly((-1, 1))).r(1) == 0

    def test_translation_is_conjugation(self):
        # the translated operator is g . R . g^(-1) for the substitution
        # g: p(x) -> p(x + nu)
        rng = random.Random(43)
        for _ in range(10):
            op = random_op(rng, 3)
            nu = random_rat(rng)
            f = random_poly(rng, 3)
            moved = Translate(nu).apply(op)
            conjugated = op.apply(f.compose_affine(1, -nu)).compose_affine(1, nu)
            assert moved.apply(f) == conjugated

    def test_dilation_is_conjugation_up_to_the_factor(self):
        # conjugating by p(x) -> p(mu*x) rescales the image by mu
        rng = random.Random(47)
        for _ in range(10):
            op = random_op(rng, 3)
            mu = Fraction(0)
            while mu == 0:
                mu = random_rat(rng)
            f = random_poly(rng, 3)
            moved = Dilate(mu).apply(op)
            conjugated = op.apply(f.compose_affine(1 / mu, 0)).compose_affine(mu, 0)
            assert conjugated == moved.apply(f) * mu


class TestAffineOrbit:
    def test_witness_verified(self):
        op1 = AnalyticOp(0, Poly.x())
        op2 = AnalyticOp(1, Poly((-2, 2)))
        word = affine_orbit_word(op1, op2)
        assert word is not None
        assert apply_word(word, op1) == op2

    def test_self_orbit(self):
        op = AnalyticOp(Fraction(1, 2), Poly((1, 0, 3)))
        word = affine_orbit_word(op, op)
        assert word is not None and apply_word(word, op) == op

    def test_degree_mismatch(self):
        assert affine_orbit_word(AnalyticOp(0, Poly.x()), AnalyticOp(0, Poly.monomial(2))) is None

    def test_even_degree_needs_square_ratio(self):
        op1 = AnalyticOp(0, Poly.monomial(2))
        assert affine_orbit_word(op1, AnalyticOp(0, Poly.monomial(2, 2))) is None
        word = affine_orbit_word(op1, AnalyticOp(0, Poly.monomial(2, 4)))
        assert word is not None and apply_word(word, op1) == AnalyticOp(0, Poly.monomial(2, 4))

    def test_negative_dilation_branch(self):
        op1 = AnalyticOp(0, Poly((0, 0, 1, 1)))  # x^2 + x^3
        op2 = apply_word((Translate(2), Dilate(-3)), op1)
        word = affine_orbit_word(op1, op2)
        assert word is not None and apply_word(word, op1) == op2

    def test_random_conjugations(self):
        rng = random.Random(53)
        for _ in range(20):
            op = random_op(rng)
            mu = Fraction(0)
            while mu == 0:
                mu = random_rat(rng)
            image = apply_word((Translate(random_rat(rng)), Dilate(mu)), op)
            word = affine_orbit_word(op, image)
            assert word is not None and apply_word(word, op) == image


class TestWordJson:
    def test_round_trip(self):
        word = (
            Shear(Fraction(1, 2), Poly((Fraction(-1, 2), 1))),
            ShearSquared(0, Poly.monomial(3)),
            Translate(Fraction(-7, 3)),
            Dilate(2),
        )
        assert word_from_json(word_to_json(word)) == word

    def test_tags(self):
        data = word_to_json((Shear(0, Poly.x()), Translate(1)))
        assert [item["type"] for item in data] == ["HB", "GA"]

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            word_from_json([{"type": "XX"}])

    def test_bytes(self):
        word = (Shear(Fraction(1, 2), Poly((Fraction(-1, 2), 1))), ShearSquared(0, Poly.x()),
                Translate(-7), Dilate(Fraction(2, 3)))
        assert json.dumps(word_to_json(word)) == (
            '[{"type": "HB", "b": "1/2", "s": "x - 1/2"}, {"type": "HB2", "b": "0", "s": "x"}, '
            '{"type": "GA", "nu": "-7"}, {"type": "GM", "mu": "2/3"}]'
        )

    @pytest.mark.parametrize("kind", ["hb", 1, None, ["HB"], {"HB": 1}])
    def test_unknown_type_message(self, kind):
        with pytest.raises(ValueError, match=re.escape(f"unknown generator type {kind!r}")):
            generator_from_json({"type": kind, "b": "0", "s": "x"})

    def test_missing_field(self):
        with pytest.raises(ValueError, match=re.escape("generator HB2 needs field 's'")):
            generator_from_json({"type": "HB2", "b": "0"})
        with pytest.raises(ValueError, match=re.escape("generator GM needs field 'mu'")):
            generator_from_json({"type": "GM", "nu": "1"})
        with pytest.raises(ValueError, match=re.escape("generator HB needs field 'b'")):
            word_from_json([{"type": "HB", "s": "x"}])

    @pytest.mark.parametrize("data", ["HB", {"type": "GA", "nu": "1"}, None, 3])
    def test_word_is_not_an_array(self, data):
        with pytest.raises(TypeError, match="^expected an array of generator objects$"):
            word_from_json(data)

    @pytest.mark.parametrize("item", [1, "HB", [{"type": "GA", "nu": "1"}], None])
    def test_generator_is_not_an_object(self, item):
        with pytest.raises(TypeError, match="^expected a generator object$"):
            word_from_json([{"type": "GA", "nu": "1"}, item])

    def test_not_a_generator(self):
        with pytest.raises(TypeError, match=re.escape("not a generator: 'HB'")):
            generator_to_json("HB")
