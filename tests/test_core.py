import random

import pytest
from hypothesis import given, strategies as st

from ckgeo.core import (
    CENTRAL_ELEMENT,
    CENTRAL_WORD,
    GENERATORS,
    IDENTITY,
    Element,
    evaluate,
    inverse,
    is_normalized,
    lattice_path,
    multiply,
    right_neighbors,
)
from ckgeo.errors import ParseError
from ckgeo.words import LETTERS
from references import (
    IsometryKind,
    apply_isometry,
    apply_letter_map,
    letter_map_for,
    normalize_quadrant,
    project_to_klein,
    word_inverse,
)

SEED = 2024


def random_word(rng, max_len=40):
    return "".join(rng.choice(LETTERS) for _ in range(rng.randrange(max_len + 1)))


class TestElement:
    def test_format_parse_round_trip(self):
        g = Element(2, -1, 4)
        assert g.format() == "(2,-1,4)"
        assert Element.parse("(2, -1, 4)") == g
        assert Element.parse("(0,0,0)") == IDENTITY

    def test_parse_accepts_bare_triple(self):
        assert Element.parse("2,-1,4") == Element(2, -1, 4)

    def test_parse_rejects_garbage(self):
        for text in ("(2,-1)", "(a,b,c)", "()", "(1,2,3,4)", "(1,2,3", "1,2,3)"):
            with pytest.raises(ParseError):
                Element.parse(text)

    def test_to_dict(self):
        assert Element(1, 2, 3).to_dict() == {"k": 1, "m": 2, "n": 3}


class TestAlgebra:
    def test_generator_table(self):
        assert GENERATORS["a"] == Element(0, 0, 1)
        assert GENERATORS["b"] == Element(0, 1, 0)
        assert multiply(GENERATORS["a"], GENERATORS["A"]) == IDENTITY
        assert multiply(GENERATORS["b"], GENERATORS["B"]) == IDENTITY

    def test_central_word(self):
        assert evaluate(CENTRAL_WORD) == CENTRAL_ELEMENT == Element(1, 0, 0)

    def test_center_commutes_with_generators(self):
        for g in GENERATORS.values():
            assert multiply(CENTRAL_ELEMENT, g) == multiply(g, CENTRAL_ELEMENT)

    def test_defining_relations(self):
        # [abAb, a] and [abAb, b] both evaluate to the identity.
        t = CENTRAL_WORD
        for x in ("a", "b"):
            commutator = t + x + word_inverse(t) + word_inverse(x)
            assert evaluate(commutator) == IDENTITY

    def test_noncommutativity_witness(self):
        assert evaluate("abAB") == Element(1, -2, 0) != IDENTITY

    def test_twist_example(self):
        # Passing b across an odd power of a flips its sign and feeds the center.
        assert multiply(Element(0, 0, 1), Element(0, 1, 0)) == Element(1, -1, 1)

    def test_frozen_inverse(self):
        assert inverse(Element(1, -1, 1)) == Element(0, -1, -1)
        assert inverse(IDENTITY) == IDENTITY

    def test_inverse_both_sides_random(self):
        rng = random.Random(SEED)
        for _ in range(300):
            g = Element(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
            assert multiply(g, inverse(g)) == IDENTITY
            assert multiply(inverse(g), g) == IDENTITY

    def test_associativity_random(self):
        rng = random.Random(SEED + 1)
        for _ in range(300):
            g, h, f = (
                Element(rng.randrange(-6, 7), rng.randrange(-6, 7), rng.randrange(-6, 7))
                for _ in range(3)
            )
            assert multiply(multiply(g, h), f) == multiply(g, multiply(h, f))

    def test_evaluate_is_homomorphism(self):
        rng = random.Random(SEED + 2)
        for _ in range(200):
            u, v = random_word(rng), random_word(rng)
            assert evaluate(u + v) == multiply(evaluate(u), evaluate(v))
            assert evaluate(word_inverse(u)) == inverse(evaluate(u))

    def test_even_width_rectangles_close(self):
        # b^s a^(2j) b^-s a^(-2j) collapses: conjugating b past an even power
        # of a is trivial.
        for s in range(1, 7):
            for j in range(1, 7):
                w = "b" * s + "a" * (2 * j) + "B" * s + "A" * (2 * j)
                assert evaluate(w) == IDENTITY

    def test_odd_width_rectangle_hits_center(self):
        # Width 1, height 1 encloses one cell: the commutator lands on the
        # central generator squared-free part (1,-2,0) rather than identity.
        assert evaluate("ba" + "B" + "A") == Element(-1, 2, 0)


def _neighbors_by_multiply(g):
    return tuple(tuple(multiply(Element(*g), GENERATORS[s])) for s in LETTERS)


class TestRightNeighbors:
    def test_matches_multiply_on_box(self):
        for k in range(-8, 9):
            for m in range(-8, 9):
                for n in range(-8, 9):
                    g = (k, m, n)
                    assert right_neighbors(g) == _neighbors_by_multiply(g), g

    @given(*(st.integers(min_value=-10**6, max_value=10**6) for _ in range(3)))
    def test_matches_multiply_far_out(self, k, m, n):
        assert right_neighbors((k, m, n)) == _neighbors_by_multiply((k, m, n))

    def test_accepts_elements_and_returns_plain_keys(self):
        keys = right_neighbors(Element(0, 0, 1))
        assert keys == ((0, 0, 2), (0, 0, 0), (1, -1, 1), (-1, 1, 1))
        assert all(type(key) is tuple for key in keys)


class TestLatticePath:
    def test_starts_at_origin(self):
        assert lattice_path("")[0].x == 0
        assert lattice_path("")[0].y == 0
        assert lattice_path("")[0].area == 0

    def test_point_count(self):
        w = "abAbba"
        assert len(lattice_path(w)) == len(w) + 1

    def test_frozen_small_path(self):
        pts = [(p.x, p.y, p.area) for p in lattice_path("ab")]
        assert pts == [(0, 0, 0), (1, 0, 0), (1, -1, 1)]

    def test_end_matches_evaluate(self):
        rng = random.Random(SEED + 3)
        for _ in range(200):
            w = random_word(rng)
            end = lattice_path(w)[-1]
            g = evaluate(w)
            assert (end.area, end.y, end.x) == (g.k, g.m, g.n)

    def test_area_only_moves_on_odd_column_b_steps(self):
        for w, deltas in [("ba", [0, 0]), ("ab", [0, 1]), ("aB", [0, -1])]:
            pts = lattice_path(w)
            steps = [pts[i + 1].area - pts[i].area for i in range(len(w))]
            assert steps == deltas


class TestIsometries:
    def test_fixed_points(self):
        assert apply_isometry(IsometryKind.N_FLIP, Element(2, 3, 0)) == Element(2, 3, 0)
        assert apply_isometry(IsometryKind.FULL_FLIP, IDENTITY) == IDENTITY

    def test_images(self):
        assert apply_isometry(IsometryKind.N_FLIP, Element(2, -1, 4)) == Element(2, -1, -4)
        assert apply_isometry(IsometryKind.FULL_FLIP, Element(2, -1, 4)) == Element(-2, 1, -4)

    def test_involutions_random(self):
        rng = random.Random(SEED + 4)
        for _ in range(200):
            g = Element(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
            for kind in IsometryKind:
                assert apply_isometry(kind, apply_isometry(kind, g)) == g

    def test_letter_map_commutation(self):
        # Applying the paired letter map to a word tracks the isometry on the
        # evaluated element, so both act by relabelling geodesics.
        rng = random.Random(SEED + 5)
        for _ in range(200):
            w = random_word(rng)
            for kind in IsometryKind:
                mapped = apply_letter_map(letter_map_for(kind), w)
                assert evaluate(mapped) == apply_isometry(kind, evaluate(w))


class TestNormalizeQuadrant:
    @pytest.mark.parametrize(
        "g,normalized,applied",
        [
            (Element(3, 2, 5), Element(3, 2, 5), ()),
            (Element(3, 2, -5), Element(3, 2, 5), (IsometryKind.N_FLIP,)),
            (Element(2, -1, 4), Element(-2, 1, 4), (IsometryKind.FULL_FLIP, IsometryKind.N_FLIP)),
            (Element(2, -1, -4), Element(-2, 1, 4), (IsometryKind.FULL_FLIP,)),
            (Element(0, -3, 0), Element(0, 3, 0), (IsometryKind.FULL_FLIP,)),
        ],
    )
    def test_cases(self, g, normalized, applied):
        rec = normalize_quadrant(g)
        assert rec.original == g
        assert rec.normalized == normalized
        assert rec.applied == applied
        assert is_normalized(rec.normalized)

    def test_idempotent(self):
        rng = random.Random(SEED + 6)
        for _ in range(200):
            g = Element(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
            once = normalize_quadrant(g).normalized
            again = normalize_quadrant(once)
            assert again.normalized == once
            assert again.applied == ()

    def test_pull_back_word(self):
        # "BaBBaaa" spells the normalized image (-2,1,4); pulling it back
        # through the applied isometries must spell the original element.
        rec = normalize_quadrant(Element(2, -1, 4))
        assert evaluate("BaBBaaa") == rec.normalized
        w = rec.pull_back_word("BaBBaaa")
        assert evaluate(w) == Element(2, -1, 4)
        assert len(w) == len("BaBBaaa")

    def test_pull_back_is_identity_when_normalized(self):
        rec = normalize_quadrant(Element(1, 2, 3))
        assert rec.pull_back_word("abAb") == "abAb"


class TestKleinProjection:
    def test_kills_center(self):
        assert project_to_klein(CENTRAL_ELEMENT) == (0, 0)

    def test_homomorphism_via_model(self):
        from ckgeo.models import KLEIN

        rng = random.Random(SEED + 7)
        for _ in range(200):
            w = random_word(rng)
            assert KLEIN.evaluate(w) == project_to_klein(evaluate(w))
