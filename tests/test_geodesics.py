import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ckgeo import geodesics
from ckgeo.core import IDENTITY, Element, evaluate, normalize_quadrant
from ckgeo.geodesics import (
    RULE_LETTERS,
    LengthTable,
    RegionCase,
    classify_region,
    closed_ball_elements,
    continuation_rule_letters,
    continuations,
    depth,
    geodesic_count,
    is_dead_end,
    is_geodesic,
    length,
    std_rep,
)
from ckgeo.words import format_word, free_reduce, is_reduced

SEED = 352


class TestStdRep:
    @pytest.mark.parametrize(
        "g,word",
        [
            (Element(-4, 2, 4), "BBaBBBBaaa"),
            (Element(2, 1, 4), "bbbabbaaa"),
            (Element(0, 3, 0), "bbb"),
            (Element(2, 0, 0), "bbabbA"),
            (Element(-1, 3, 4), "bbaBaaa"),
            (Element(2, -1, 4), "babbaaa"),
            (IDENTITY, ""),
        ],
    )
    def test_frozen_words(self, g, word):
        assert std_rep(g) == word
        assert evaluate(word) == g

    def test_formatted_example(self):
        assert format_word(std_rep(Element(-4, 2, 4))) == "b^-2 a b^-4 a^3"

    def test_std_certified_on_ball(self, ball8):
        # Every element within distance 8, in every quadrant: the standard
        # word spells the element and realises the BFS distance.
        for key, dist in ball8.distances.items():
            g = Element(*key)
            w = std_rep(g)
            assert is_reduced(w)
            assert evaluate(w) == g
            assert len(w) == dist

    def test_std_beyond_ball(self):
        # Closed form stays consistent far outside any BFS horizon.
        rng = random.Random(SEED)
        for _ in range(300):
            g = Element(rng.randrange(-50, 51), rng.randrange(-50, 51), rng.randrange(-50, 51))
            w = std_rep(g)
            assert evaluate(w) == g
            assert len(w) == length(g)
            assert is_reduced(w)


class TestLength:
    @pytest.mark.parametrize(
        "g,value",
        [
            (IDENTITY, 0),
            (Element(1, 0, 0), 4),
            (Element(3, 0, 0), 8),
            (Element(-4, 2, 4), 10),
            (Element(-2, 5, 3), 8),
            (Element(0, 3, 0), 3),
            (Element(2, -1, 4), 7),
        ],
    )
    def test_frozen_values(self, g, value):
        assert length(g) == value

    def test_symmetry_under_isometries(self):
        rng = random.Random(SEED + 1)
        for _ in range(300):
            g = Element(rng.randrange(-20, 21), rng.randrange(-20, 21), rng.randrange(-20, 21))
            assert length(g) == length(Element(g.k, g.m, -g.n))
            assert length(g) == length(Element(-g.k, -g.m, -g.n))


class TestIsGeodesic:
    def test_standard_words(self):
        assert is_geodesic("bbabbA")
        assert is_geodesic("abAb")
        assert is_geodesic("")

    def test_rejects_wasteful_words(self):
        # t^2 has length 6, so spelling it with eight letters is not geodesic.
        assert evaluate("abAbabAb") == Element(2, 0, 0)
        assert not is_geodesic("abAbabAb")

    def test_rejects_unreduced(self):
        assert not is_geodesic("aA")


class TestRegions:
    @pytest.mark.parametrize(
        "g,case",
        [
            (Element(3, 0, 0), RegionCase.POS_K),
            (Element(1, 2, 5), RegionCase.POS_K),
            (Element(-2, 1, 4), RegionCase.NEG_K_DOMINANT),
            (Element(-1, 1, 0), RegionCase.NEG_K_SMALL_EVEN),
            (Element(-1, 1, 1), RegionCase.NEG_K_SMALL_ODD),
            (Element(0, 5, 2), RegionCase.ZERO_K),
            (IDENTITY, RegionCase.ZERO_K),
        ],
    )
    def test_classification(self, g, case):
        assert classify_region(g) == case

    def test_unnormalized_inputs_are_normalized_first(self):
        assert classify_region(Element(2, -1, 4)) == RegionCase.NEG_K_DOMINANT

    def test_rule_letters_table(self):
        assert continuation_rule_letters(RegionCase.POS_K) == "ab"
        assert continuation_rule_letters(RegionCase.NEG_K_DOMINANT) == "aB"
        assert continuation_rule_letters(RegionCase.ZERO_K) == ""

    def test_rule_letters_cover_all_usable_cases(self):
        assert set(RULE_LETTERS) == set(RegionCase)


class TestContinuations:
    def test_frozen_examples(self):
        assert continuations(Element(3, 0, 0)) == "b"
        assert continuations(Element(-1, 1, 0)) == "bB"
        assert continuations(IDENTITY) == "aAbB"

    def test_matches_multiply_reference(self):
        from ckgeo.core import GENERATORS, multiply

        for k in range(-8, 9):
            for m in range(-8, 9):
                for n in range(-8, 9):
                    g = Element(k, m, n)
                    up = length(g) + 1
                    expected = "".join(
                        s for s in "aAbB" if length(multiply(g, GENERATORS[s])) == up
                    )
                    assert continuations(g) == expected, g

    def test_matches_length_increments(self, ball8):
        from ckgeo.models import CK

        for key, dist in ball8.distances.items():
            if dist >= 8:
                continue
            g = Element(*key)
            expected = "".join(
                s for s in "aAbB" if ball8.distances[CK.key(CK.step(g, s))] == dist + 1
            )
            assert continuations(g) == expected

    def test_rule_letters_exact_off_axis(self, ball8):
        # For normalized elements with k != 0 and n >= 1 the region rule
        # letters are exactly the length-increasing continuations among
        # {a, b, b^-1}; the a-direction is forced upward.
        for key, dist in ball8.distances.items():
            g = Element(*key)
            if dist >= 8 or normalize_quadrant(g).applied:
                continue
            if g.k == 0 or g.n == 0:
                continue
            rule = continuation_rule_letters(classify_region(g))
            assert set(rule) <= set(continuations(g))
            assert "a" in continuations(g)

    def test_axis_carve_out(self, ball8):
        # On the n = 0, k != 0 axis both a and a^-1 step back toward the
        # interior, so only the b-side letter of the rule survives.
        for key, dist in ball8.distances.items():
            g = Element(*key)
            if dist >= 8 or normalize_quadrant(g).applied:
                continue
            if g.k == 0 or g.n != 0:
                continue
            cont = continuations(g)
            assert "a" not in cont and "A" not in cont
            rule = continuation_rule_letters(classify_region(g))
            assert set(rule) - {"a"} <= set(cont)


class TestDeadEnds:
    def test_spec_sample_is_not_a_dead_end(self):
        assert not is_dead_end(Element(-3, 7, 2))
        assert depth(Element(-3, 7, 2)) == 0

    def test_identity(self):
        assert not is_dead_end(IDENTITY)

    def test_none_in_ball(self):
        for g in closed_ball_elements(6):
            assert not is_dead_end(g)
            assert depth(g) == 0

    def test_depth_refuses_a_dead_end(self, monkeypatch):
        # No element is a dead end, so fake one: depth must raise, not search.
        monkeypatch.setattr(geodesics, "continuations", lambda g: "")
        with pytest.raises(RuntimeError, match="no continuation"):
            depth(Element(2, 1, 3))


class TestGeodesicCount:
    def test_frozen_counts(self):
        assert geodesic_count(IDENTITY) == 1
        assert geodesic_count(Element(1, 0, 0)) == 4
        assert geodesic_count(Element(2, 0, 0)) == 6
        assert geodesic_count(Element(0, 3, 0)) == 1
        assert geodesic_count(Element(-1, 3, 4)) == 12
        assert geodesic_count(Element(-3, 3, 3)) == 4

    def test_pure_b_and_central_axis_formulas(self):
        for m in range(1, 8):
            assert geodesic_count(Element(0, m, 0)) == 1
        for k in range(1, 7):
            assert geodesic_count(Element(k, 0, 0)) == 2 * k + 2

    def test_zero_k_binomial(self):
        for m in range(0, 6):
            for n in range(0, 6):
                expected = math.comb(m + n // 2, n // 2)
                assert geodesic_count(Element(0, m, n)) == expected

    def test_invariant_under_isometries(self):
        rng = random.Random(SEED + 2)
        for _ in range(200):
            g = Element(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
            assert geodesic_count(g) == geodesic_count(Element(-g.k, -g.m, -g.n))
            assert geodesic_count(g) == geodesic_count(Element(g.k, g.m, -g.n))


def _reference_length(g):
    """The length formula applied to normalize_quadrant's output."""
    k, m, n = normalize_quadrant(g).normalized
    return m + n if k == 0 else abs(k + m) + abs(k) + 1 + abs(n - 1)


class TestLengthFormula:
    @given(*(st.integers(min_value=-10**6, max_value=10**6) for _ in range(3)))
    def test_matches_normalized_formula(self, k, m, n):
        assert length(Element(k, m, n)) == _reference_length(Element(k, m, n))


def _reference_std_rep(g):
    """The standard word built on normalize_quadrant: the formula for the
    normalized element, freely reduced, pulled back through the flips."""
    record = normalize_quadrant(g)
    k, m, n = record.normalized

    def run(letter, signed):
        return letter * signed if signed >= 0 else letter.upper() * -signed

    word = free_reduce(run("b", k + m) + "a" + run("b", k) + run("a", n - 1))
    return record.pull_back_word(word)


QUADRANTS = pytest.mark.parametrize("sm,sn", [(1, 1), (1, -1), (-1, 1), (-1, -1)])


def _magnitude(bound):
    return st.integers(min_value=0, max_value=bound)


class TestInlineNormalization:
    """The closed forms normalize inline; each must agree with the same form
    evaluated on :func:`normalize_quadrant`'s output and pulled back through
    its flips, in all four quadrants (axes included) and far beyond any ball."""

    def test_box_with_axes(self):
        # Every element with coordinates in [-6, 6]: all quadrant boundaries,
        # where the choice of flips matters most (the n-flip fixes n = 0).
        for k in range(-6, 7):
            for m in range(-6, 7):
                for n in range(-6, 7):
                    g = Element(k, m, n)
                    h = normalize_quadrant(g).normalized
                    assert std_rep(g) == _reference_std_rep(g), g
                    assert geodesic_count(g) == geodesic_count(h), g
                    assert classify_region(g) is classify_region(h), g

    @QUADRANTS
    @given(k=st.integers(-10**6, 10**6), m=_magnitude(10**6), n=_magnitude(10**6))
    def test_classify_region(self, sm, sn, k, m, n):
        g = Element(k, sm * m, sn * n)
        assert classify_region(g) is classify_region(normalize_quadrant(g).normalized)

    @QUADRANTS
    @given(k=st.integers(-10**6, 10**6), m=_magnitude(10**6), n=_magnitude(64))
    def test_geodesic_count(self, sm, sn, k, m, n):
        # |n| stays small: math.comb on million-sized arguments takes seconds
        # per call, and the normalization does not depend on the magnitude.
        g = Element(k, sm * m, sn * n)
        assert geodesic_count(g) == geodesic_count(normalize_quadrant(g).normalized)

    @QUADRANTS
    @settings(max_examples=30, deadline=None)  # words of up to 4·10⁶ letters
    @given(k=st.integers(-10**6, 10**6), m=_magnitude(10**6), n=_magnitude(10**6))
    def test_std_rep(self, sm, sn, k, m, n):
        g = Element(k, sm * m, sn * n)
        assert std_rep(g) == _reference_std_rep(g)

    @QUADRANTS
    @settings(deadline=None)
    @given(k=st.integers(-10**4, 10**4), m=_magnitude(10**4), n=_magnitude(10**4))
    def test_std_rep_spells_a_geodesic(self, sm, sn, k, m, n):
        g = Element(k, sm * m, sn * n)
        w = std_rep(g)
        assert evaluate(w) == g
        assert len(w) == length(g)
        assert is_reduced(w)


def _box_scan_balls(max_radius):
    """Reference: closed_ball_elements(r) for each r <= max_radius, by
    scanning the whole (2r+1)^3 coordinate box."""
    box = sorted(
        Element(k, m, n)
        for k in range(-max_radius, max_radius + 1)
        for m in range(-max_radius, max_radius + 1)
        for n in range(-max_radius, max_radius + 1)
    )
    lengths = [_reference_length(g) for g in box]
    return [
        [g for g, d in zip(box, lengths) if d <= r and max(map(abs, g)) <= r]
        for r in range(max_radius + 1)
    ]


class TestBallHelpers:
    def test_closed_ball_matches_bfs(self, ball8):
        ours = {(g.k, g.m, g.n) for g in closed_ball_elements(8)}
        assert ours == set(ball8.distances)

    def test_matches_box_scan(self):
        for radius, expected in enumerate(_box_scan_balls(20)):
            assert closed_ball_elements(radius) == expected

    def test_sorted_and_sized(self):
        elems = closed_ball_elements(4)
        assert elems == sorted(elems)
        assert len(elems) == 105
        assert closed_ball_elements(0) == [IDENTITY]

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            closed_ball_elements(-1)


class TestLengthTable:
    def test_agrees_with_bfs(self, ball8):
        table = LengthTable.build(8)
        assert len(table) == len(ball8.distances)
        for key, dist in ball8.distances.items():
            assert table[Element(*key)] == dist

    def test_protocol(self):
        table = LengthTable.build(4)
        assert table.radius == 4
        assert Element(1, 0, 0) in table
        assert Element(9, 9, 9) not in table
        with pytest.raises(KeyError):
            table[Element(9, 9, 9)]
