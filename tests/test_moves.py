import json
import random

import pytest

from ckgeo import moves
from ckgeo.core import Element, evaluate, normalize_quadrant
from ckgeo.errors import GeodesicCapError, OrbitCapError
from ckgeo.geodesics import geodesic_count, is_geodesic, std_rep
from ckgeo.moves import (
    MoveEdge,
    MoveKind,
    castling_neighbors,
    check_theorem2,
    clipping_neighbors,
    detowering_neighbors,
    neighbors,
    orbit,
    young_decomposition,
    young_recompose,
    young_rectangle,
)
from ckgeo.words import cyclic_shifts, format_word, is_reduced, word_sort_key

SEED = 58


def _targets(edges):
    return {e.target for e in edges}


def _exhaustive_detowering(w):
    """Detowering as first written: all 8 shift pairs per pair of a-letters,
    each built and checked against the source's length and element."""
    gaps, axes = moves._gaps_axes(w)
    p = len(axes)
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    new_gaps = list(gaps)
                    new_gaps[i] += di
                    new_gaps[i + 1] -= di
                    new_gaps[j] += dj
                    new_gaps[j + 1] -= dj
                    cand = moves._build(new_gaps, axes)
                    if (
                        cand != w
                        and len(cand) == len(w)
                        and is_reduced(cand)
                        and evaluate(cand) == evaluate(w)
                    ):
                        site = f"a{i}{'+' if di >= 0 else '-'}|a{j}{'+' if dj >= 0 else '-'}"
                        edges.append(MoveEdge(w, cand, MoveKind.DETOWERING, site))
    return edges


def _reference_neighbors(w):
    """neighbors() with the exhaustive detowering in place of the pruned one."""
    out = {}
    for e in castling_neighbors(w) + _exhaustive_detowering(w) + clipping_neighbors(w):
        out.setdefault((e.target, e.kind, e.site), e)
    return sorted(out.values(), key=lambda e: (word_sort_key(e.target), e.kind.value, e.site))


class TestCastling:
    def test_frozen_chain(self):
        w1, w2, w3 = "aBaaBB", "aBBaaB", "aBBBaa"
        assert _targets(castling_neighbors(w1)) == {"aaaBBB", w2}
        assert _targets(castling_neighbors(w2)) == {w1, w3}
        assert evaluate(w1) == evaluate(w2) == evaluate(w3) == Element(-3, 3, 3)

    def test_rejects_windows_that_unreduce(self):
        assert castling_neighbors("Baab") == []

    def test_preserves_element_and_length(self):
        for w in ("aBaaBB", "bbabbA", "bbaBaaa"):
            for e in castling_neighbors(w):
                assert len(e.target) == len(w)
                assert evaluate(e.target) == evaluate(w)
                assert is_geodesic(e.target)

    def test_symmetric(self):
        for e in castling_neighbors("aBaaBB"):
            assert "aBaaBB" in _targets(castling_neighbors(e.target))


class TestDetowering:
    def test_frozen_example(self):
        edges = detowering_neighbors("bbabbA")
        assert [(e.target, e.site) for e in edges] == [("babbAb", "a0-|a1-")]

    def test_symmetric(self):
        assert "bbabbA" in _targets(detowering_neighbors("babbAb"))

    def test_preserves_letter_counts(self):
        for e in detowering_neighbors("bbabbA"):
            assert sorted(e.target) == sorted("bbabbA")

    def test_no_moves_without_two_a_letters(self):
        assert detowering_neighbors("bbb") == []
        assert detowering_neighbors("abb") == []

    def test_pruning_matches_exhaustive_search_on_ball(self, ball8):
        from ckgeo.oracle import enumerate_geodesics

        checked = 0
        for key in sorted(ball8.distances):
            for w in enumerate_geodesics(ball8, Element(*key)):
                assert detowering_neighbors(w) == _exhaustive_detowering(w), w
                assert neighbors(w) == _reference_neighbors(w), w
                checked += 1
        assert checked == sum(geodesic_count(Element(*key)) for key in ball8.distances)

    def test_pruning_matches_exhaustive_search_off_geodesics(self):
        # Unreduced and non-geodesic sources too: their b-runs may cancel
        # inside, so the length budget differs from the gap sum.
        rng = random.Random(SEED)
        for _ in range(500):
            w = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 11)))
            assert detowering_neighbors(w) == _exhaustive_detowering(w), w


class TestClipping:
    def test_frozen_pair_move(self):
        edges = clipping_neighbors("bbaBaaa")
        assert [(e.target, e.site) for e in edges] == [("baBabaa", "@1+@3")]
        assert evaluate("baBabaa") == evaluate("bbaBaaa") == Element(-1, 3, 4)

    def test_reflection_move(self):
        edges = clipping_neighbors("aBA")
        assert [(e.target, e.site) for e in edges] == [("ABa", "reflect@a0")]
        assert evaluate("ABa") == evaluate("aBA")

    def test_reflection_is_symmetric(self):
        assert "aBA" in _targets(clipping_neighbors("ABa"))

    def test_short_words_have_no_moves(self):
        assert clipping_neighbors("ab") == []
        assert clipping_neighbors("") == []


class TestNeighbors:
    def test_kinds_partition(self):
        edges = neighbors("bbabbA")
        by_kind = {k: [e for e in edges if e.kind is k] for k in MoveKind}
        assert len(by_kind[MoveKind.EVEN_CASTLING]) == 0
        assert len(by_kind[MoveKind.DETOWERING]) == 1
        assert len(by_kind[MoveKind.CLIPPING]) == 1

    def test_deterministic_order(self):
        assert neighbors("aBaaBB") == neighbors("aBaaBB")

    def test_every_edge_is_validated(self, ball8):
        rng = random.Random(SEED)
        keys = rng.sample(sorted(ball8.distances), 60)
        for key in keys:
            w = std_rep(Element(*key))
            for e in neighbors(w):
                assert evaluate(e.target) == evaluate(w)
                assert len(e.target) == len(w)
                assert is_geodesic(e.target)

    def test_edge_to_dict(self):
        e = neighbors("bbabbA")[0]
        d = e.to_dict()
        assert set(d) == {"source", "target", "kind", "site"}
        json.dumps(d)


class TestOrbit:
    def test_singleton(self):
        assert orbit("bbb") == ["bbb"]

    def test_sorted_by_formatted_word(self):
        words = orbit("aBaaBB")
        assert words == sorted(words, key=format_word)
        assert len(words) == 4
        assert "aaaBBB" in words

    def test_matches_count_formula(self):
        assert len(orbit("aBaaBB")) == geodesic_count(Element(-3, 3, 3))

    def test_central_orbit_is_cyclic_shifts(self):
        for k in (1, 2, 3):
            w = std_rep(Element(k, 0, 0))
            assert set(orbit(w)) == set(cyclic_shifts(w))
            assert len(orbit(w)) == 2 * k + 2

    def test_cap(self):
        with pytest.raises(OrbitCapError):
            orbit("aBaaBB", cap=2)

    def test_long_a_power_is_fixed(self):
        assert orbit("a" * 300) == ["a" * 300]

    def test_edges_collects_each_words_neighbors_once(self):
        edges = []
        words = orbit("aBaaBB", edges=edges)
        assert sorted(edges, key=lambda e: (e.source, e.target, e.site)) == sorted(
            (e for u in words for e in neighbors(u)),
            key=lambda e: (e.source, e.target, e.site),
        )


class TestConnectivity:
    def test_central_example(self):
        rep = check_theorem2(Element(2, 0, 0))
        assert rep.length == 6
        assert rep.geodesic_count == 6
        assert rep.orbit_size == 6
        assert rep.connected
        assert not rep.missing and not rep.extra
        assert len(rep.edges) > 0

    def test_two_sided_example(self):
        rep = check_theorem2(Element(-1, 3, 4))
        assert rep.geodesic_count == 12
        assert rep.orbit_size == 12
        assert rep.connected

    def test_edges_come_from_the_orbit_walk(self, monkeypatch):
        calls = []
        real = moves.neighbors

        def counted(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(moves, "neighbors", counted)
        rep = check_theorem2(Element(-1, 3, 4))
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == rep.orbit_size == 12

    def test_geodesic_cap_checked_before_any_ball(self, monkeypatch):
        from ckgeo import oracle

        def fail(*args, **kwargs):
            raise AssertionError("the oracle ran despite the geodesic cap")

        monkeypatch.setattr(oracle, "build_ball", fail)
        monkeypatch.setattr(oracle, "enumerate_geodesics", fail)
        with pytest.raises(GeodesicCapError):
            check_theorem2(Element(-1, 3, 4), geodesic_cap=11)

    def test_report_serializes(self):
        d = check_theorem2(Element(1, 0, 0)).to_dict()
        json.dumps(d)
        assert d["connected"] is True

    def test_sweep_small_ball(self, ball8):
        # Move-orbit == geodesic set for every element within distance 5.
        for key, dist in ball8.distances.items():
            if dist > 5:
                continue
            rep = check_theorem2(Element(*key), ball=ball8)
            assert rep.connected, key


class TestYoungRectangle:
    def test_nonzero_k(self):
        assert young_rectangle(Element(-4, 2, 4)) == ((4, -2), (0, -2), (0, 4), (4, 4))

    def test_zero_k(self):
        assert young_rectangle(Element(0, 3, 2)) == ((2, 0), (0, 0), (0, 3), (2, 3))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            young_rectangle(Element(1, -2, 3))


class TestYoungDecomposition:
    def test_standard_word_is_empty(self):
        dec = young_decomposition(std_rep(Element(-4, 2, 4)))
        assert dec.even_side == () and dec.odd_side == ()
        assert dec.element == Element(-4, 2, 4)
        assert dec.rectangle == young_rectangle(Element(-4, 2, 4))

    def test_degenerate_b_power(self):
        dec = young_decomposition("bbb")
        assert dec.even_side == () and dec.odd_side == ()
        assert dec.detour_sign == 0

    def test_frozen_nonstandard(self):
        dec = young_decomposition("aBBBBaBBaa")
        assert dec.element == Element(-4, 2, 4)
        assert dec.even_side == (2,)
        assert dec.odd_side == ()
        assert dec.detour_sign == 0

    def test_rejects_non_geodesics(self):
        with pytest.raises(ValueError):
            young_decomposition("abAbabAb")

    def test_rejects_unnormalized_elements(self):
        with pytest.raises(ValueError):
            young_decomposition("B")

    def test_round_trip_and_uniqueness(self, ball8):
        from ckgeo.oracle import enumerate_geodesics

        for key, dist in ball8.distances.items():
            if dist > 6:
                continue
            g = Element(*key)
            if normalize_quadrant(g).applied:
                continue
            seen = {}
            for w in enumerate_geodesics(ball8, g):
                dec = young_decomposition(w)
                assert young_recompose(dec) == w
                fingerprint = (dec.even_side, dec.odd_side, dec.detour_sign)
                assert fingerprint not in seen, (key, w, seen[fingerprint])
                seen[fingerprint] = w

    def test_standard_iff_trivial_diagrams(self, ball8):
        from ckgeo.oracle import enumerate_geodesics

        for key, dist in ball8.distances.items():
            if dist > 6:
                continue
            g = Element(*key)
            if normalize_quadrant(g).applied:
                continue
            std = std_rep(g)
            for w in enumerate_geodesics(ball8, g):
                dec = young_decomposition(w)
                trivial = dec.even_side == () and dec.odd_side == () and dec.detour_sign >= 0
                assert (w == std) == trivial, (key, w)


class TestYoungRecompose:
    def test_rejects_bad_partitions(self):
        dec = young_decomposition(std_rep(Element(-4, 2, 4)))
        bad = type(dec)(
            element=dec.element,
            rectangle=dec.rectangle,
            even_side=(1, 2),  # not weakly decreasing
            odd_side=(),
            detour_sign=dec.detour_sign,
        )
        with pytest.raises(ValueError):
            young_recompose(bad)

    def test_rejects_oversized_rows(self):
        dec = young_decomposition(std_rep(Element(-4, 2, 4)))
        bad = type(dec)(
            element=dec.element,
            rectangle=dec.rectangle,
            even_side=(99,),
            odd_side=(),
            detour_sign=dec.detour_sign,
        )
        with pytest.raises(ValueError):
            young_recompose(bad)

    def test_recomposes_frozen_example(self):
        dec = young_decomposition("aBBBBaBBaa")
        assert young_recompose(dec) == "aBBBBaBBaa"
