import functools
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from ckgeo import moves, oracle
from ckgeo.core import Element, evaluate, is_normalized
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
from ckgeo.oracle import build_ball
from ckgeo.words import format_word, word_sort_key
from references import LetterMapKind, apply_letter_map, cyclic_shifts, is_reduced

SEED = 58


def _targets(edges):
    return {e.target for e in edges}


# The string engine the skeleton engine replaced, kept as its reference:
# every candidate is spelled out and checked by evaluating it.


def _gaps_axes(w):
    """Signed b-runs around the a-letters of ``w``, letter by letter."""
    gaps = [0]
    axes = []
    for c in w:
        if c in "aA":
            axes.append(1 if c == "a" else -1)
            gaps.append(0)
        else:
            gaps[-1] += 1 if c == "b" else -1
    return gaps, axes


# Candidates hold letters only, so a word is freely reduced exactly when no
# cancelling pair matches; TestStringReference checks this against
# references.is_reduced.
_CANCELLING_PAIR = re.compile("aA|Aa|bB|Bb")


def _string_validated(w, g, cand, kind, site):
    if (
        cand != w
        and len(cand) == len(w)
        and not _CANCELLING_PAIR.search(cand)
        and evaluate(cand) == g
    ):
        return [MoveEdge(w, cand, kind, site)]
    return []


def _string_castling(w):
    g = evaluate(w)
    edges = []
    for i in range(len(w) - 2):
        x1, x2, x3 = w[i], w[i + 1], w[i + 2]
        if x1 == x2 and x1 in "aA" and x3 in "bB":
            cand = w[:i] + x3 + x1 + x2 + w[i + 3 :]
        elif x2 == x3 and x2 in "aA" and x1 in "bB":
            cand = w[:i] + x2 + x3 + x1 + w[i + 3 :]
        else:
            continue
        edges += _string_validated(w, g, cand, MoveKind.EVEN_CASTLING, f"@{i}")
    return edges


def _string_detowering(w):
    """Detowering with partners found in buckets (see detowering_neighbors),
    each candidate spelled out."""
    g = evaluate(w)
    gaps, axes = _gaps_axes(w)
    p = len(axes)
    sigma = [1 - 2 * (i & 1) for i in range(p)]
    grow = [
        {
            d: abs(gaps[i] + d) - abs(gaps[i]) + abs(gaps[i + 1] - d) - abs(gaps[i + 1])
            for d in (-1, 1)
        }
        for i in range(p)
    ]
    buckets = {}
    for j in range(p):
        for d in (-1, 1):
            buckets.setdefault((d * sigma[j], grow[j][d]), []).append((j, d))
    edges = []
    for i in range(p - 1):
        pairs = []
        before, after = gaps[i], gaps[i + 2]
        for di in (-1, 1):
            if abs(before + di) - abs(before) + abs(after - di) - abs(after) == 0:
                pairs.append((i + 1, di, di))
            pairs.extend(
                (j, di, dj)
                for j, dj in buckets.get((-di * sigma[i], -grow[i][di]), [])
                if j > i + 1
            )
        for j, di, dj in sorted(pairs):
            new_gaps = list(gaps)
            new_gaps[i] += di
            new_gaps[i + 1] -= di
            new_gaps[j] += dj
            new_gaps[j + 1] -= dj
            site = f"a{i}{'+' if di > 0 else '-'}|a{j}{'+' if dj > 0 else '-'}"
            edges += _string_validated(
                w, g, moves._build(new_gaps, axes), MoveKind.DETOWERING, site
            )
    return edges


def _string_clipping(w):
    g = evaluate(w)
    sites = []
    for i in range(len(w) - 1):
        u, v = w[i], w[i + 1]
        if u in "aA" and v in "bB":
            sites.append((i, -1 if v == "b" else 1, v.swapcase() + u))
        elif u in "bB" and v in "aA":
            sites.append((i, -1 if u == "b" else 1, v + u.swapcase()))
    edges = []
    for s1, (i1, shift1, window1) in enumerate(sites):
        for i2, shift2, window2 in sites[s1 + 1 :]:
            if i2 >= i1 + 2 and shift1 + shift2 == 0:
                cand = w[:i1] + window1 + w[i1 + 2 : i2] + window2 + w[i2 + 2 :]
                edges += _string_validated(w, g, cand, MoveKind.CLIPPING, f"@{i1}+@{i2}")
    at = [i for i, c in enumerate(w) if c in "aA"]
    for j in range(len(at) - 1):
        if w[at[j]] != w[at[j + 1]]:
            cand = list(w)
            cand[at[j]], cand[at[j + 1]] = w[at[j + 1]], w[at[j]]
            edges += _string_validated(w, g, "".join(cand), MoveKind.CLIPPING, f"reflect@a{j}")
    return edges


def _exhaustive_detowering(w):
    """Detowering as first written: all 8 shift pairs per pair of a-letters,
    each built and checked against the source's length and element."""
    g = evaluate(w)
    gaps, axes = _gaps_axes(w)
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
                    # _build spells len(axes) + sum(|gaps|) letters; skipping
                    # the other lengths before building keeps long words cheap.
                    if p + sum(map(abs, new_gaps)) != len(w):
                        continue
                    site = f"a{i}{'+' if di >= 0 else '-'}|a{j}{'+' if dj >= 0 else '-'}"
                    edges += _string_validated(
                        w, g, moves._build(new_gaps, axes), MoveKind.DETOWERING, site
                    )
    return edges


def _sorted_edges(edges):
    return sorted(edges, key=lambda e: (word_sort_key(e.target), e.kind.value, e.site))


@pytest.fixture(scope="session")
def string_families():
    """The string engine's (castling, detowering, clipping) edges of a word,
    built once per word for the session.  The corpora overlap: short random
    words repeat, and every radius-8 geodesic is also an orbit word of the
    reference walk."""
    return functools.cache(
        lambda w: (_string_castling(w), _string_detowering(w), _string_clipping(w))
    )


@pytest.fixture(scope="session")
def exhaustive_detowering():
    """_exhaustive_detowering, built once per word for the session."""
    return functools.cache(_exhaustive_detowering)


def _assert_engines_agree(w, string_families):
    """Each family and neighbors() give the string engine's edges, in its
    order.  The families reuse the memo neighbors() filled, as in orbit()."""
    castling, detowering, clipping = string_families(w)
    memo = {}
    assert neighbors(w, memo=memo) == _sorted_edges(castling + detowering + clipping), w
    assert castling_neighbors(w, memo=memo) == castling, w
    assert detowering_neighbors(w, memo=memo) == detowering, w
    assert clipping_neighbors(w, memo=memo) == clipping, w


def _random_word(rng, low, high, reduced=False):
    """A random word of low..high letters; with ``reduced``, freely reduced
    (then every b-run is pure)."""
    out = []
    for _ in range(rng.randint(low, high)):
        choices = [c for c in "aAbB" if not (reduced and out and out[-1] == c.swapcase())]
        out.append(rng.choice(choices))
    return "".join(out)


def _reference_orbit(w, string_families):
    """The breadth-first walk of orbit(), with no memo shared between
    neighbor calls and with the string engine.  Returns the sorted
    words and every edge in walk order."""
    seen = {w}
    frontier = [w]
    edges = []
    while frontier:
        nxt = []
        for u in frontier:
            found = _sorted_edges([e for family in string_families(u) for e in family])
            edges.extend(found)
            for e in found:
                if e.target not in seen:
                    seen.add(e.target)
                    nxt.append(e.target)
        frontier = sorted(nxt, key=word_sort_key)
    return sorted(seen, key=format_word), edges


class TestStringReference:
    @given(st.text(alphabet="aAbB", max_size=30))
    def test_cancelling_pair_regex_is_reducedness(self, w):
        assert (_CANCELLING_PAIR.search(w) is None) == is_reduced(w)


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

    def test_pruning_matches_exhaustive_search_on_ball(
        self, ball8, string_families, exhaustive_detowering
    ):
        from ckgeo.oracle import enumerate_geodesics

        checked = 0
        for key in sorted(ball8.distances):
            for w in enumerate_geodesics(ball8, Element(*key)):
                _assert_engines_agree(w, string_families)
                assert detowering_neighbors(w) == exhaustive_detowering(w), w
                checked += 1
        assert checked == sum(geodesic_count(Element(*key)) for key in ball8.distances)

    def test_pruning_matches_exhaustive_search_off_geodesics(self, exhaustive_detowering):
        # Reduced but mostly non-geodesic sources.
        rng = random.Random(SEED)
        for _ in range(500):
            w = _random_word(rng, 0, 11, reduced=True)
            assert detowering_neighbors(w) == exhaustive_detowering(w), w

    def test_pruning_matches_exhaustive_search_on_long_a_heavy_words(
        self, exhaustive_detowering
    ):
        # Standard words of 24..60 a-letters, whose shifts fill many
        # buckets.
        rng = random.Random(SEED)
        pool = [
            Element(k, m, n)
            for k in range(-2, 3)
            for m in range(-2, 3)
            for n in (*range(-60, -23), *range(24, 61))
        ]
        for g in rng.sample(pool, 16) + [Element(2, -2, 60), Element(0, 0, 24)]:
            w = std_rep(g)
            assert detowering_neighbors(w) == exhaustive_detowering(w), g

    def test_pruning_matches_exhaustive_search_on_long_random_words(
        self, exhaustive_detowering
    ):
        rng = random.Random(SEED)
        for _ in range(150):
            w = _random_word(rng, 20, 60, reduced=True)
            assert detowering_neighbors(w) == exhaustive_detowering(w), w


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

    def test_shared_memo_matches_fresh_calls(self, ball8):
        # One memo across many elements and all three families: an entry is a
        # function of its skeleton, so no entry can leak between sources.
        from ckgeo.oracle import enumerate_geodesics

        rng = random.Random(SEED)
        keys = rng.sample(sorted(ball8.distances), 40)
        words = [w for key in keys for w in enumerate_geodesics(ball8, Element(*key))]
        words += [_random_word(rng, 0, 14, reduced=True) for _ in range(100)]
        assert len({evaluate(w) for w in words}) > 40
        memo = {}
        for w in words:
            assert neighbors(w, memo=memo) == neighbors(w), w
            for family in (castling_neighbors, detowering_neighbors, clipping_neighbors):
                assert family(w, memo=memo) == family(w), (family.__name__, w)
        assert memo
        for key, entry in memo.items():
            assert key in (entry.word, (entry.gaps, entry.axes))
            assert moves._skeleton(entry.word) == (entry.gaps, entry.axes)
            assert entry.key == word_sort_key(entry.word)
            assert entry.element == evaluate(entry.word)

    def test_edge_to_dict(self):
        e = neighbors("bbabbA")[0]
        d = e.to_dict()
        assert set(d) == {"source", "target", "kind", "site"}
        json.dumps(d)

    def test_engines_agree_on_random_reduced_words(self, string_families):
        rng = random.Random(SEED)
        for _ in range(3000):
            _assert_engines_agree(_random_word(rng, 0, 30, reduced=True), string_families)

    @pytest.mark.parametrize(
        "call",
        [neighbors, castling_neighbors, detowering_neighbors, clipping_neighbors, orbit],
    )
    @pytest.mark.parametrize("w", ["bBaa", "aA", "abAbBa", "aaBaAbb"])
    def test_unreduced_words_raise(self, call, w):
        with pytest.raises(ValueError, match="word is not freely reduced"):
            call(w)

    def test_targets_commute_with_flip_maps(self):
        # Each flip letter map is an isometry, so it carries the neighbours
        # of w onto those of its image (the sites may differ).
        rng = random.Random(SEED)
        for _ in range(1000):
            w = _random_word(rng, 0, 16, reduced=True)
            for kind in LetterMapKind:
                assert {apply_letter_map(kind, u) for u in _targets(neighbors(w))} == (
                    _targets(neighbors(apply_letter_map(kind, w)))
                ), (kind, w)


class TestSkeleton:
    @given(
        st.lists(st.sampled_from((-1, 1)), max_size=40).flatmap(
            lambda axes: st.tuples(
                st.lists(st.integers(-50, 50), min_size=len(axes) + 1, max_size=len(axes) + 1),
                st.just(axes),
            )
        )
    )
    def test_closed_form_element_is_evaluate(self, skeleton):
        gaps, axes = skeleton
        assert moves._skeleton_element(gaps, axes) == evaluate(moves._build(gaps, axes))

    def test_skeleton_round_trip(self):
        rng = random.Random(SEED)
        for _ in range(500):
            w = _random_word(rng, 0, 30, reduced=True)
            gaps, axes = moves._skeleton(w)
            assert moves._build(gaps, axes) == w
            assert (list(gaps), list(axes)) == _gaps_axes(w)

    def test_rejects_non_letters(self):
        for w in ("abx", "xa", "a b"):
            with pytest.raises(ValueError, match="not a letter"):
                moves._skeleton(w)

    @given(st.text(alphabet="aAbB", max_size=30))
    def test_rejects_exactly_the_unreduced_words(self, w):
        if all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1)):
            assert moves._build(*moves._skeleton(w)) == w
        else:
            with pytest.raises(ValueError, match="word is not freely reduced"):
                moves._skeleton(w)


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

    def test_cap_counts_the_start_word(self):
        with pytest.raises(OrbitCapError, match="exceeded cap=0"):
            orbit("a", cap=0)
        with pytest.raises(OrbitCapError):
            check_theorem2(Element(0, 0, 1), orbit_cap=0)

    def test_long_a_power_is_fixed(self):
        assert orbit("a" * 300) == ["a" * 300]

    def test_geodesic_past_the_cap_fails_before_the_walk(self, monkeypatch):
        # A non-geodesic word still walks: (0,-1,2) has 2 geodesics, and
        # this length-5 spelling's orbit is itself alone.
        assert orbit("baaBB", cap=1) == ["baaBB"]

        def fail(*args, **kwargs):
            raise AssertionError("the walk started past the orbit cap")

        monkeypatch.setattr(moves, "neighbors", fail)
        with pytest.raises(OrbitCapError, match="exceeded cap=100000"):
            orbit("ab" * 300)
        with pytest.raises(OrbitCapError, match="exceeded cap=5"):
            orbit(std_rep(Element(2, 0, 0)), cap=5)

    def test_edges_collects_each_words_neighbors_once(self):
        edges = []
        words = orbit("aBaaBB", edges=edges)
        assert sorted(edges, key=lambda e: (e.source, e.target, e.site)) == sorted(
            (e for u in words for e in neighbors(u)),
            key=lambda e: (e.source, e.target, e.site),
        )


    def test_matches_memo_free_reference_walk(self, ball12, string_families):
        rng = random.Random(SEED)
        keys = rng.sample(sorted(ball12.distances), 40)
        for g in [Element(*key) for key in keys] + [Element(-4, 2, 4), Element(3, 0, 0)]:
            w = std_rep(g)
            edges = []
            words = orbit(w, edges=edges)
            assert (words, edges) == _reference_orbit(w, string_families), g


# The seed elements of the orbit-long benchmark workload at seeds 1-3.
_ORBIT_LONG_ELEMENTS = [
    (0, 0, -25), (0, 0, -27), (0, 0, 29), (0, 0, -31), (0, 0, 33), (0, 0, 35),
    (0, 0, 37), (0, 0, 39), (0, 0, -41), (0, 0, -43), (0, 0, 46), (0, 0, -48),
    (0, 1, 25), (0, 1, 27), (0, -1, -29), (0, 1, 31), (1, -1, -25), (-1, 1, 27),
    (-1, 1, -29), (1, -1, -31), (0, 0, -29), (0, 0, 31), (0, 0, -33), (0, 0, -39),
    (0, 0, 48), (0, 1, -25), (0, 1, -29), (0, -1, -31), (-1, 1, -25), (1, -1, -27),
    (1, -1, 29), (0, 0, -35), (0, -1, 27), (0, -1, 29), (0, -1, 31), (1, -1, 25),
    (-1, 1, -27), (-1, 1, 31),
]


class TestGoldenDigests:
    """SHA-256 of move-engine outputs, recorded on the string engine: the
    first two before each orbit walk shared one memo and detowering bucketed
    its partners, the random-word one (over reduced words) before the engine
    moved to skeleton coordinates.  A change to any edge, site, order or
    orbit shows here."""

    def test_check_theorem2_on_radius_9_ball(self):
        ball = build_ball("ck", 9)
        digest = hashlib.sha256()
        for key in sorted(ball.distances):
            report = check_theorem2(Element(*key), ball=ball)
            digest.update(json.dumps(report.to_dict()).encode() + b"\n")
        assert digest.hexdigest() == (
            "daa5bbfeab2aa21044b5e72e7d4d13a3b1c5f2ef479ffb01cd338349023d61cb"
        )

    def test_check_theorem2_without_a_ball(self, monkeypatch):
        # Every orbit there is as large as its closed-form count, so the
        # counting route gives the ball route's reports with no ball built.
        keys = sorted(build_ball("ck", 9).distances)

        def no_ball(*args, **kwargs):
            raise AssertionError("build_ball called for a complete orbit")

        monkeypatch.setattr(oracle, "build_ball", no_ball)
        digest = hashlib.sha256()
        for key in keys:
            report = check_theorem2(Element(*key))
            digest.update(json.dumps(report.to_dict()).encode() + b"\n")
        assert digest.hexdigest() == (
            "daa5bbfeab2aa21044b5e72e7d4d13a3b1c5f2ef479ffb01cd338349023d61cb"
        )

    def test_orbit_of_long_standard_words(self):
        digest = hashlib.sha256()
        for key in _ORBIT_LONG_ELEMENTS:
            digest.update("\n".join(orbit(std_rep(Element(*key)))).encode() + b"\n\n")
        assert digest.hexdigest() == (
            "86b9c3ac2a395fe4631ae748c43e0a599b3bf844e83a32ebefba47b16b1d97a5"
        )

    def test_neighbors_of_random_words(self):
        rng = random.Random(2024)
        digest = hashlib.sha256()
        for _ in range(3000):
            w = _random_word(rng, 0, 14, reduced=True)
            digest.update(json.dumps([e.to_dict() for e in neighbors(w)]).encode() + b"\n")
        assert digest.hexdigest() == (
            "a1a428bd04d6a517f1f9fb04e5963433258dd95d288ce47768c9519bb5e67f66"
        )


# The family functions by name, with the kind of edge each builds.
_FAMILIES = {
    "castling_neighbors": MoveKind.EVEN_CASTLING,
    "detowering_neighbors": MoveKind.DETOWERING,
    "clipping_neighbors": MoveKind.CLIPPING,
}


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

    def test_short_orbit_falls_back_to_the_ball(self, monkeypatch, ball8):
        # With clipping's reflections dropped, the detour elements' orbits
        # fall short of their counts: the no-ball route builds a ball and
        # lists the same missing words as the route given one.  (2,1,3)
        # needs no reflection, so its orbit is still complete.
        monkeypatch.setattr(moves, "clipping_neighbors", lambda w, **kwargs: [])
        missing = []
        for g in (Element(2, 2, 0), Element(-1, 3, 0), Element(1, 0, 0), Element(2, 1, 3)):
            report = check_theorem2(g)
            assert report == check_theorem2(g, ball=ball8)
            missing.append(len(report.missing))
        assert missing == [5, 3, 2, 0]

    def test_edges_come_from_the_orbit_walk(self, monkeypatch):
        # perfbench/tracing.py wraps these module globals for moves.orbit_s,
        # moves.{castling,detowering,clipping}_s and moves.edges.*: each
        # must be reached through them, once per orbit word.
        names = ("orbit", "neighbors", *_FAMILIES)
        calls = {name: [] for name in names}
        found = {name: 0 for name in _FAMILIES}

        def counting(name, real):
            def counted(w, **kwargs):
                calls[name].append(w)
                result = real(w, **kwargs)
                if name in found:
                    found[name] += len(result)
                return result

            return counted

        for name in names:
            monkeypatch.setattr(moves, name, counting(name, getattr(moves, name)))
        g = Element(-1, 3, 4)
        rep = check_theorem2(g)
        assert calls["orbit"] == [std_rep(g)]
        assert len(calls["neighbors"]) == len(set(calls["neighbors"])) == rep.orbit_size == 12
        kinds = [e.kind for e in rep.edges]
        for name, kind in _FAMILIES.items():
            assert calls[name] == calls["neighbors"], name
            assert found[name] == kinds.count(kind), name
        assert sum(found.values()) == len(rep.edges)

        for log in calls.values():
            log.clear()
        words = moves.orbit("aBaaBB")
        assert calls["orbit"] == ["aBaaBB"]
        assert sorted(calls["neighbors"]) == sorted(words)
        for name in _FAMILIES:
            assert calls[name] == calls["neighbors"], name

    def test_edges_are_sorted_by_source_target_kind_and_site(self, ball12):
        # Every element within distance 6, and b^10, whose orbit is a single
        # word with no edges.
        singleton = Element(0, 10, 0)
        elements = [Element(*key) for key, d in sorted(ball12.distances.items()) if d <= 6]
        for g in elements + [singleton]:
            rep = check_theorem2(g, ball=ball12)
            expected = sorted(
                (e for u in orbit(std_rep(g)) for e in neighbors(u)),
                key=lambda e: (
                    word_sort_key(e.source),
                    word_sort_key(e.target),
                    e.kind.value,
                    e.site,
                ),
            )
            assert list(rep.edges) == expected, g
        assert rep.element == singleton and rep.orbit_size == 1 and rep.edges == ()

    def test_geodesic_cap_checked_before_any_ball(self, monkeypatch):
        from ckgeo import oracle

        def fail(*args, **kwargs):
            raise AssertionError("the oracle ran despite the geodesic cap")

        monkeypatch.setattr(oracle, "build_ball", fail)
        monkeypatch.setattr(oracle, "enumerate_geodesics", fail)
        with pytest.raises(GeodesicCapError):
            check_theorem2(Element(-1, 3, 4), geodesic_cap=11)

    @pytest.mark.parametrize("cap", [-5, 0, 1, 11, 10**5])
    def test_capped_count_decides_like_the_exact_count(self, ball12, cap):
        for key in ball12.distances:
            g = Element(*key)
            count = geodesic_count(g)
            capped = moves._capped_geodesic_count(g, cap)
            assert capped == min(count, cap + 1), (key, cap)
            assert (capped > cap) == (count > cap), (key, cap)

    def test_capped_count_skips_the_exact_count(self, monkeypatch):
        import math

        def fail(*args, **kwargs):
            raise AssertionError("math.comb called for the cap check")

        monkeypatch.setattr(math, "comb", fail)
        assert moves._capped_geodesic_count(Element(10**6, 10**6, 10**6), 10**5) == 10**5 + 1
        assert moves._capped_geodesic_count(Element(0, 10**6, 10**6), 0) == 1

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
            if not is_normalized(g):
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
            if not is_normalized(g):
                continue
            std = std_rep(g)
            for w in enumerate_geodesics(ball8, g):
                dec = young_decomposition(w)
                trivial = dec.even_side == () and dec.odd_side == () and dec.detour_sign >= 0
                assert (w == std) == trivial, (key, w)


def _radius_10_geodesics(ball12):
    """Every geodesic of every normalized element of the radius-10 ball:
    elements in key order, words in enumerate_geodesics order."""
    from ckgeo.oracle import enumerate_geodesics

    words = []
    for key in sorted(ball12.distances):
        if ball12.distances[key] <= 10 and key[1] >= 0 and key[2] >= 0:
            words.extend(enumerate_geodesics(ball12, key))
    return words


class TestYoungRadius10:
    """Every diagram pair of the radius-10 ball, pinned by a digest recorded
    before the decomposition shared one gap-parity rule across the detour
    and the x-monotone shapes."""

    def test_decomposition_digest(self, ball12):
        words = _radius_10_geodesics(ball12)
        digest = hashlib.sha256()
        for w in words:
            digest.update(json.dumps(young_decomposition(w).to_dict()).encode())
        assert len(words) == 4254
        assert digest.hexdigest() == (
            "1ddceb624c5d535d7129bb0115e11bd4045c18613f0677aceba5bf417f181f9d"
        )

    def test_round_trip(self, ball12):
        for w in _radius_10_geodesics(ball12):
            assert young_recompose(young_decomposition(w)) == w, w


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
