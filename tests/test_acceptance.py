"""End-to-end acceptance sweep.

One test per acceptance item, named ``test_aNN_*`` so the summary block the
conftest hook prints at the end of the run lists them in order.  Two items
are stated in their strongest literal form and are false on the n = 0 axis;
those are marked ``xfail(strict=True)`` and each is paired with a certified
companion that pins down the exact failure set instead.  See the audit
subcommand's ``known_deviations`` section for the runtime view of the same
facts.
"""

import json
import random
import time
from pathlib import Path

import pytest

from ckgeo.cli import main
from ckgeo.core import (
    CENTRAL_WORD,
    IDENTITY,
    Element,
    evaluate,
    inverse,
    is_normalized,
    lattice_path,
    multiply,
)
from ckgeo.geodesics import (
    classify_region,
    closed_ball_elements,
    continuation_rule_letters,
    continuations,
    geodesic_count,
    is_dead_end,
    is_geodesic,
    length,
    std_rep,
)
from ckgeo.models import CK
from ckgeo.moves import (
    castling_neighbors,
    check_theorem2,
    young_decomposition,
    young_recompose,
)
from ckgeo.oracle import (
    audit_dead_ends,
    build_ball,
    check_last_letter,
    check_standard_language,
    enumerate_geodesics,
    expected_terminal_words,
    standard_words,
)
from ckgeo.words import LETTERS
from references import (
    IsometryKind,
    apply_isometry,
    apply_letter_map,
    cyclic_shifts,
    is_reduced,
    letter_map_for,
    word_inverse,
)

SEED = 2024


def test_a01_algebra_soundness():
    # Defining relations: the bracket word commutes with both generators.
    for x in ("a", "b"):
        commutator = CENTRAL_WORD + x + word_inverse(CENTRAL_WORD) + word_inverse(x)
        assert evaluate(commutator) == IDENTITY
    assert evaluate(CENTRAL_WORD) == Element(1, 0, 0)
    # Inverses and the homomorphism property, randomized but reproducible.
    rng = random.Random(SEED)
    for _ in range(500):
        g = Element(rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
        assert multiply(g, inverse(g)) == IDENTITY
        assert multiply(inverse(g), g) == IDENTITY
        u = "".join(rng.choice(LETTERS) for _ in range(rng.randrange(30)))
        v = "".join(rng.choice(LETTERS) for _ in range(rng.randrange(30)))
        assert evaluate(u + v) == multiply(evaluate(u), evaluate(v))


def test_a02_evaluation_matches_lattice_walk():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        w = "".join(rng.choice(LETTERS) for _ in range(rng.randrange(50)))
        end = lattice_path(w)[-1]
        g = evaluate(w)
        assert (end.area, end.y, end.x) == (g.k, g.m, g.n)
    # Even-width rectangles commute away; the width-1 rectangle does not.
    for s in range(1, 7):
        for j in range(1, 7):
            assert evaluate("b" * s + "a" * (2 * j) + "B" * s + "A" * (2 * j)) == IDENTITY
    assert evaluate("abAB") == Element(1, -2, 0) != IDENTITY


def test_a03_length_closed_form_matches_bfs(ball12):
    t0 = time.time()
    elements = closed_ball_elements(12)
    assert len(elements) == len(ball12.distances) == 2537
    for g in elements:
        assert ball12.distances[(g.k, g.m, g.n)] == length(g)
    assert time.time() - t0 < 60.0


def test_a04_standard_representatives_certified(ball12):
    for key, dist in ball12.distances.items():
        g = Element(*key)
        w = std_rep(g)
        assert is_reduced(w)
        assert evaluate(w) == g
        assert len(w) == dist
        assert is_geodesic(w)


def test_a05_no_dead_ends(ball12):
    rep = audit_dead_ends(ball12)
    assert rep.verdict == "pass"
    assert rep.dead_end_candidates == ()
    assert rep.standard_words_checked == 1967  # all states with distance <= 11
    assert not is_dead_end(Element(-3, 7, 2))


def test_a06_generator_steps_change_length_by_one(ball12):
    for key, d in ball12.distances.items():
        if d > 11:
            continue
        g = Element(*key)
        for s in LETTERS:
            nd = ball12.distances[CK.step(g, s)]
            assert abs(nd - d) == 1, (key, s)


@pytest.mark.xfail(
    strict=True,
    reason="the region rule letters are not all length-increasing on the n = 0 axis:"
    " both a-direction steps move back toward the interior there",
)
def test_a07_continuation_rule_letters_literal(ball12):
    for key, d in ball12.distances.items():
        if d > 11:
            continue
        g = Element(*key)
        if g.k == 0 or not is_normalized(g):
            continue
        rule = continuation_rule_letters(classify_region(g))
        for s in rule:
            nd = ball12.distances[CK.step(g, s)]
            assert nd == d + 1, (key, s)


def test_a07_continuation_rule_letters_certified(ball12):
    violations = []
    for key, d in ball12.distances.items():
        if d > 11:
            continue
        g = Element(*key)
        if g.k == 0 or not is_normalized(g):
            continue
        rule = continuation_rule_letters(classify_region(g))
        for s in rule:
            nd = ball12.distances[CK.step(g, s)]
            if nd != d + 1:
                violations.append((key, s))
    # Every violation is the a-letter of an n = 0 element, and every
    # normalized off-center element on that axis violates exactly once.
    assert all(s == "a" and key[2] == 0 for key, s in violations)
    axis = {
        key
        for key, d in ball12.distances.items()
        if d <= 11 and key[0] != 0 and key[2] == 0
        and is_normalized(Element(*key))
    }
    assert {key for key, _ in violations} == axis
    assert len(violations) == 85
    # Off the axis the rule letters are exactly right, and the library's
    # continuation set always matches the oracle.
    for key, d in ball12.distances.items():
        if d > 11:
            continue
        g = Element(*key)
        expected = "".join(
            s for s in LETTERS if ball12.distances[CK.step(g, s)] == d + 1
        )
        assert continuations(g) == expected, key


def test_a08_move_orbit_covers_all_geodesics(ball8):
    t0 = time.time()
    for key in ball8.distances:
        rep = check_theorem2(Element(*key), ball=ball8)
        assert rep.connected, key
        assert rep.orbit_size == rep.geodesic_count == geodesic_count(Element(*key))
    # Central-axis elements: the geodesics are exactly the cyclic shifts of
    # the standard word.
    for k in (1, 2, 3):
        w = std_rep(Element(k, 0, 0))
        assert set(enumerate_geodesics(ball8, Element(k, 0, 0))) == set(cyclic_shifts(w))
        assert geodesic_count(Element(k, 0, 0)) == 2 * k + 2
    assert time.time() - t0 < 60.0


def test_a09_castling_chain_example():
    w1, w2, w3 = "aBaaBB", "aBBaaB", "aBBBaa"
    assert evaluate(w1) == evaluate(w2) == evaluate(w3)
    assert {e.target for e in castling_neighbors(w1)} >= {w2}
    assert {e.target for e in castling_neighbors(w2)} >= {w1, w3}
    assert len({w1, w2, w3}) == 3
    assert all(is_geodesic(w) for w in (w1, w2, w3))


@pytest.mark.xfail(
    strict=True,
    reason="standard words of n = 0 off-center elements are terminal: no longer"
    " standard word extends them, so the language fails the prefix audit",
)
def test_a10_standard_language_literal(ball12):
    rep = check_standard_language("ck-standard", standard_words("ck", 12), ball12)
    assert rep.verdict == "pass"


def test_a10_standard_language_certified(ball12):
    rep = check_standard_language("ck-standard", standard_words("ck", 12), ball12)
    assert rep.geodesic_failures == ()
    assert rep.standard_words_checked == 2537
    assert set(rep.prefix_failures) == set(expected_terminal_words(11))
    assert len(rep.prefix_failures) == 162
    # Positive control: the commutative quotient's language is prefix-closed.
    z2 = check_standard_language("z2-standard", standard_words("z2", 10), build_ball("z2", 10))
    assert z2.verdict == "pass"
    # Negative control: clipping the language is detected.
    clipped = check_standard_language(
        "ck-standard-truncated@10", standard_words("ck", 10), ball12
    )
    assert clipped.verdict == "fail"
    assert len(clipped.prefix_failures) > 162


def test_a11_last_letter_equivalence():
    rep = check_last_letter(build_ball("ck", 10))
    assert rep.verdict == "pass"
    assert rep.checked == 1094  # all states with 1 <= distance <= 9
    assert rep.failures == ()


def test_a12_isometries_and_diagram_round_trip(ball12, ball8):
    # Both coordinate flips preserve distance state-by-state.
    for key, d in ball12.distances.items():
        g = Element(*key)
        for kind in IsometryKind:
            image = apply_isometry(kind, g)
            assert ball12.distances[(image.k, image.m, image.n)] == d
    # The paired letter maps realise them on geodesic words.
    rng = random.Random(SEED + 12)
    sample = rng.sample(sorted(ball12.distances), 200)
    for key in sample:
        g = Element(*key)
        w = std_rep(g)
        for kind in IsometryKind:
            mapped = apply_letter_map(letter_map_for(kind), w)
            assert evaluate(mapped) == apply_isometry(kind, g)
            assert len(mapped) == len(w)
    # Diagram data classifies geodesics one-to-one and reconstructs them.
    for key, dist in ball8.distances.items():
        g = Element(*key)
        if not is_normalized(g):
            continue
        seen = set()
        for w in enumerate_geodesics(ball8, g):
            dec = young_decomposition(w)
            assert young_recompose(dec) == w
            fingerprint = (dec.even_side, dec.odd_side, dec.detour_sign)
            assert fingerprint not in seen, (key, w)
            seen.add(fingerprint)


def test_a13_cli_determinism(tmp_path, capsys):
    def run(*argv):
        rc = main(list(argv))
        out = capsys.readouterr().out
        return rc, out

    rc1, audit1 = run("audit", "--model", "ck", "--radius", "8")
    rc2, audit2 = run("audit", "--model", "ck", "--radius", "8")
    assert rc1 == rc2 == 0
    assert audit1 == audit2
    report = json.loads(audit1)
    assert report["verdict"] == "pass"
    assert report["suites"]["dead_ends"]["verdict"] == "pass"
    assert report["suites"]["standard_language"]["certified_verdict"] == "pass"
    assert report["suites"]["standard_language"]["unexpected_prefix_failures"] == []

    rc3, ball_a = run("ball", "6", "--export", "jsonl")
    rc4, ball_b = run("ball", "6", "--export", "jsonl")
    assert rc3 == rc4 == 0
    assert ball_a == ball_b
    assert len(ball_a.splitlines()) == 337

    golden = (Path(__file__).parent / "golden" / "std_m4_2_4.svg").read_text()
    out_file = tmp_path / "render.svg"
    rc5, _ = run("render", "b^-2 a b^-4 a^3", "--cells", "--young", "--out", str(out_file))
    assert rc5 == 0
    assert out_file.read_text() == golden

    rc6, _ = run("audit", "--model", "ck", "--radius", "8", "--negative-control")
    assert rc6 == 5
