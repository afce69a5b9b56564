import io
import random

import pytest

from ckgeo import kernels
from ckgeo.cli import _length_suite
from ckgeo.core import GENERATORS, Element, inverse, multiply
from ckgeo.errors import BallBudgetError, GeodesicCapError
from ckgeo.geodesics import (
    LengthTable,
    RegionCase,
    classify_region,
    continuation_rule_letters,
    geodesic_count,
    is_dead_end,
    length,
    std_rep,
)
from ckgeo.models import CK, ZSQUARED, get_model
from ckgeo.oracle import (
    AuditReport,
    BallIndex,
    CheckReport,
    audit_dead_ends,
    build_ball,
    check_continuation_rules,
    check_last_letter,
    check_standard_language,
    enumerate_geodesics,
    expected_terminal_words,
    standard_words,
)
from ckgeo.words import LETTERS, format_word, free_reduce, word_sort_key


class TestBuildBall:
    def test_frozen_sizes(self, ball12):
        assert len(ball12) == 2537
        assert ball12.frontier_sizes == (1, 4, 12, 30, 58, 94, 138, 190, 250, 318, 394, 478, 570)

    def test_radius_one(self):
        b = build_ball("ck", 1)
        assert len(b) == 5
        assert set(b.distances) == {(0, 0, 0), (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0)}

    def test_quotients_share_state_sets(self):
        bk = build_ball("klein", 10)
        bz = build_ball("z2", 10)
        assert len(bk) == len(bz) == 221
        assert set(bk.distances) == set(bz.distances)
        assert bk.distances == bz.distances

    def test_generic_matches_kernel(self):
        for name in ("ck", "klein", "z2"):
            fast = build_ball(name, 6)
            slow = _reference_ball(get_model(name), 6)
            assert dict(fast.distances) == dict(slow.distances)
            assert fast.frontier_sizes == slow.frontier_sizes

    @pytest.mark.parametrize("name", ["ck", "klein", "z2"])
    def test_kernel_matches_reference_radius_8(self, name):
        distances, levels = getattr(kernels, f"{name}_ball")(8)
        reference = _reference_ball(get_model(name), 8)
        assert (distances, tuple(levels)) == (reference.distances, reference.frontier_sizes)

    @pytest.mark.parametrize("name", ["klein", "z2"])
    def test_rank2_distances_are_taxicab(self, name):
        # A closed-form reference that needs no BFS: the diamond |m| + |n| <= 40.
        ball = build_ball(name, 40)
        assert len(ball) == 2 * 40 * 41 + 1
        assert all(d == abs(m) + abs(n) for (m, n), d in ball.distances.items())

    def test_only_registered_models(self):
        z2_copy = type("Z2Copy", (type(ZSQUARED),), {"name": "z2-copy"})()
        with pytest.raises(ValueError, match="unknown model 'z2-copy'"):
            build_ball(z2_copy, 4)
        assert build_ball(ZSQUARED, 2).model == "z2"

    def test_budget_error(self):
        with pytest.raises(BallBudgetError) as exc:
            build_ball("ck", 12, max_states=100)
        assert exc.value.states >= 100
        assert exc.value.levels_completed < 12

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            build_ball("ck", -1)

    @pytest.mark.parametrize("name", ["ck", "klein", "z2"])
    def test_budget_counts_the_identity(self, name):
        with pytest.raises(BallBudgetError) as exc:
            build_ball(name, 0, max_states=0)
        assert str(exc.value) == "ball construction exceeded max_states=0 at radius 0"
        assert (exc.value.states, exc.value.levels_completed) == (1, 0)
        assert len(build_ball(name, 0, max_states=1)) == 1


class TestEnumerateGeodesics:
    def test_central_generator(self, ball8):
        assert enumerate_geodesics(ball8, Element(1, 0, 0)) == ["abAb", "Abab", "babA", "bAba"]

    def test_identity(self, ball8):
        assert enumerate_geodesics(ball8, Element(0, 0, 0)) == [""]

    def test_cap(self, ball8):
        with pytest.raises(GeodesicCapError):
            enumerate_geodesics(ball8, Element(1, 0, 0), cap=3)

    def test_counts_match_closed_form(self, ball8):
        for key, dist in ball8.distances.items():
            if dist > 6:
                continue
            g = Element(*key)
            assert len(enumerate_geodesics(ball8, g)) == geodesic_count(g), key

    def test_all_words_spell_the_element(self, ball8):
        from ckgeo.core import evaluate

        for key in ((2, -1, 4), (-3, 3, 3), (0, 4, 3)):
            for w in enumerate_geodesics(ball8, key):
                assert evaluate(w) == Element(*key)
                assert len(w) == ball8.distances[key]

    @pytest.mark.parametrize("name", ["klein", "z2"])
    def test_rejects_other_models(self, name):
        with pytest.raises(ValueError, match="specific to the ck model"):
            enumerate_geodesics(build_ball(name, 4), (1, 1))

    def test_generic_matches_kernel_route(self, ball8):
        generic = _reference_ball(CK, 6)
        for key in ((1, 0, 0), (-1, 3, 2), (0, 2, 2), (2, 0, 0)):
            assert enumerate_geodesics(generic, key) == enumerate_geodesics(ball8, key)


class TestDeadEndAudit:
    def test_ck_clean(self, ball8):
        rep = audit_dead_ends(ball8)
        assert rep.verdict == "pass"
        assert rep.dead_end_candidates == ()
        assert rep.standard_words_checked == sum(ball8.frontier_sizes[:8])

    def test_quotients_clean(self):
        for name in ("klein", "z2"):
            rep = audit_dead_ends(build_ball(name, 8))
            assert rep.verdict == "pass"


class TestStandardLanguageAudit:
    def test_z2_passes(self):
        rep = check_standard_language("z2-standard", standard_words("z2", 8), build_ball("z2", 8))
        assert rep.verdict == "pass"
        assert rep.geodesic_failures == ()
        assert rep.prefix_failures == ()
        assert rep.notes == ("language: z2-standard",)

    def test_ck_geodesic_part_is_clean(self, ball8):
        rep = check_standard_language("ck-standard", standard_words("ck", 8), ball8)
        assert rep.geodesic_failures == ()
        assert rep.standard_words_checked == len(ball8)

    def test_ck_prefix_failures_are_exactly_the_terminal_words(self, ball8):
        rep = check_standard_language("ck-standard", standard_words("ck", 8), ball8)
        assert rep.verdict == "fail"
        assert set(rep.prefix_failures) == set(expected_terminal_words(7))
        assert len(rep.prefix_failures) == 50

    def test_truncated_control_fails(self, ball8):
        rep = check_standard_language("ck-truncated", standard_words("ck", 6), ball8)
        assert rep.verdict == "fail"
        assert len(rep.prefix_failures) > 50

    def test_klein_has_no_standard_words(self):
        with pytest.raises(ValueError, match="no standard language"):
            standard_words("klein", 4)

    def test_words_are_any_iterable(self, ball8):
        words = standard_words("ck", 8)
        assert (
            check_standard_language("ck-standard", iter(words), ball8)
            == check_standard_language("ck-standard", words, ball8)
        )

    @pytest.mark.parametrize(
        "name,radius",
        [
            ("ck-standard", 8),
            ("ck-standard", 12),
            ("z2-standard", 10),
            ("ck-standard-truncated@6", 8),
            ("ck-standard-truncated@10", 12),
            ("z2-standard-truncated@7", 10),
        ],
    )
    def test_prefix_failures_match_materialized_prefixes(self, name, radius):
        # A truncated language is the standard words up to its cap.
        model = name.split("-")[0]
        max_length = int(name.split("@")[1]) if "@" in name else radius
        words = set(standard_words(model, max_length))
        prefixes = {w[:i] for w in words for i in range(len(w))}
        expected = [
            format_word(w)
            for w in sorted(words, key=word_sort_key)
            if len(w) < radius and w not in prefixes
        ]
        rep = check_standard_language(name, words, build_ball(model, radius))
        assert list(rep.prefix_failures) == expected


class TestExpectedTerminalWords:
    def test_membership(self):
        words = expected_terminal_words(7)
        assert format_word(std_rep(Element(1, 0, 0))) in words
        assert format_word(std_rep(Element(-1, 1, 0))) in words
        assert format_word(std_rep(Element(0, 3, 0))) not in words

    def test_all_have_axis_form(self):
        from ckgeo.core import evaluate
        from ckgeo.words import parse_word

        for text in expected_terminal_words(9):
            g = evaluate(parse_word(text))
            assert g.n == 0 and g.k != 0

    def test_monotone_in_length(self):
        assert expected_terminal_words(4) < expected_terminal_words(8)

    def test_empty_below_length_zero(self):
        assert expected_terminal_words(-1) == frozenset()
        assert expected_terminal_words(0) == frozenset()


class TestLetterAndRuleChecks:
    def test_last_letter(self, ball8):
        rep = check_last_letter(ball8)
        assert rep.verdict == "pass"
        assert rep.checked == sum(ball8.frontier_sizes[1:8])

    def test_last_letter_rejects_other_models(self):
        with pytest.raises(ValueError):
            check_last_letter(build_ball("z2", 4))

    def test_continuation_rules(self, ball8):
        rep = check_continuation_rules(ball8)
        assert rep.verdict == "pass"
        assert rep.failures == ()
        assert any("excluded at n = 0" in n for n in rep.notes)


class TestExports:
    def test_csv_frozen_radius_one(self):
        buf = io.StringIO()
        build_ball("ck", 1).export_csv(buf)
        assert buf.getvalue() == (
            "k,m,n,distance\n"
            "0,0,0,0\n"
            "0,-1,0,1\n"
            "0,0,-1,1\n"
            "0,0,1,1\n"
            "0,1,0,1\n"
        )

    def test_jsonl_frozen_first_lines(self):
        buf = io.StringIO()
        build_ball("ck", 1).export_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == '{"k":0,"m":0,"n":0,"distance":0}'
        assert len(lines) == 5

    def test_exports_deterministic(self, ball8):
        a, b = io.StringIO(), io.StringIO()
        ball8.export_csv(a)
        ball8.export_csv(b)
        assert a.getvalue() == b.getvalue()
        assert len(a.getvalue().splitlines()) == len(ball8) + 1

    def test_quotient_export_field_names(self):
        buf = io.StringIO()
        build_ball("z2", 1).export_csv(buf)
        assert buf.getvalue().splitlines()[0] == "m,n,distance"


class TestStatesSorted:
    def test_distance_major_order(self, ball8):
        rows = ball8.states_sorted()
        assert rows[0] == ((0, 0, 0), 0)
        dists = [d for _, d in rows]
        assert dists == sorted(dists)
        assert len(rows) == len(ball8)


def _reference_ball(model, radius):
    """Level-synchronous BFS over ``model.neighbors``, the kernels' reference."""
    levels = [[tuple(model.identity)]]
    distances = {levels[0][0]: 0}
    for d in range(1, radius + 1):
        levels.append([])
        for state in levels[-2]:
            for child in model.neighbors(state):
                if child not in distances:
                    distances[child] = d
                    levels[-1].append(child)
    return BallIndex(model.name, radius, distances, tuple(map(len, levels)))


# References for the per-state checks: the multiply-based versions they
# replaced, kept verbatim apart from the sort, which is the old lambda.


def _rows(ball):
    return sorted(ball.distances.items(), key=lambda kv: (kv[1], kv[0]))


def _reference_dead_ends(ball):
    model = get_model(ball.model)
    horizon = ball.radius - 1
    candidates = []
    checked = 0
    for state, d in _rows(ball):
        if d > horizon:
            continue
        checked += 1
        ascending = 0
        for letter in LETTERS:
            child_key = model.step(state, letter)
            if ball.distances.get(child_key, -1) == d + 1:
                ascending += 1
        if ascending == 0:
            candidates.append(str(state))
        elif ball.model == "ck" and is_dead_end(Element(*state)):
            candidates.append(f"{state} (closed form disagrees)")
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=checked,
        geodesic_failures=(),
        prefix_failures=(),
        dead_end_candidates=tuple(candidates),
        notes=(f"states certified: {checked} (distance <= {horizon})",),
    )


def _reference_continuation_rules(ball):
    failures = []
    checked = 0
    carved_out = 0
    horizon = ball.radius - 1
    for state, d in _rows(ball):
        if d > horizon:
            continue
        g = Element(*state)
        if g.m < 0 or g.n < 0:
            continue
        case = classify_region(g)
        if case is RegionCase.ZERO_K:
            continue
        checked += 1
        for s in continuation_rule_letters(case):
            if g.n == 0 and s in "aA":
                carved_out += 1
                continue
            h = multiply(g, GENERATORS[s])
            if ball.distances.get((h.k, h.m, h.n), -1) != d + 1:
                failures.append(f"{g.format()} [{case.value}]: letter {s!r}")
    return CheckReport(
        name="continuation-rules",
        checked=checked,
        failures=tuple(failures),
        notes=(
            f"normalized elements with distance <= {horizon}",
            f"a-direction pairs excluded at n = 0: {carved_out}",
        ),
    )


def _reference_last_letter(ball):
    horizon = ball.radius - 1
    failures = []
    checked = 0
    for state, d in _rows(ball):
        if d == 0 or d > horizon:
            continue
        checked += 1
        g = Element(*state)
        closed_shorter = length(g) - 1
        oracle_set = ""
        closed_set = ""
        for s in LETTERS:
            h = multiply(g, inverse(GENERATORS[s]))
            if ball.distances.get((h.k, h.m, h.n), -1) == d - 1:
                oracle_set += s
            if length(h) == closed_shorter:
                closed_set += s
        if oracle_set != closed_set or not oracle_set:
            failures.append(
                f"{g.format()}: oracle last letters {oracle_set!r},"
                f" closed form {closed_set!r}"
            )
    return CheckReport(
        name="last-letter",
        checked=checked,
        failures=tuple(failures),
        notes=(f"elements with 1 <= distance <= {horizon}",),
    )


def _reference_length_suite(ball, table):
    failures = []
    entries = table.entries
    for state, d in _rows(ball):
        closed = entries.get(state)
        if closed is None:
            failures.append(f"{Element(*state).format()}: missing from closed-form ball")
        elif closed != d:
            failures.append(f"{Element(*state).format()}: closed form {closed}, oracle {d}")
    for g in entries:
        if g not in ball.distances:
            failures.append(f"{g.format()}: closed-form extra state")
    return CheckReport(
        name="length-closed-form",
        checked=len(ball),
        failures=tuple(failures),
        notes=(f"closed-form ball size {len(table)}",),
    )


def _reference_standard_language(name, words, ball):
    """check_standard_language evaluating every word from scratch."""
    model = get_model(ball.model)
    geodesic_failures = []
    prefix_failures = []
    seen = {}
    words = sorted(set(words), key=word_sort_key)
    for w in words:
        if len(w) > ball.radius:
            geodesic_failures.append(f"coverage: {format_word(w)} exceeds horizon")
            continue
        if free_reduce(w) != w:
            geodesic_failures.append(f"{format_word(w)} is not freely reduced")
            continue
        state_key = model.evaluate(w)
        if ball.distances.get(state_key, -1) != len(w):
            geodesic_failures.append(f"{format_word(w)} is not geodesic")
        if state_key in seen:
            geodesic_failures.append(
                f"coverage: {format_word(w)} duplicates {format_word(seen[state_key])}"
            )
        else:
            seen[state_key] = w
    for state in ball.distances:
        if state not in seen:
            geodesic_failures.append(f"coverage: no word for state {state}")
    by_text = sorted(words)
    terminal = [
        w
        for w, successor in zip(by_text, by_text[1:] + [None])
        if len(w) < ball.radius and not (successor and successor.startswith(w))
    ]
    for w in sorted(terminal, key=word_sort_key):
        prefix_failures.append(format_word(w))
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=len(words),
        geodesic_failures=tuple(geodesic_failures),
        prefix_failures=tuple(prefix_failures),
        dead_end_candidates=(),
        notes=(f"language: {name}",),
    )


def _shuffled(ball, seed=0):
    """The ball with its distance dict in a seeded random key order."""
    items = list(ball.distances.items())
    random.Random(seed).shuffle(items)
    shuffled = BallIndex(ball.model, ball.radius, dict(items), ball.frontier_sizes)
    assert list(shuffled.distances) != list(ball.distances)
    return shuffled


def _clipped(ball, radius):
    """The ball cut back to the states at distance <= ``radius``."""
    distances = {state: d for state, d in ball.distances.items() if d <= radius}
    return BallIndex(ball.model, radius, distances, ball.frontier_sizes)


def _tampered(ball, key, delta):
    """The ball with one state's distance shifted by ``delta``."""
    distances = dict(ball.distances)
    distances[key] += delta
    return BallIndex(ball.model, ball.radius, distances, ball.frontier_sizes)


# Shifts that make all three checks report failures on both radii.
TAMPERS = [((1, 0, 0), 1), ((1, 0, 0), -1), ((-1, 2, 3), 1), ((2, 1, 2), -1), ((1, 1, 1), 1)]


class TestPerStateChecksMatchReferences:
    @pytest.fixture(scope="class", params=[8, 12])
    def ball(self, request, ball8, ball12):
        return {8: ball8, 12: ball12}[request.param]

    @pytest.fixture(scope="class", params=[None] + TAMPERS, ids=str)
    def balls(self, request, ball):
        if request.param is None:
            return ball, False
        return _tampered(ball, *request.param), True

    # Each check also runs on the ball with its dict shuffled: the reports
    # sort only their failures, so the key order must not show.

    def test_dead_ends(self, balls):
        ball, tampered = balls
        ref = _reference_dead_ends(ball).to_dict()
        rep = audit_dead_ends(ball)
        assert rep.to_dict() == ref
        assert audit_dead_ends(_shuffled(ball)).to_dict() == ref
        assert bool(rep.dead_end_candidates) == tampered

    def test_continuation_rules(self, balls):
        ball, tampered = balls
        ref = _reference_continuation_rules(ball).to_dict()
        rep = check_continuation_rules(ball)
        assert rep.to_dict() == ref
        assert check_continuation_rules(_shuffled(ball)).to_dict() == ref
        assert bool(rep.failures) == tampered

    def test_last_letter(self, balls):
        ball, tampered = balls
        ref = _reference_last_letter(ball).to_dict()
        rep = check_last_letter(ball)
        assert rep.to_dict() == ref
        assert check_last_letter(_shuffled(ball)).to_dict() == ref
        assert bool(rep.failures) == tampered
        for horizon in (1, 5, ball.radius - 1):
            clipped = _clipped(ball, horizon + 1)
            rep = check_last_letter(clipped)
            ref = _reference_last_letter(clipped)
            assert rep.to_dict() == ref.to_dict()

    def test_length_suite(self, balls):
        ball, tampered = balls
        table = LengthTable.build(ball.radius)
        ref = _reference_length_suite(ball, table).to_dict()
        rep = _length_suite(ball, table)
        assert rep.to_dict() == ref
        assert _length_suite(_shuffled(ball), table).to_dict() == ref
        assert bool(rep.failures) == tampered
        clipped = _clipped(ball, ball.radius - 2)
        ref = _reference_length_suite(clipped, table).to_dict()
        assert _length_suite(_shuffled(clipped), table).to_dict() == ref

    @pytest.mark.parametrize("name", ["klein", "z2"])
    def test_dead_ends_other_models(self, name):
        for radius in (8, 12):
            ball = build_ball(name, radius)
            tampered = _tampered(ball, (1, 2), 1)
            for b in (ball, tampered):
                ref = _reference_dead_ends(b).to_dict()
                assert audit_dead_ends(b).to_dict() == ref
                assert audit_dead_ends(_shuffled(b)).to_dict() == ref
            assert audit_dead_ends(tampered).dead_end_candidates


def _defective_language(model, radius, seed):
    """The standard words of ``model`` up to ``radius``, each tenth dropped
    (so some words' prefixes are missing), with duplicates, random words
    (unreduced, non-geodesic or both) and words past the horizon added."""
    rng = random.Random(seed)
    words = standard_words(model, radius)
    kept = [w for i, w in enumerate(words) if i % 10]
    extra = [
        "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, radius + 2)))
        for _ in range(200)
    ]
    past = [w for w in standard_words(model, radius + 1) if len(w) > radius][:20]
    return kept + rng.sample(kept, 50) + extra + past


class TestStandardLanguageMatchesReference:
    @pytest.mark.parametrize(
        "model,radius,seed", [("ck", 8, 1), ("ck", 12, 2), ("z2", 8, 3), ("z2", 12, 4)]
    )
    def test_defective_words(self, model, radius, seed):
        ball = build_ball(model, radius)
        words = _defective_language(model, radius, seed)
        ref = _reference_standard_language("lang", words, ball)
        assert ref.geodesic_failures and ref.prefix_failures
        assert check_standard_language("lang", words, ball) == ref
        shuffled = _shuffled(ball)
        assert (
            check_standard_language("lang", words, shuffled)
            == _reference_standard_language("lang", words, shuffled)
        )

    @pytest.mark.parametrize("model,radius", [("ck", 8), ("z2", 8)])
    def test_standard_and_truncated_words(self, model, radius):
        ball = build_ball(model, radius)
        for cap in (radius, radius - 2):
            words = standard_words(model, cap)
            ref = _reference_standard_language("lang", words, ball)
            assert check_standard_language("lang", words, ball) == ref
