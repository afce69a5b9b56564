import dataclasses
import io

import pytest

from ckgeo.core import GENERATORS, Element, inverse, multiply
from ckgeo.errors import BallBudgetError, GeodesicCapError
from ckgeo.geodesics import (
    RegionCase,
    classify_region,
    continuation_rule_letters,
    geodesic_count,
    is_dead_end,
    length,
    std_rep,
)
from ckgeo.models import KLEIN, get_model
from ckgeo.oracle import (
    AuditReport,
    CheckReport,
    CkStandardWords,
    TruncatedLanguage,
    Z2StandardWords,
    audit_dead_ends,
    build_ball,
    check_continuation_rules,
    check_last_letter,
    check_standard_language,
    enumerate_geodesics,
    exact_length,
    expected_terminal_words,
)
from ckgeo.words import LETTERS, format_word, word_sort_key


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
            slow = build_ball(name, 6, force_generic=True)
            assert slow.backend == "generic"
            assert dict(fast.distances) == dict(slow.distances)
            assert fast.frontier_sizes == slow.frontier_sizes

    def test_budget_error(self):
        with pytest.raises(BallBudgetError) as exc:
            build_ball("ck", 12, max_states=100)
        assert exc.value.states >= 100
        assert exc.value.levels_completed < 12

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            build_ball("ck", -1)

    def test_distance_miss_message(self):
        b = build_ball("ck", 2)
        with pytest.raises(ValueError, match="larger radius"):
            b.distance((5, 5, 5))


class TestExactLength:
    def test_matches_closed_form(self, ball8):
        for key, dist in ball8.distances.items():
            assert exact_length(ball8, key) == dist == length(Element(*key))

    def test_accepts_elements(self, ball8):
        assert exact_length(ball8, Element(1, 0, 0)) == 4

    def test_uncovered_state(self, ball8):
        with pytest.raises(ValueError):
            exact_length(ball8, (0, 0, 9))


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

    def test_generic_models(self):
        bz = build_ball("z2", 4)
        assert enumerate_geodesics(bz, (1, 1)) == ["ab", "ba"]
        bk = build_ball("klein", 4)
        words = enumerate_geodesics(bk, (1, 1))
        assert len(words) == 2
        assert all(KLEIN.evaluate(w) == (1, 1) for w in words)

    def test_generic_matches_kernel_route(self, ball8):
        generic = build_ball("ck", 6, force_generic=True)
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

    def test_deep_mode_notes(self, ball8):
        rep = audit_dead_ends(ball8, deep=True)
        assert rep.verdict == "pass"
        assert any("unique" in n for n in rep.notes)


class TestStandardLanguageAudit:
    def test_z2_passes(self):
        rep = check_standard_language(Z2StandardWords(), build_ball("z2", 8))
        assert rep.verdict == "pass"
        assert rep.geodesic_failures == ()
        assert rep.prefix_failures == ()

    def test_ck_geodesic_part_is_clean(self, ball8):
        rep = check_standard_language(CkStandardWords(), ball8)
        assert rep.geodesic_failures == ()
        assert rep.standard_words_checked == len(ball8)

    def test_ck_prefix_failures_are_exactly_the_terminal_words(self, ball8):
        rep = check_standard_language(CkStandardWords(), ball8)
        assert rep.verdict == "fail"
        assert set(rep.prefix_failures) == set(expected_terminal_words(7))
        assert len(rep.prefix_failures) == 50

    def test_truncated_control_fails(self, ball8):
        rep = check_standard_language(TruncatedLanguage(CkStandardWords(), 6), ball8)
        assert rep.verdict == "fail"
        assert len(rep.prefix_failures) > 50

    def test_model_mismatch(self, ball8):
        with pytest.raises(ValueError):
            check_standard_language(Z2StandardWords(), ball8)

    @pytest.mark.parametrize(
        "language,radius",
        [
            (CkStandardWords(), 8),
            (CkStandardWords(), 12),
            (Z2StandardWords(), 10),
            (TruncatedLanguage(CkStandardWords(), 6), 8),
            (TruncatedLanguage(CkStandardWords(), 10), 12),
            (TruncatedLanguage(Z2StandardWords(), 7), 10),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_prefix_failures_match_materialized_prefixes(self, language, radius):
        words = set(language.words(radius))
        prefixes = {w[:i] for w in words for i in range(len(w))}
        expected = [
            format_word(w)
            for w in sorted(words, key=word_sort_key)
            if len(w) < radius and w not in prefixes
        ]
        rep = check_standard_language(language, build_ball(language.model, radius))
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

    def test_last_letter_horizon_guard(self, ball8):
        # Past the ball's reach, and below 1, where the check would be vacuous.
        for max_distance in (8, 0, -3):
            with pytest.raises(ValueError):
                check_last_letter(ball8, max_distance=max_distance)

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


# References for the per-state checks: the multiply-based versions they
# replaced, kept verbatim apart from the sort, which is the old lambda.


def _rows(ball):
    return sorted(ball.distances.items(), key=lambda kv: (kv[1], kv[0]))


def _reference_dead_ends(ball, *, deep=False):
    model = get_model(ball.model)
    horizon = ball.radius - 1
    candidates = []
    checked = 0
    narrow_by_level = [0] * (horizon + 1) if deep else None
    for state, d in _rows(ball):
        if d > horizon:
            continue
        checked += 1
        ascending = 0
        state_obj = model.from_key(state)
        for letter in LETTERS:
            child_key = model.key(model.step(state_obj, letter))
            if ball.distances.get(child_key, -1) == d + 1:
                ascending += 1
        if ascending == 0:
            candidates.append(str(state))
        elif ball.model == "ck" and is_dead_end(Element(*state)):
            candidates.append(f"{state} (closed form disagrees)")
        if narrow_by_level is not None and ascending == 1:
            narrow_by_level[d] += 1
    notes = [f"states certified: {checked} (distance <= {horizon})"]
    if narrow_by_level is not None:
        notes.append(f"states with a unique ascent, by level: {narrow_by_level}")
    return AuditReport(
        model=ball.model,
        radius=ball.radius,
        standard_words_checked=checked,
        geodesic_failures=(),
        prefix_failures=(),
        dead_end_candidates=tuple(candidates),
        notes=tuple(notes),
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


def _reference_last_letter(ball, *, max_distance=None):
    horizon = ball.radius - 1 if max_distance is None else max_distance
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


def _tampered(ball, key, delta):
    """The ball with one state's distance shifted by ``delta``."""
    distances = dict(ball.distances)
    distances[key] += delta
    return dataclasses.replace(ball, distances=distances)


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

    def test_dead_ends(self, balls):
        ball, tampered = balls
        for deep in (False, True):
            rep = audit_dead_ends(ball, deep=deep)
            assert rep.to_dict() == _reference_dead_ends(ball, deep=deep).to_dict()
            assert bool(rep.dead_end_candidates) == tampered

    def test_continuation_rules(self, balls):
        ball, tampered = balls
        rep = check_continuation_rules(ball)
        assert rep.to_dict() == _reference_continuation_rules(ball).to_dict()
        assert bool(rep.failures) == tampered

    def test_last_letter(self, balls):
        ball, tampered = balls
        rep = check_last_letter(ball)
        assert rep.to_dict() == _reference_last_letter(ball).to_dict()
        assert bool(rep.failures) == tampered
        for horizon in (1, 5, ball.radius - 1):
            rep = check_last_letter(ball, max_distance=horizon)
            ref = _reference_last_letter(ball, max_distance=horizon)
            assert rep.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("name", ["klein", "z2"])
    def test_dead_ends_other_models(self, name):
        ball = build_ball(name, 8)
        tampered = _tampered(ball, (1, 2), 1)
        for b in (ball, tampered):
            for deep in (False, True):
                assert audit_dead_ends(b, deep=deep).to_dict() == (
                    _reference_dead_ends(b, deep=deep).to_dict()
                )
        assert audit_dead_ends(tampered).dead_end_candidates
