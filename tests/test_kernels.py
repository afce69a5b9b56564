import hashlib
from itertools import accumulate

import pytest

from ckgeo import kernels, oracle
from ckgeo.errors import BallBudgetError, GeodesicCapError


class TestDispatch:
    def test_active_backend_label(self):
        assert kernels.BACKEND == "pure"

    def test_load_by_name(self):
        assert kernels.load_backend("pure") is kernels

    def test_unknown_backend(self):
        for name in ("compiled", "gpu"):
            with pytest.raises(ImportError):
                kernels.load_backend(name)


class TestPureKernels:
    def test_ball_levels(self):
        dist, levels = kernels.ck_ball(4)
        assert levels == [1, 4, 12, 30, 58]
        assert len(dist) == sum(levels)

    def test_budget(self):
        with pytest.raises(BallBudgetError):
            kernels.ck_ball(8, max_states=50)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            kernels.ck_ball(-2)

    def test_geodesics(self):
        dist, _ = kernels.ck_ball(4)
        assert kernels.ck_geodesics(dist, (1, 0, 0)) == ["abAb", "Abab", "babA", "bAba"]


def _reference_geodesics(dist, target, cap=100_000):
    """The recursive DFS the level enumeration replaced: peel letters off the
    left in canonical order, one distance level per step, one word per leaf."""
    try:
        total = dist[target]
    except KeyError:
        raise ValueError(f"target {target} not covered by the ball") from None
    out = []
    prefix = []

    def descend(g, remaining):
        if remaining == 0:
            if len(out) >= cap:
                raise GeodesicCapError(
                    f"geodesic enumeration for {target} exceeded cap={cap}"
                )
            out.append("".join(prefix))
            return
        k, m, n = g
        for letter, h in (
            ("a", (k + m, -m, n - 1)),
            ("A", (k + m, -m, n + 1)),
            ("b", (k, m - 1, n)),
            ("B", (k, m + 1, n)),
        ):
            if dist.get(h, -1) == remaining - 1:
                prefix.append(letter)
                descend(h, remaining - 1)
                prefix.pop()

    descend(target, total)
    return out


class TestLevelEnumeration:
    """The pure ``ck_geodesics`` against the recursive DFS it replaced."""

    @pytest.fixture(scope="class")
    def dist10(self):
        return kernels.ck_ball(10)[0]

    def test_matches_reference_on_ball(self, dist10):
        for key in dist10:
            assert kernels.ck_geodesics(dist10, key) == _reference_geodesics(dist10, key), key

    def test_cap_boundary(self, dist10):
        for key, d in dist10.items():
            if d > 8:
                continue
            words = _reference_geodesics(dist10, key)
            count = len(words)
            assert kernels.ck_geodesics(dist10, key, count) == words
            with pytest.raises(GeodesicCapError) as ours:
                kernels.ck_geodesics(dist10, key, count - 1)
            with pytest.raises(GeodesicCapError) as theirs:
                _reference_geodesics(dist10, key, count - 1)
            assert str(ours.value) == str(theirs.value)
            assert str(ours.value) == (
                f"geodesic enumeration for {key} exceeded cap={count - 1}"
            )

    def test_identity(self, dist10):
        assert kernels.ck_geodesics(dist10, (0, 0, 0)) == [""]

    def test_uncovered_target(self, dist10):
        with pytest.raises(ValueError, match="not covered"):
            kernels.ck_geodesics(dist10, (40, 0, 0))


# The ``kernels`` workload's 100 enumeration targets at seed 1 (states of the
# radius-40 ball with at most 20,000 geodesics, one per cost class).
KERNELS_SEED1_TARGETS = [
    (-33, 39, 1), (-27, 24, -1), (23, -10, -1), (-20, 6, -1), (18, -29, 1), (15, 4, 1),
    (13, 0, 1), (11, 4, 1), (-9, -16, 1), (-8, 28, -1), (6, -5, 1), (-4, -27, -1),
    (3, -8, 1), (1, 35, 1), (0, -23, 0), (30, -31, 2), (27, -25, -2), (-24, 21, 2),
    (-33, 37, -2), (26, -31, -2), (-1, 3, -3), (-26, 23, 0), (-1, 8, -2), (-24, 20, 0),
    (0, 3, 4), (-20, 15, 0), (22, -34, 2), (-14, 1, -2), (-4, -10, 2), (7, 8, 2),
    (22, -14, 0), (-20, 2, 2), (9, 10, -2), (0, -2, 10), (-12, 34, 2), (3, -1, 4),
    (8, -20, 0), (-9, 22, 0), (9, -7, 3), (-11, -4, 0), (-4, 20, 0), (1, 34, -2),
    (-6, -13, 0), (5, 16, 0), (4, 19, 0), (-10, 36, 0), (3, -31, 0), (6, -37, 0),
    (23, -22, 4), (2, -28, 3), (-30, 29, -4), (1, -5, 6), (-4, 27, 3), (8, -22, 3),
    (4, -1, 5), (-20, 13, 3), (1, 11, -4), (2, 1, -7), (-9, 30, -3), (7, -36, 3),
    (-17, 31, -3), (-1, 2, 33), (18, -34, 3), (25, -25, -5), (3, 0, 7), (-11, 9, -5),
    (3, 6, 5), (-6, -6, -4), (25, -19, -4), (19, -18, 6), (-7, -7, 4), (-8, -6, 4),
    (-2, -5, 7), (0, -18, -7), (-10, -5, 4), (-22, 20, 5), (12, -9, 6), (9, -9, -12),
    (13, -12, -7), (1, -3, 32), (14, -13, -7), (-30, 28, -5), (13, -33, 4), (-3, 28, 5),
    (-8, 36, 4), (3, -4, 23), (-2, 17, -6), (1, -7, 12), (5, -5, -25), (-6, 12, 7),
    (8, -9, 11), (1, -25, 6), (25, -31, -5), (3, -4, 30), (16, -27, -5), (-2, 7, -13),
    (4, -20, -6), (12, -9, 8), (-4, 1, -13), (-1, 4, 34),
]

# States of the radius-40 ball at distance 20-40, odd and even, with 14-1,300
# geodesics: two detour elements (n = 0) and two with long a-runs among them.
LONG_TARGETS = [
    (-5, -6, -4), (2, 12, 5), (1, 19, 0), (4, -21, 4), (-13, 22, 4),
    (-1, 1, -28), (-14, 0, 0), (3, -27, -4), (24, -28, 4), (-1, 1, -35),
    (30, -33, -4), (18, -35, -3), (-29, 23, -4), (15, 7, 3),
]


class TestLongTargets:
    """Deep splits: targets whose prefix and suffix halves are both long."""

    @pytest.fixture(scope="class")
    def dist40(self):
        return kernels.ck_ball(40)[0]

    def test_matches_reference_on_long_targets(self, dist40):
        lengths = {dist40[t] for t in LONG_TARGETS}
        assert min(lengths) >= 20
        assert {d % 2 for d in lengths} == {0, 1}
        for t in LONG_TARGETS:
            assert kernels.ck_geodesics(dist40, t) == _reference_geodesics(dist40, t), t

    def test_golden_digest_of_kernels_workload_targets(self, dist40):
        # Recorded with the enumeration that built every state's word list
        # bottom-up, before the words met in the middle.
        lists = [kernels.ck_geodesics(dist40, t, 20_000) for t in KERNELS_SEED1_TARGETS]
        assert sum(map(len, lists)) == 197_582
        text = "\n".join(" ".join(words) for words in lists)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "240fa7c6c1af487288611a986847fde70191f82cef1d2caa634b72b8e5d357eb"
        )


def _outcome(build, *args):
    """A ball as (distances, level sizes), or its budget error's three fields."""
    try:
        dist, levels = build(*args)
    except BallBudgetError as exc:
        return str(exc), exc.states, exc.levels_completed
    return dist, tuple(levels)


def _build_ball(model, radius, max_states):
    ball = oracle.build_ball(model, radius, max_states=max_states)
    return ball.distances, ball.frontier_sizes


class TestBallSize:
    @pytest.mark.parametrize("model, radius", [("ck", 30), ("klein", 60), ("z2", 60)])
    def test_matches_bfs_levels(self, model, radius):
        _, levels = getattr(kernels, f"{model}_ball")(radius)
        sizes = [kernels.ball_size(model, r) for r in range(radius + 1)]
        assert list(accumulate(levels)) == sizes

    def test_values(self):
        assert [kernels.ball_size("ck", r) for r in range(4)] == [1, 5, 17, 47]
        assert kernels.ball_size("ck", 114) == 2_000_785
        assert kernels.ball_size("klein", 400) == kernels.ball_size("z2", 400) == 320_801

    def test_rejects_negative_radius_and_unknown_model(self):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            kernels.ball_size("ck", -1)
        with pytest.raises(ValueError):
            kernels.ball_size("free", 3)

    @pytest.mark.parametrize("model", ["ck", "klein", "z2"])
    def test_build_ball_matches_kernel_around_every_boundary(self, model):
        kernel = getattr(kernels, f"{model}_ball")
        budgets = {-1, 0} | {
            kernels.ball_size(model, d) + e for d in range(8) for e in (-1, 0, 1)
        }
        for radius in range(9):
            for max_states in sorted(budgets):
                assert _outcome(_build_ball, model, radius, max_states) == _outcome(
                    kernel, radius, max_states
                ), (radius, max_states)

    def test_over_budget_is_decided_before_any_search(self, monkeypatch):
        def no_search(radius, max_states):
            raise AssertionError("the BFS ran")

        monkeypatch.setitem(oracle._KERNEL_BUILDERS, "ck", no_search)
        with pytest.raises(BallBudgetError) as err:
            oracle.build_ball("ck", 1000)
        assert str(err.value) == (
            "ball construction exceeded max_states=2000000 at radius 114"
        )
        assert (err.value.states, err.value.levels_completed) == (2_000_785, 113)
