import pytest

from ckgeo import kernels
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
