import os
import subprocess
import sys

import pytest

from ckgeo import kernels
from ckgeo.errors import BallBudgetError, GeodesicCapError

PURE = kernels.load_backend("pure")
try:
    COMPILED = kernels.load_backend("compiled")
except ImportError:  # pragma: no cover - depends on build environment
    COMPILED = None

needs_compiled = pytest.mark.skipif(COMPILED is None, reason="compiled backend not built")


class TestDispatch:
    def test_active_backend_label(self):
        assert kernels.BACKEND in ("pure", "compiled")

    def test_load_by_name(self):
        assert PURE.BACKEND == "pure"

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            kernels.load_backend("gpu")

    def test_env_override_forces_pure(self):
        code = "import ckgeo.kernels as k; print(k.BACKEND)"
        env = dict(os.environ, CKGEO_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "pure"


class TestPureKernels:
    def test_ball_levels(self):
        dist, levels = PURE.ck_ball(4)
        assert levels == [1, 4, 12, 30, 58]
        assert len(dist) == sum(levels)

    def test_budget(self):
        with pytest.raises(BallBudgetError):
            PURE.ck_ball(8, max_states=50)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            PURE.ck_ball(-2)

    def test_geodesics(self):
        dist, _ = PURE.ck_ball(4)
        assert PURE.ck_geodesics(dist, (1, 0, 0)) == ["abAb", "Abab", "babA", "bAba"]


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
        return PURE.ck_ball(10)[0]

    def test_matches_reference_on_ball(self, dist10):
        for key in dist10:
            assert PURE.ck_geodesics(dist10, key) == _reference_geodesics(dist10, key), key

    def test_cap_boundary(self, dist10):
        for key, d in dist10.items():
            if d > 8:
                continue
            words = _reference_geodesics(dist10, key)
            count = len(words)
            assert PURE.ck_geodesics(dist10, key, count) == words
            with pytest.raises(GeodesicCapError) as ours:
                PURE.ck_geodesics(dist10, key, count - 1)
            with pytest.raises(GeodesicCapError) as theirs:
                _reference_geodesics(dist10, key, count - 1)
            assert str(ours.value) == str(theirs.value)
            assert str(ours.value) == (
                f"geodesic enumeration for {key} exceeded cap={count - 1}"
            )

    def test_identity(self, dist10):
        assert PURE.ck_geodesics(dist10, (0, 0, 0)) == [""]

    def test_uncovered_target(self, dist10):
        with pytest.raises(ValueError, match="not covered"):
            PURE.ck_geodesics(dist10, (40, 0, 0))


@needs_compiled
class TestTwinEquality:
    @pytest.mark.parametrize("radius", [0, 1, 3, 6, 9])
    def test_ck_ball(self, radius):
        dp, lp = PURE.ck_ball(radius)
        dc, lc = COMPILED.ck_ball(radius)
        assert lp == lc
        assert dp == dc

    @pytest.mark.parametrize("radius", [0, 1, 4, 8])
    def test_quotient_balls(self, radius):
        assert PURE.klein_ball(radius) == COMPILED.klein_ball(radius)
        assert PURE.z2_ball(radius) == COMPILED.z2_ball(radius)

    def test_geodesics_exhaustive_small(self):
        dp, _ = PURE.ck_ball(7)
        dc, _ = COMPILED.ck_ball(7)
        for key, d in dp.items():
            if d > 6:
                continue
            assert PURE.ck_geodesics(dp, key) == COMPILED.ck_geodesics(dc, key), key

    def test_compiled_guards(self):
        with pytest.raises(ValueError):
            COMPILED.ck_ball(-1)
        with pytest.raises(ValueError):
            COMPILED.ck_ball(2_000_000)

    def test_compiled_budget(self):
        with pytest.raises(BallBudgetError):
            COMPILED.ck_ball(8, max_states=50)
