import hashlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ckgeo.core import Element, lattice_path
from ckgeo.geodesics import std_rep
from ckgeo.render import RenderSpec, _run_ends, render_svg, write_svg
from ckgeo.words import parse_word

GOLDEN = Path(__file__).parent / "golden"


def full_spec(word):
    return RenderSpec(word=word, show_cells=True, show_young=True)


class TestGolden:
    @pytest.mark.parametrize(
        "element,name",
        [
            (Element(-4, 2, 4), "std_m4_2_4.svg"),
            (Element(2, 1, 4), "std_2_1_4.svg"),
        ],
    )
    def test_byte_identical(self, element, name):
        svg = render_svg(full_spec(std_rep(element)))
        assert svg == (GOLDEN / name).read_text()


class TestShadingDigests:
    # Recorded with the per-cell edge sum the row sweep replaced.  The words
    # give drawings 6, 8, 17 and 5 cells high, and the last one steps back
    # along x, so one row holds vertical edges at several x.
    @pytest.mark.parametrize(
        "word,digest",
        [
            ("aBBBBaBBaa", "8398ea3a303b1fc8901783519b31de4ebfd85d69c3214a77a69cf05f5e740633"),
            ("b^7 a^2 B^3 a^5 b", "31a9b51b27aa646c2042d91306e3bafb80562ac67aa8ae15c6eff50d9f453832"),
            ("b^2 a^3 b^-6 a b^9 a^2", "96ec49056c573b21da08ae99abcb0556034b7936aa626a19c0a3962b8c870d55"),
            ("a^3 b^-5 A^2 b^3 a^4 b^-2", "6cab1aae0c3f9e75b00341df66fa8c636099e84013eec82214155745204c04b7"),
        ],
    )
    def test_young_cells_digest(self, word, digest):
        svg = render_svg(full_spec(parse_word(word)))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


class TestDeterminism:
    def test_repeated_renders_identical(self):
        spec = full_spec("aBBBBaBBaa")
        assert render_svg(spec) == render_svg(spec)

    def test_cell_size_changes_output(self):
        w = std_rep(Element(2, 1, 4))
        small = render_svg(RenderSpec(word=w, cell_size=12))
        big = render_svg(RenderSpec(word=w, cell_size=48))
        assert small != big

    def test_write_svg_round_trip(self, tmp_path):
        spec = full_spec(std_rep(Element(-4, 2, 4)))
        out = tmp_path / "pic.svg"
        write_svg(spec, str(out))
        assert out.read_text() == render_svg(spec)


class TestLayers:
    def test_young_layer_shades_deviation_cells(self):
        svg = render_svg(full_spec("aBBBBaBBaa"))
        assert svg.count("#ffd97a") == 4

    def test_standard_word_shades_nothing(self):
        svg = render_svg(full_spec(std_rep(Element(-4, 2, 4))))
        assert svg.count("#ffd97a") == 0
        assert svg.count("stroke-dasharray") == 1

    def test_layers_are_optional(self):
        w = std_rep(Element(2, 1, 4))
        bare = render_svg(RenderSpec(word=w))
        assert "#ffd97a" not in bare
        assert "stroke-dasharray" not in bare

    def test_young_layer_requires_normalized_element(self):
        with pytest.raises(ValueError):
            render_svg(RenderSpec(word="B", show_young=True))

    def test_integer_geometry_only(self):
        import re

        svg = render_svg(full_spec("aBBBBaBBaa"))
        for attr in ("x", "y", "cx", "cy", "r", "width", "height", "x1", "y1", "x2", "y2"):
            for value in re.findall(rf'\b{attr}="([^"]+)"', svg):
                assert re.fullmatch(r"-?\d+", value), (attr, value)


class TestStructure:
    def test_contains_path_and_markers(self):
        svg = render_svg(RenderSpec(word="abAb"))
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert svg.count("<circle") >= 2
        assert "<title>a b a^-1 b</title>" in svg

    def test_empty_word_renders(self):
        svg = render_svg(RenderSpec(word=""))
        assert "<title>e</title>" in svg

    def test_minimum_cell_size_enforced(self):
        with pytest.raises(ValueError):
            RenderSpec(word="ab", cell_size=1)
        render_svg(RenderSpec(word="ab", cell_size=4))


class TestBudgetBox:
    @given(st.text(alphabet="aAbB", max_size=40))
    def test_run_ends_span_the_path(self, w):
        xs, ys = _run_ends(w)
        points = lattice_path(w)
        assert (min(xs), max(xs), min(ys), max(ys)) == (
            min(p.x for p in points),
            max(p.x for p in points),
            min(p.y for p in points),
            max(p.y for p in points),
        )
