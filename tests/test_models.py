import itertools
import random

import pytest

from ckgeo.core import GENERATORS, Element, multiply, right_neighbors
from ckgeo.models import CK, KLEIN, MODELS, ZSQUARED, get_model
from ckgeo.words import LETTERS

SEED = 77


class TestRegistry:
    def test_names(self):
        assert set(MODELS) == {"ck", "klein", "z2"}
        assert get_model("ck") is CK
        assert get_model("klein") is KLEIN
        assert get_model("z2") is ZSQUARED

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            get_model("so3")


class TestStepContract:
    @pytest.mark.parametrize("model", [CK, KLEIN, ZSQUARED], ids=lambda m: m.name)
    def test_inverse_letters_cancel(self, model):
        rng = random.Random(SEED)
        for _ in range(500):
            state = model.identity
            for _ in range(rng.randrange(12)):
                state = model.step(state, rng.choice(LETTERS))
            for letter in LETTERS:
                back = model.step(model.step(state, letter), letter.swapcase())
                assert back == state

    @pytest.mark.parametrize("model", [CK, KLEIN, ZSQUARED], ids=lambda m: m.name)
    def test_no_letter_fixes_a_state(self, model):
        for letter in LETTERS:
            assert model.step(model.identity, letter) != model.identity


class TestCkModel:
    def test_step_is_generator_multiplication(self):
        rng = random.Random(SEED + 1)
        for _ in range(300):
            g = Element(rng.randrange(-8, 9), rng.randrange(-8, 9), rng.randrange(-8, 9))
            for letter in LETTERS:
                assert CK.step(g, letter) == multiply(g, GENERATORS[letter])

    def test_evaluate_matches_core(self):
        from ckgeo.core import evaluate

        assert CK.evaluate("abAb") == evaluate("abAb") == Element(1, 0, 0)


class TestQuotients:
    def test_klein_twist(self):
        # b-steps flip direction after an odd number of a-steps.
        assert KLEIN.evaluate("ab") == (-1, 1)
        assert KLEIN.evaluate("ba") == (1, 1)
        assert KLEIN.evaluate("abab") == (0, 2)

    def test_z2_is_abelian(self):
        assert ZSQUARED.evaluate("ab") == ZSQUARED.evaluate("ba") == (1, 1)
        assert ZSQUARED.evaluate("abAB") == (0, 0)

    def test_klein_neighbors_project_ck_neighbors(self):
        # Pins the twist: forgetting k maps each ck neighbour to the Klein one.
        for k, m, n in itertools.product(range(-6, 7), repeat=3):
            assert KLEIN.neighbors((m, n)) == tuple(h[1:] for h in right_neighbors((k, m, n)))

    def test_klein_vs_ck_projection(self):
        from references import project_to_klein

        rng = random.Random(SEED + 2)
        for _ in range(200):
            w = "".join(rng.choice(LETTERS) for _ in range(rng.randrange(25)))
            assert KLEIN.evaluate(w) == project_to_klein(CK.evaluate(w))
