"""The three group models of the brute-force oracle.

A :class:`GroupModel` is one right-neighbour rule: ``neighbors(s)`` returns
s·a, s·A, s·b, s·B (``LETTERS`` order) for a state s, a plain integer tuple
laid out as ``state_fields``.  ``step`` and ``evaluate`` follow from it.

* ``CK`` — the central extension itself, states (k, m, n);
* ``KLEIN`` — the quotient by the centre (Klein bottle group), states (m, n)
  with the b-direction twisted by the parity of n;
* ``ZSQUARED`` — the free abelian control, states (m, n) untwisted.

Every model satisfies, for all states s and letters x:
``step(step(s, x), x⁻¹) == s`` (steps are invertible) and
``step(identity, x) != identity`` (no generator fixes the identity).
"""

from __future__ import annotations

from .core import IDENTITY, evaluate, right_neighbors
from .words import LETTERS, Letter, Word

State = tuple[int, ...]


class GroupModel:
    """Transition-system view of a group with generators a, b."""

    name: str = "abstract"
    identity: State = ()
    #: CSV/JSON field names for a state's coordinates.
    state_fields: tuple[str, ...] = ()

    def neighbors(self, state: State) -> tuple[State, State, State, State]:
        """s·a, s·A, s·b, s·B for a state s, in ``LETTERS`` order."""
        raise NotImplementedError

    def step(self, state: State, letter: Letter) -> State:
        """Right-multiply a state by one generator letter."""
        return self.neighbors(state)[LETTERS.index(letter)]

    def evaluate(self, w: Word) -> State:
        """Fold a whole word from the identity."""
        state = self.identity
        for c in w:
            state = self.step(state, c)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GroupModel {self.name}>"


class _CkModel(GroupModel):
    name = "ck"
    identity = IDENTITY
    state_fields = ("k", "m", "n")

    neighbors = staticmethod(right_neighbors)
    evaluate = staticmethod(evaluate)


class _KleinModel(GroupModel):
    """Quotient of CK by its centre: b-steps twist with the parity of n."""

    name = "klein"
    identity = (0, 0)
    state_fields = ("m", "n")

    def neighbors(self, state: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        m, n = state
        s = -1 if n & 1 else 1
        return (m, n + 1), (m, n - 1), (m + s, n), (m - s, n)


class _ZSquaredModel(GroupModel):
    """Free abelian control: generators commute, no twist anywhere."""

    name = "z2"
    identity = (0, 0)
    state_fields = ("m", "n")

    def neighbors(self, state: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        m, n = state
        return (m, n + 1), (m, n - 1), (m + 1, n), (m - 1, n)


CK = _CkModel()
KLEIN = _KleinModel()
ZSQUARED = _ZSquaredModel()

MODELS: dict[str, GroupModel] = {model.name: model for model in (CK, KLEIN, ZSQUARED)}


def get_model(name: str) -> GroupModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {', '.join(sorted(MODELS))}"
        ) from None
