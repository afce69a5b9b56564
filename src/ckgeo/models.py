"""Pluggable group models for the brute-force oracle.

A :class:`GroupModel` is the minimal contract ball construction needs: an
identity state, a deterministic right-multiplication step per letter, and a
hashable canonical key.  Three models ship with the toolkit:

* ``CK`` — the central extension itself, states are normal-form triples;
* ``KLEIN`` — the quotient by the centre (Klein bottle group), states (m, n)
  with the b-direction twisted by the parity of n;
* ``ZSQUARED`` — the free abelian control, states (m, n) untwisted.

Every model must satisfy, for all states s and letters x:
``step(step(s, x), x⁻¹) == s`` (steps are invertible) and
``key(step(identity, x)) != key(identity)`` (no generator fixes the identity).
"""

from __future__ import annotations

from typing import Any, Hashable

from .core import GENERATORS, IDENTITY, Element, evaluate, multiply
from .words import Letter, Word

State = Any


class GroupModel:
    """Transition-system view of a group with generators a, b."""

    name: str = "abstract"
    identity: State = None
    #: CSV/JSON field names for a state, aligned with :meth:`state_values`.
    state_fields: tuple[str, ...] = ()

    def step(self, state: State, letter: Letter) -> State:
        """Right-multiply a state by one generator letter."""
        raise NotImplementedError

    def key(self, state: State) -> Hashable:
        """Hashable canonical form of a state (default: the state itself)."""
        return state

    def from_key(self, key: Hashable) -> State:
        """Rebuild a state from its canonical key (default: identity map)."""
        return key

    def state_values(self, state: State) -> tuple[int, ...]:
        """Integer coordinates of a state, aligned with :attr:`state_fields`."""
        raise NotImplementedError

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
    identity: Element = IDENTITY
    state_fields = ("k", "m", "n")

    def step(self, state: Element, letter: Letter) -> Element:
        return multiply(state, GENERATORS[letter])

    def evaluate(self, w: Word) -> Element:
        return evaluate(w)

    def from_key(self, key) -> Element:
        return Element(*key)

    def state_values(self, state: Element) -> tuple[int, ...]:
        return (state.k, state.m, state.n)


class _KleinModel(GroupModel):
    """Quotient of CK by its centre: b-steps twist with the parity of n."""

    name = "klein"
    identity: tuple[int, int] = (0, 0)
    state_fields = ("m", "n")

    def step(self, state: tuple[int, int], letter: Letter) -> tuple[int, int]:
        m, n = state
        if letter == "a":
            return (m, n + 1)
        if letter == "A":
            return (m, n - 1)
        s = 1 if letter == "b" else -1
        if n & 1:
            s = -s
        return (m + s, n)

    def state_values(self, state: tuple[int, int]) -> tuple[int, ...]:
        return state


class _ZSquaredModel(GroupModel):
    """Free abelian control: generators commute, no twist anywhere."""

    name = "z2"
    identity: tuple[int, int] = (0, 0)
    state_fields = ("m", "n")

    def step(self, state: tuple[int, int], letter: Letter) -> tuple[int, int]:
        m, n = state
        if letter == "a":
            return (m, n + 1)
        if letter == "A":
            return (m, n - 1)
        if letter == "b":
            return (m + 1, n)
        return (m - 1, n)

    def state_values(self, state: tuple[int, int]) -> tuple[int, ...]:
        return state


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
