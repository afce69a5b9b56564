import random

import pytest
from hypothesis import given, strategies as st

from ckgeo.errors import ParseError
from ckgeo.words import (
    EXPONENT_CAP,
    LETTERS,
    format_word,
    free_reduce,
    parse_word,
    sort_words,
    syllables,
    word_sort_key,
)
from references import (
    LetterMapKind,
    apply_letter_map,
    cyclic_shifts,
    is_reduced,
    word_inverse,
)

words_st = st.text(alphabet=LETTERS, max_size=60)


def _reference_syllables(w):
    """Run-length view built letter by letter, the reference for
    ``syllables`` and ``format_word``, which read whole runs."""
    bases = {"a": "a", "A": "a", "b": "b", "B": "b"}
    out = []
    for c in w:
        if c not in bases:
            raise ValueError(f"not a letter: {c!r}")
        base = bases[c]
        step = 1 if c.islower() else -1
        if out and out[-1][0] == base and (out[-1][1] > 0) == (step > 0):
            out[-1] = (base, out[-1][1] + step)
        else:
            out.append((base, step))
    return out


def _reference_format(w):
    parts = [base if e == 1 else f"{base}^{e}" for base, e in _reference_syllables(w)]
    return " ".join(parts) or "e"


class TestParse:
    def test_plain_letters(self):
        assert parse_word("abAB") == "abAB"

    def test_exponents_expand(self):
        assert parse_word("a^3 b^-2") == "aaaBB"
        assert parse_word("b^-1") == "B"

    def test_uppercase_is_inverse(self):
        assert parse_word("A^2") == "AA"
        # An exponent on an uppercase letter composes: (a^-1)^-2 = a^2.
        assert parse_word("A^-2") == "aa"

    def test_empty_forms(self):
        assert parse_word("") == ""
        assert parse_word("e") == ""
        assert parse_word("  e  ") == ""

    def test_whitespace_ignored(self):
        assert parse_word(" a  b\tA\nB ") == "abAB"

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_word("ab x ba")
        assert exc.value.position == 3
        assert "position 3" in str(exc.value)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_word("a^0")

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            parse_word(f"a^{EXPONENT_CAP + 1}")
        # At the cap itself the word is accepted.
        assert len(parse_word(f"a^{EXPONENT_CAP}")) == EXPONENT_CAP


class TestFormat:
    def test_syllable_grouping(self):
        assert format_word("BBaBBBBaaa") == "b^-2 a b^-4 a^3"
        assert format_word("abAb") == "a b a^-1 b"

    def test_empty_is_e(self):
        assert format_word("") == "e"

    def test_round_trip(self):
        for text in ("abAb", "BBaBBBBaaa", "aaaa", ""):
            assert parse_word(format_word(text)) == text

    @given(words_st)
    def test_round_trip_random(self, w):
        assert parse_word(format_word(w)) == w


def _stack_reduce(w):
    """Reference free reduction: one stack pass, no fast path."""
    stack = []
    for c in w:
        if stack and stack[-1] == c.swapcase():
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


class TestReduce:
    def test_simple_cancellation(self):
        assert free_reduce("aA") == ""
        assert free_reduce("abBA") == ""
        assert free_reduce("abBa") == "aa"

    def test_cascading_cancellation(self):
        assert free_reduce("abbBBA") == ""

    def test_is_reduced(self):
        assert is_reduced("abab")
        assert not is_reduced("abBa")
        assert is_reduced("")

    def test_is_reduced_on_non_letters(self):
        # A non-letter next to its case swap cancels like a letter pair.
        assert not is_reduced("xX")
        assert not is_reduced("abxXab")
        assert is_reduced("axb")
        assert not is_reduced("axbB")

    @given(words_st)
    def test_reduce_is_idempotent(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert is_reduced(r)

    @given(words_st)
    def test_inverse_cancels(self, w):
        assert free_reduce(w + word_inverse(w)) == ""
        assert free_reduce(word_inverse(w) + w) == ""

    @given(words_st)
    def test_matches_stack_reference(self, w):
        reduced = _stack_reduce(w)
        assert free_reduce(w) == reduced
        assert free_reduce(reduced) == reduced

    @given(words_st, st.characters().filter(lambda c: c not in LETTERS), st.integers(min_value=0))
    def test_bad_letter_raises(self, w, junk, where):
        i = where % (len(w) + 1)
        with pytest.raises(ValueError, match="not a letter"):
            free_reduce(w[:i] + junk + w[i:])

    def test_word_inverse(self):
        assert word_inverse("abAB") == "baBA"
        assert word_inverse("") == ""


class TestSyllables:
    def test_split_and_join(self):
        assert syllables("aaBBB") == [("a", 2), ("b", -3)]

    def test_empty(self):
        assert syllables("") == []

    @given(words_st)
    def test_matches_per_letter_reference(self, w):
        assert syllables(w) == _reference_syllables(w)
        assert format_word(w) == _reference_format(w)

    @given(words_st, st.characters().filter(lambda c: c not in LETTERS), st.integers(min_value=0))
    def test_bad_letter_message_matches_reference(self, w, junk, where):
        i = where % (len(w) + 1)
        w = w[:i] + junk + w[i:]
        with pytest.raises(ValueError) as expected:
            _reference_syllables(w)
        for call in (syllables, format_word):
            with pytest.raises(ValueError) as got:
                call(w)
            assert str(got.value) == str(expected.value) == f"not a letter: {junk!r}"


class TestLetterMaps:
    def test_flip_a(self):
        assert apply_letter_map(LetterMapKind.FLIP_A, "abAB") == "AbaB"

    def test_flip_both_is_swapcase(self):
        w = "aabBAB"
        assert apply_letter_map(LetterMapKind.FLIP_BOTH, w) == w.swapcase()

    @given(words_st)
    def test_involutions(self, w):
        for kind in LetterMapKind:
            assert apply_letter_map(kind, apply_letter_map(kind, w)) == w

    @given(words_st)
    def test_flips_commute(self, w):
        ab = apply_letter_map(LetterMapKind.FLIP_A, apply_letter_map(LetterMapKind.FLIP_BOTH, w))
        ba = apply_letter_map(LetterMapKind.FLIP_BOTH, apply_letter_map(LetterMapKind.FLIP_A, w))
        assert ab == ba


class TestCyclicShifts:
    def test_all_rotations(self):
        assert cyclic_shifts("abA") == ["abA", "bAa", "Aab"]

    def test_empty_word(self):
        assert cyclic_shifts("") == [""]

    def test_count(self):
        assert len(cyclic_shifts("abAb")) == 4


class TestSortKey:
    def test_letter_precedence(self):
        assert sorted(["B", "b", "A", "a"], key=word_sort_key) == ["a", "A", "b", "B"]

    def test_length_first(self):
        assert sorted(["bb", "a", "B"], key=word_sort_key) == ["a", "B", "bb"]

    def test_same_order_as_rank_tuples(self):
        rng = random.Random(65)
        # Short words collide on length often; random letters give unreduced
        # words too.
        words = ["".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 9))) for _ in range(2000)]
        rank = {c: i for i, c in enumerate(LETTERS)}
        by_tuple = sorted(words, key=lambda w: (len(w), tuple(rank[c] for c in w)))
        assert sorted(words, key=word_sort_key) == by_tuple
        assert sort_words(words) == by_tuple
