"""Tests for the closest-string front end."""

from __future__ import annotations

import logging
import random

import pytest

import nfold.closest_string as closest_string
from nfold.closest_string import (
    ColumnType,
    build_ilp,
    decide_distance,
    extract_column_types,
    hamming,
    solve_closest,
)

from helpers import (
    closest_string_full_enumeration,
    closest_string_reference,
    random_strings,
)


# ---------------------------------------------------------------------------
# column grouping


def test_column_types_split_on_disagreement():
    types = extract_column_types(["aa", "ab"])
    assert len(types) == 2
    assert types[0] == ColumnType(pattern=(0, 0), columns=(0,))
    assert types[1] == ColumnType(pattern=(0, 1), columns=(1,))


def test_identical_strings_collapse_to_one_type():
    types = extract_column_types(["abca", "abca", "abca"])
    assert len(types) == 1
    assert types[0].pattern == (0, 0, 0)
    assert types[0].columns == (0, 1, 2, 3)
    assert types[0].count == 4
    assert types[0].groups == 1


def test_letters_are_forgotten_only_agreement_matters():
    # Both columns of {ab, ba} read "two distinct letters", so they share
    # a pattern even though the actual letters are swapped.
    types = extract_column_types(["ab", "ba"])
    assert len(types) == 1
    assert types[0].pattern == (0, 1)
    assert types[0].count == 2
    assert types[0].groups == 2


def test_three_rows_mixed_patterns():
    types = extract_column_types(["abc", "bbc", "abc"])
    # col 0: a,b,a -> (0,1,0); col 1: b,b,b -> (0,0,0); col 2: c,c,c.
    patterns = [t.pattern for t in types]
    assert patterns == [(0, 1, 0), (0, 0, 0)]
    assert types[1].columns == (1, 2)


def test_column_types_validation():
    with pytest.raises(ValueError):
        extract_column_types([])
    with pytest.raises(ValueError):
        extract_column_types(["ab", "abc"])


# ---------------------------------------------------------------------------
# hamming


def test_hamming_counts_mismatches():
    assert hamming("abc", "abc") == 0
    assert hamming("abc", "abd") == 1
    assert hamming("aaa", "bbb") == 3


def test_hamming_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        hamming("ab", "abc")


# ---------------------------------------------------------------------------
# compilation


def test_build_ilp_shape():
    strings = ["aa", "bb"]
    inst, types = build_ilp(strings, 1)
    k = 2
    # one brick per type plus one slack brick per row
    assert inst.n == len(types) + k
    assert inst.r == k
    assert inst.b_up == (1,) * k
    # slack brick of row i: columns (e_i, 0), budget d
    assert inst.t[-k:] == (2,) * k
    assert inst.b_low[-k:] == (1,) * k
    assert inst.blocks[-k:] == (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    # type bricks spend exactly their column count
    for ctype, width, budget in zip(types, inst.t[:-k], inst.b_low[:-k]):
        assert width == ctype.groups
        assert budget == ctype.count


def test_build_ilp_mismatch_flags():
    # {ab, ba} has one type with pattern (0, 1): picking group 0 mismatches
    # row 1 and picking group 1 mismatches row 0.
    inst, types = build_ilp(["ab", "ba"], 1)
    assert types[0].pattern == (0, 1)
    assert inst.blocks[0] == ((0, 1), (1, 0))


def test_build_ilp_rejects_negative_distance():
    with pytest.raises(ValueError):
        build_ilp(["ab"], -1)


# ---------------------------------------------------------------------------
# decision procedure


def test_decide_distance_frozen_pair():
    strings = ["aa", "bb"]
    center = decide_distance(strings, 1)
    assert center is not None
    assert max(hamming(center, s) for s in strings) <= 1
    assert decide_distance(strings, 0) is None


def test_decide_distance_zero_needs_identical_strings():
    assert decide_distance(["abab", "abab"], 0) == "abab"


# ---------------------------------------------------------------------------
# end-to-end radius


def test_single_string_has_radius_zero():
    radius, center = solve_closest(["abca"])
    assert radius == 0
    assert center == "abca"


def test_two_strings_radius_is_half_their_distance():
    # aab and abb differ in one position, so either input is a center.
    radius, center = solve_closest(["aab", "abb"])
    assert radius == 1
    assert max(hamming(center, s) for s in ["aab", "abb"]) == 1


def test_opposite_strings():
    strings = ["aaaa", "bbbb"]
    radius, center = solve_closest(strings)
    assert radius == 2
    assert max(hamming(center, s) for s in strings) == 2


def test_search_logs_its_bracket(caplog):
    # half of 4 up to 4: radius 3, then 2, is feasible
    with caplog.at_level(logging.DEBUG, logger="nfold.closest_string"):
        assert solve_closest(["aaaa", "bbbb"])[0] == 2
    assert [rec.getMessage() for rec in caplog.records
            if rec.levelno == logging.DEBUG] == [
        "closest string bracket [2, 4]: 2 guesses decided"]


def test_solve_closest_rejects_empty_input():
    with pytest.raises(ValueError):
        solve_closest([])


def test_restricted_enumeration_matches_full_alphabet():
    # Trying only letters that occur in each column is lossless; spot-check
    # the reference against unrestricted enumeration on small inputs.
    rng = random.Random(1811)
    for _ in range(15):
        k = rng.randint(1, 3)
        length = rng.randint(1, 4)
        strings = ["".join(rng.choice("ab") for _ in range(length))
                   for _ in range(k)]
        assert (closest_string_reference(strings)
                == closest_string_full_enumeration(strings, "abc"))


def test_random_instances_match_reference():
    rng = random.Random(2707)
    for _ in range(60):
        k = rng.randint(1, 4)
        length = rng.randint(1, 6)
        alphabet = "abc"[: rng.randint(1, 3)]
        strings = ["".join(rng.choice(alphabet) for _ in range(length))
                   for _ in range(k)]
        radius, center = solve_closest(strings)
        assert radius == closest_string_reference(strings)
        assert max(hamming(center, s) for s in strings) == radius


def test_solve_closest_decides_only_inside_the_bracket(monkeypatch):
    """Every decided radius lies between half the largest pairwise
    distance and the smallest radius of an input string, and the center
    returned is one that ``decide_distance`` built."""
    decide = closest_string.decide_distance
    rng = random.Random(3109)
    for _ in range(60):
        strings = random_strings(rng)
        far = [max(hamming(s, t) for t in strings) for s in strings]
        built = []

        def wrapped(strings, d, lo=-(-max(far) // 2), hi=min(far)):
            assert lo <= d <= hi, (strings, d)
            built.append(decide(strings, d))
            return built[-1]

        monkeypatch.setattr(closest_string, "decide_distance", wrapped)
        radius, center = solve_closest(strings)
        assert center in built
        assert radius == closest_string_reference(strings)
        assert max(hamming(center, s) for s in strings) == radius
