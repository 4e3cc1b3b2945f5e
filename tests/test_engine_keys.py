"""Group and join key kernels against the sorting algorithm they replace.

``_group_codes``, ``ColumnarExecutor._join_key_codes`` and
``_hash_join_pairs`` code ``int`` and ``bool`` keys by direct
addressing when their span is small, and sort (``np.unique``,
``searchsorted``) otherwise.  The reference functions below are the
all-sorting versions, kept as the oracle: on every input both must
return byte-identical arrays (values and dtypes) — group codes and first
rows, join codes, and join pairs left-major with right matches in
ascending right position.  Inputs are NULL-rich and tie-rich: ``int``
(negative, spans exactly at the direct-addressing bound and one past
it, values around 2**40), ``bool``, ``str`` (also a dictionary far
larger than the rows) and ``float`` (NaN, -0.0) keys, one to three of
them, empty and all-NULL columns included.  Examples are derandomized.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.columnar import (
    EXACT_INT_BOUND,
    ColumnBatch,
    ColumnVector,
    _int_magnitude,
    concat_vectors,
    vector_from_typed,
)
from repro.engine.expressions import col
from repro.engine.operators import (
    ColumnarExecutor,
    _dense_bound,
    _group_codes,
    _hash_join_pairs,
    provider_from,
)

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- the reference: every key sorted -------------------------------------------


def _ref_factorize_python(vec: ColumnVector) -> Tuple[np.ndarray, int]:
    mapping: Dict[Any, int] = {}
    codes = np.empty(len(vec), dtype=np.int64)
    for i, v in enumerate(vec.to_pylist()):
        codes[i] = mapping.setdefault(v, len(mapping))
    return codes, max(len(mapping), 1)


def _ref_factorize(vec: ColumnVector) -> Tuple[np.ndarray, int]:
    if vec.kind == "str":
        size = len(vec.dictionary)
        return np.where(vec.valid, vec.values, size).astype(np.int64), size + 1
    if vec.kind not in ("bool", "int", "float"):
        return _ref_factorize_python(vec)
    if vec.kind == "int" and _int_magnitude(vec.values) > EXACT_INT_BOUND:
        return _ref_factorize_python(vec)
    values = vec.values.astype(np.float64)
    if vec.kind == "float" and bool(np.isnan(values).any()):
        return _ref_factorize_python(vec)
    safe = np.where(vec.valid, values, 0.0)
    uniq, inverse = np.unique(safe, return_inverse=True)
    inverse = inverse.reshape(-1)
    codes = np.where(vec.valid, inverse, len(uniq))
    return codes.astype(np.int64), len(uniq) + 1


def _ref_combine_codes(codes, sub, n_sub):
    _, combined = np.unique(codes * np.int64(n_sub) + sub, return_inverse=True)
    return combined.reshape(-1).astype(np.int64)


def ref_group_codes(key_vecs, n):
    codes = np.zeros(n, dtype=np.int64)
    for vec in key_vecs:
        sub, n_sub = _ref_factorize(vec)
        codes = _ref_combine_codes(codes, sub, n_sub)
    uniq, first_idx, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inverse], first_idx[order]


def ref_join_key_codes(lvecs, rvecs):
    n_left = len(lvecs[0])
    lnull = np.zeros(n_left, dtype=bool)
    rnull = np.zeros(len(rvecs[0]), dtype=bool)
    for i, (lv, rv) in enumerate(zip(lvecs, rvecs)):
        lnull |= ~lv.valid
        rnull |= ~rv.valid
        codes, n_sub = _ref_factorize(concat_vectors([lv, rv]))
        sub_l, sub_r = codes[:n_left], codes[n_left:]
        if i == 0:
            lcodes, rcodes = sub_l, sub_r
            continue
        both = _ref_combine_codes(
            np.concatenate([lcodes, rcodes]),
            np.concatenate([sub_l, sub_r]),
            n_sub,
        )
        lcodes, rcodes = both[:n_left], both[n_left:]
    return np.where(lnull, -1, lcodes), np.where(rnull, -2, rcodes)


def ref_hash_join_pairs(lcodes, rcodes):
    order = np.argsort(rcodes, kind="stable")
    sorted_rcodes = rcodes[order]
    starts = np.searchsorted(sorted_rcodes, lcodes, side="left")
    ends = np.searchsorted(sorted_rcodes, lcodes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    pair_left = np.repeat(np.arange(len(lcodes)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    pair_right = order[np.repeat(starts, counts) + offsets]
    return pair_left, pair_right


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype, (g.dtype, w.dtype)
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes(), (g, w)


# -- inputs ----------------------------------------------------------------------

#: How an int column's values spread: a few values near 0, a span exactly
#: at the direct-addressing bound or one past it, or values around 2**40.
SPREADS = ("small", "at_bound", "past_bound", "wide")
WIDE = (-(2 ** 40) - 3, -(2 ** 40), 2 ** 40, 2 ** 40 + 7, 2 ** 52)
STRINGS = ("", "a", "b", "ab", "é", "z")
FLOATS = (0.0, -0.0, 0.5, -1.5, 2.0, float("nan"))


@st.composite
def int_values(draw, n: int) -> List[Any]:
    """``n`` NULL-rich values for a key vector (or joint vector) of ``n``
    rows; the spread fixes the span the kernels see."""
    spread = draw(st.sampled_from(SPREADS))
    null = st.none()
    if spread == "wide":
        cell = st.one_of(null, st.sampled_from(WIDE))
        return draw(st.lists(cell, min_size=n, max_size=n))
    if spread == "small":
        lo = draw(st.integers(-4, 0))
        cell = st.one_of(null, null, st.integers(lo, lo + 5))
        return draw(st.lists(cell, min_size=n, max_size=n))
    span = _dense_bound(n) + (spread == "past_bound")
    # NULL slots read 0 to the kernels: keep 0 inside [lo, lo + span).
    lo = -draw(st.integers(0, span - 1))
    cell = st.one_of(null, st.integers(lo, lo + span - 1))
    values = draw(st.lists(cell, min_size=n, max_size=n))
    if n >= 2:
        # Pin both ends so the span is exact.
        i, j = draw(st.permutations(range(n)))[:2]
        values[i], values[j] = lo, lo + span - 1
    return values


@st.composite
def key_values(draw, kind: str, n: int) -> List[Any]:
    if kind == "int":
        return draw(int_values(n))
    palette = {"bool": (True, False), "str": STRINGS, "float": FLOATS}[kind]
    cell = st.one_of(st.none(), st.sampled_from(palette))
    return draw(st.lists(cell, min_size=n, max_size=n))


KINDS = st.sampled_from(["int", "int", "bool", "str", "float"])
_DTYPE = {"int": int, "bool": bool, "str": str, "float": float}


def _vector(kind: str, values: List[Any]) -> ColumnVector:
    return vector_from_typed(values, _DTYPE[kind])


@st.composite
def key_columns(draw, rows: int, sides: Tuple[int, ...]):
    """One to three keys; each key is one vector per entry of ``sides``
    (that many rows each), all of one kind, with ``rows`` rows in all."""
    kinds = draw(st.lists(KINDS, min_size=1, max_size=3))
    keys = []
    for kind in kinds:
        values = draw(key_values(kind, rows))
        if draw(st.integers(0, 9)) == 0:
            values = [None] * rows
        cuts = np.cumsum((0,) + sides).tolist()
        keys.append([
            _vector(kind, values[a:b]) for a, b in zip(cuts, cuts[1:])
        ])
    return keys


# -- properties ------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_group_codes_match_sorting(data):
    n = data.draw(st.integers(0, 40))
    keys = [side for (side,) in data.draw(key_columns(n, (n,)))]
    assert_identical(_group_codes(keys, n), ref_group_codes(keys, n))


@SETTINGS
@given(st.data())
def test_join_key_codes_match_sorting(data):
    n_left = data.draw(st.integers(0, 25))
    n_right = data.draw(st.integers(0, 25))
    keys = data.draw(key_columns(n_left + n_right, (n_left, n_right)))
    left = ColumnBatch({f"l{i}": lv for i, (lv, _) in enumerate(keys)}, n_left)
    right = ColumnBatch({f"r{i}": rv for i, (_, rv) in enumerate(keys)}, n_right)
    got = ColumnarExecutor(provider_from({}))._join_key_codes(
        left, right,
        [col(f"l{i}") for i in range(len(keys))],
        [col(f"r{i}") for i in range(len(keys))],
    )
    want = ref_join_key_codes([lv for lv, _ in keys], [rv for _, rv in keys])
    assert_identical(got, want)
    assert_identical(_hash_join_pairs(*got), ref_hash_join_pairs(*want))


@st.composite
def pair_codes(draw):
    """Join codes as ``_join_key_codes`` leaves them (-1 and -2 mark
    NULL-holding left and right keys), spanning up to, at, or one past
    the bound of both sides' rows, or far past it."""
    n_left = draw(st.integers(0, 30))
    n_right = draw(st.integers(0, 30))
    spread = draw(st.sampled_from(SPREADS))
    if spread == "wide":
        palette = list(WIDE)
    elif spread == "small":
        palette = list(range(draw(st.integers(1, 6))))
    else:
        top = _dense_bound(n_left + n_right) - 3 + (spread == "past_bound")
        palette = [0, top] + draw(st.lists(st.integers(0, top), max_size=4))
    left = st.one_of(st.just(-1), st.sampled_from(palette))
    lcodes = draw(st.lists(left, min_size=n_left, max_size=n_left))
    # Both ends of the palette on the right side pin the span.
    rcodes = draw(st.lists(
        st.one_of(st.just(-2), st.sampled_from(palette)),
        min_size=n_right, max_size=n_right,
    ))
    if n_right >= 3 and spread in ("at_bound", "past_bound"):
        rcodes[:3] = [-2, palette[0], palette[1]]
    return (
        np.array(lcodes, dtype=np.int64), np.array(rcodes, dtype=np.int64)
    )


@SETTINGS
@given(pair_codes())
def test_hash_join_pairs_match_sorting(codes):
    assert_identical(_hash_join_pairs(*codes), ref_hash_join_pairs(*codes))


# -- the bound, pinned -----------------------------------------------------------


@pytest.fixture
def sorts(monkeypatch):
    """Count the kernels' calls to the sorting primitives they avoid."""
    calls = {"unique": 0, "searchsorted": 0}
    for name in calls:
        real = getattr(np, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(operators.np, name, spy)
    return calls


@pytest.mark.parametrize("past", [0, 1])
def test_group_codes_sort_only_past_the_bound(sorts, past):
    n = 50
    span = _dense_bound(n) + past
    values = [i * (span - 1) // (n - 1) for i in range(n)]
    assert values[0] == 0 and values[-1] == span - 1
    vec = vector_from_typed(values[::-1], int)
    codes = _group_codes([vec], n)
    assert sorts["unique"] == past
    assert_identical(codes, ref_group_codes([vec], n))


@pytest.mark.parametrize("past", [0, 1])
def test_hash_join_pairs_search_only_past_the_bound(sorts, past):
    n = 20
    span = _dense_bound(2 * n) + past
    rcodes = np.arange(n, dtype=np.int64) * (span - 1) // (n - 1)
    lcodes = rcodes[::-1].copy()
    lcodes[::3] = -1
    pairs = _hash_join_pairs(lcodes, rcodes)
    assert sorts["searchsorted"] == 2 * past
    assert len(pairs[0]) == n - len(lcodes[::3])
    assert_identical(pairs, ref_hash_join_pairs(lcodes, rcodes))


def test_str_dictionary_larger_than_the_rows():
    """A filtered str column keeps its whole dictionary: codes far past
    the bound are ranked by sorting before the first-row table."""
    big = vector_from_typed([f"s{i}" for i in range(3000)] + [None], str)
    picked = big.take(np.array([2999, 5, 3000, 5, 2999], dtype=np.int64))
    assert_identical(_group_codes([picked], 5), ref_group_codes([picked], 5))
    assert_identical(
        _group_codes([picked], 5)[0], np.array([0, 1, 2, 1, 0], dtype=np.int64)
    )
