"""The one result codec, as a property: the run store and the serve wire
accept and refuse the same values, and give back what they accepted.

:mod:`repro.ensemble.store` turns a result into bytes for three
readers: a store entry (``RunStore.put``/``get``), the fingerprint
(``result_fingerprint``, and ``fingerprints()`` read from an entry) and
the serve wire (``encode_payload``, then ``encode_message``).
Hypothesis generates accepted values (dicts with keys out of sorted
order, lists, tuples, ``None``, bools, ints past 2**63, floats with NaN,
±inf and -0.0, strings, numpy scalars, and arrays of every fixed-width
kind, in both byte orders and as records, nested and padded, each 0-d,
empty, C, Fortran, strided or reversed) and refused ones (arrays
holding objects, scalars whose ``item()`` JSON cannot hold, non-string
and marker keys, sets).

The wire's messages sort their keys (``encode_message`` is canonical),
so a decoded payload holds the value's dicts in sorted key order; its
fingerprint is compared with that of the value so sorted.

Examples are derandomized and the budget is hypothesis's default; the
``codec`` profile registered in ``tests/conftest.py`` raises it
(``pytest --hypothesis-profile=codec``).
"""

from __future__ import annotations

import math
import tempfile

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ensemble.store import (
    RunStore,
    decode_payload,
    encode_payload,
    normalize_result,
    result_fingerprint,
    run_key,
)
from repro.errors import SimulationError
from repro.serve.protocol import decode_message, encode_message

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MARKERS = ("__npz__", "__ndarray__")
KEY = run_key("test.codec", {}, 0)

# -- accepted values -----------------------------------------------------------

#: Every fixed-width element kind, in either byte order where it has one.
ELEMENTS = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?"),
    hnp.complex_number_dtypes(endianness="?"),
    hnp.datetime64_dtypes(endianness="?"),
    hnp.timedelta64_dtypes(endianness="?"),
    hnp.unicode_string_dtypes(endianness="?", max_len=4),
    hnp.byte_string_dtypes(max_len=4),
    st.integers(1, 6).map(lambda n: np.dtype(f"V{n}")),
)


def _padded(dtype: np.dtype) -> np.dtype:
    """A record whose one field sits between bytes of padding."""
    return np.dtype({
        "names": ["x"], "formats": [dtype], "offsets": [3],
        "itemsize": dtype.itemsize + 5,
    })


def _has_padding(dtype: np.dtype) -> bool:
    return dtype.names is not None and dtype.itemsize > sum(
        dtype.fields[name][0].itemsize for name in dtype.names
    )


def _as_record(dtype: np.dtype) -> np.dtype:
    """``dtype``, or a record of it where it is a subarray: an array
    takes a subarray dtype's shape into its own."""
    return dtype if dtype.subdtype is None else np.dtype([("s", dtype)])


DTYPES = st.one_of(
    ELEMENTS,
    hnp.array_dtypes(ELEMENTS, max_size=3),
    hnp.nested_dtypes(ELEMENTS, max_leaves=4, max_itemsize=64).map(_as_record),
    ELEMENTS.map(_padded),
)


@st.composite
def arrays(draw) -> np.ndarray:
    """Any bytes under any dtype, in any layout: the codec must carry
    them unchanged, whatever the fields make of them."""
    dtype = draw(DTYPES)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    layout = draw(st.sampled_from(("C", "F", "strided", "reversed")))
    if not shape or _has_padding(dtype):
        # numpy's copy of a record array leaves its padding bytes unset,
        # and ``result_fingerprint`` hashes them, so a padded record is
        # drawn in the C layout only, which no path copies.
        layout = "C"
    stored = shape[:-1] + (2 * shape[-1],) if layout == "strided" else shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = bytearray(rng.bytes(dtype.itemsize * math.prod(stored)))
    array = np.frombuffer(data, dtype).reshape(stored)
    if layout == "F":
        return np.asfortranarray(array)
    if layout == "strided":
        return array[..., ::2]
    if layout == "reversed":
        return array[::-1]
    return array


NUMPY_SCALARS = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(),
    hnp.unsigned_integer_dtypes(),
    hnp.floating_dtypes(),
    hnp.unicode_string_dtypes(max_len=4),
).flatmap(hnp.from_dtype)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0)),
    st.text(max_size=4),
    NUMPY_SCALARS,
    arrays(),
)

STRING_KEYS = st.text(max_size=4).filter(lambda key: key not in MARKERS)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(STRING_KEYS, children, max_size=4),
    )


ACCEPTED = st.recursive(LEAVES, _containers, max_leaves=8)

# -- refused values ------------------------------------------------------------

STRING_DTYPE = getattr(getattr(np, "dtypes", None), "StringDType", None)

REFUSED_LEAVES = st.one_of(
    st.integers().map(lambda n: np.array(["a", n], dtype=object)),
    st.just([("label", object), ("x", "f8")]).map(lambda dtype: np.zeros(2, dtype)),
    *(
        [st.text(max_size=3).map(lambda s: np.array([s], dtype=STRING_DTYPE()))]
        if STRING_DTYPE is not None else []
    ),
    # Within years 1-9999, where ``item()`` gives a ``date``.
    st.integers(-700_000, 2_900_000).map(lambda days: np.datetime64(days, "D")),
    st.integers(-(10**9), 10**9).map(lambda s: np.timedelta64(s, "s")),
    st.complex_numbers().map(np.complex128),
    st.binary(max_size=3).map(np.bytes_),
    st.floats().map(np.longdouble),
    st.sets(st.integers(), max_size=2),
    st.dictionaries(st.integers(), st.none(), min_size=1, max_size=2),
    st.sampled_from(MARKERS).map(lambda marker: {marker: "a0"}),
)


@st.composite
def refused(draw):
    """One refused leaf, alone or placed among accepted values."""
    bad = draw(REFUSED_LEAVES)
    good = draw(ACCEPTED)
    return draw(st.sampled_from((
        bad, [good, bad], {"z": good, "a": (bad,)}, {"k": [good, {"x": bad}]},
    )))


# -- helpers -------------------------------------------------------------------


def _arrays(value, path=()):
    """``{path: (dtype, shape, writable)}`` for each array in ``value``."""
    if isinstance(value, np.ndarray):
        return {path: (value.dtype, value.shape, value.flags.writeable)}
    found = {}
    if isinstance(value, dict):
        for key, item in value.items():
            found.update(_arrays(item, path + (key,)))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            found.update(_arrays(item, path + (i,)))
    return found


def _sorted_dicts(value):
    if isinstance(value, dict):
        return {key: _sorted_dicts(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_sorted_dicts(item) for item in value]
    return value


def _over_the_wire(value):
    line = encode_message({"result": encode_payload(value)})
    return decode_payload(decode_message(line)["result"])


def _refusal(fn, value):
    """The message ``fn(value)`` refuses with, or ``None``."""
    try:
        fn(value)
    except SimulationError as exc:
        return str(exc)
    return None


# -- properties ----------------------------------------------------------------


@SETTINGS
@given(ACCEPTED)
def test_accepted_values_come_back_whole_from_every_path(value):
    fingerprint = result_fingerprint(value)
    expected = {
        path: (dtype, shape, True)
        for path, (dtype, shape, _) in _arrays(normalize_result(value)).items()
    }
    with tempfile.TemporaryDirectory() as root:
        put_back = RunStore(root).put(KEY, value)
        got = RunStore(root).get(KEY)
        (stored,) = RunStore(root).fingerprints([KEY])
    for name, back in (("put", put_back), ("get", got)):
        assert result_fingerprint(back) == fingerprint, name
        assert _arrays(back) == expected, name
    assert stored == fingerprint
    wire = _over_the_wire(value)
    assert result_fingerprint(wire) == result_fingerprint(
        _sorted_dicts(normalize_result(value))
    )
    assert _arrays(wire) == expected


@SETTINGS
@given(refused())
def test_the_store_and_the_wire_refuse_the_same_values(value):
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        refusals = [
            _refusal(normalize_result, value),
            _refusal(lambda v: store.put(KEY, v), value),
            _refusal(encode_payload, value),
        ]
        assert not store.contains(KEY)
    assert None not in refusals
    assert len(set(refusals)) == 1, refusals


@pytest.mark.parametrize(
    "description",
    [{"dtype": "|O", "shape": [1]}, {"dtype": [["x", "|O"]], "shape": [1]}],
    ids=["object", "record"],
)
def test_a_payload_naming_an_object_dtype_is_refused(description):
    """Bytes are never read as object pointers."""
    tree = {"__ndarray__": dict(description, data="AAAAAAAAAAA=")}
    with pytest.raises(SimulationError, match="without unpickling"):
        decode_payload(tree)
