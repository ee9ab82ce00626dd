"""``manifest.json_text``, the one writer of indent-2 JSON (reports, emitted
manifests, the ``classify`` and ``power`` outputs), against json itself."""

import json
import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.manifest import json_text

STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", '"', "\\", '\\"', "\n", "\t\x00\x1f\x7f", "é", " ", "😀", "e1^e2"]),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, True, False, -1]),
    st.integers(),
    st.integers(min_value=10**20, max_value=10**40).map(lambda n: -n),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True).map(numpy.float64),
    STRINGS,
)
KEYS = st.one_of(STRINGS, st.integers(-3, 3), st.sampled_from([True, None, 0.5]))
TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
        st.dictionaries(KEYS, inner, max_size=3),
    ),
    max_leaves=20,
)


def _same_as_json(tree):
    try:
        expected = json.dumps(tree, indent=2, sort_keys=True)
    except TypeError as e:  # a dict whose keys cannot be sorted
        with pytest.raises(type(e)):
            json_text(tree)
        return
    assert json_text(tree) == expected


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_equals_json_dumps(tree):
    _same_as_json(tree)


@pytest.mark.parametrize(
    "tree",
    [
        [],
        {},
        [[], {}, ()],
        {"a": {"b": [1, 2.5, "x"]}, "": None},
        {"k": [numpy.float64(0.1), math.nan, {1: "one", 2: [math.inf]}]},
        [True, 1, False, 0, 1.0, 10**30],
        {"b": 1, "a": {3: "x", "2": "y"}},
    ],
    ids=["empty-list", "empty-dict", "empties", "nested", "delegated", "bools-and-ints",
         "unsortable-keys"],
)
def test_writer_cases(tree):
    _same_as_json(tree)
