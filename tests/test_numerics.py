"""The shared one-sided derivative kernel against its reference loop."""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from twoorigins._numerics import ORDER_CAP, extrapolate, halving, offsets, one_sided

import numerics_reference

_SPECIAL = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan))


def _bits(x: float) -> bytes:
    # the full bit pattern: tells -0.0 from 0.0 and keeps a NaN's sign
    return struct.pack("<d", x)


@st.composite
def tableaux(draw):
    """(rows, j, steps, sign): a smooth function's stencil values, some
    replaced by 0.0, infinities, NaN or arbitrary floats."""
    j = draw(st.integers(1, ORDER_CAP))
    levels = draw(st.integers(2, 14))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    steps = halving(draw(st.floats(1e-6, 1.0)), levels)
    a, s = draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0))
    rows = [[math.exp(a * (s + o)) for o in row] for row in offsets(j, steps, sign)]
    for _ in range(draw(st.integers(0, 4))):
        value = draw(st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True)))
        rows[draw(st.integers(0, levels - 1))][draw(st.integers(0, j))] = value
    return rows, j, steps, sign


@given(tableaux())
@settings(max_examples=400, deadline=None)
def test_one_sided_matches_the_reference_loop_bit_for_bit(case):
    value, err, raw = one_sided(*case)
    ref_value, ref_err, ref_raw = numerics_reference.one_sided(*case)
    assert _bits(value) == _bits(ref_value)
    assert _bits(err) == _bits(ref_err)
    assert list(map(_bits, raw)) == list(map(_bits, ref_raw))


@st.composite
def quotients(draw):
    """A raw quotient list of 1-14 levels: a converging series with entries,
    raw[0] among them, replaced by 0.0, -0.0, infinities, NaN or arbitrary
    floats."""
    levels = draw(st.integers(1, 14))
    limit, c = draw(st.floats(-1e3, 1e3)), draw(st.floats(-10.0, 10.0))
    h0 = draw(st.floats(1e-6, 1.0))
    raw = [limit + c * h0 / 2.0 ** level for level in range(levels)]
    for _ in range(draw(st.integers(0, 4))):
        value = draw(st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True)))
        raw[draw(st.integers(0, levels - 1))] = value
    return raw


@given(quotients())
@settings(max_examples=400, deadline=None)
def test_extrapolate_matches_the_reference_tableau_bit_for_bit(raw):
    value, err = extrapolate(raw)
    ref_value, ref_err = numerics_reference.extrapolate(raw)
    assert _bits(value) == _bits(ref_value)
    assert _bits(err) == _bits(ref_err)
