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


#: Values whose arithmetic rounds, overflows or underflows at the edges.
_EDGE = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1e-300, 1e300, -1.7976931348623157e308))


@st.composite
def cert_row(draw):
    """One seam estimate's quotients, _CERT_LEVELS of them: a converging
    series with entries replaced, small integers that tie, or any floats."""
    from twoorigins.join import _CERT_LEVELS

    kind = draw(st.integers(0, 2))
    if kind == 1:
        return draw(st.lists(st.sampled_from((0.0, 1.0, -1.0, 2.0)),
                             min_size=_CERT_LEVELS, max_size=_CERT_LEVELS))
    if kind == 2:
        return draw(st.lists(st.one_of(_EDGE, st.floats()), min_size=_CERT_LEVELS,
                             max_size=_CERT_LEVELS))
    limit, c = draw(st.floats(-1e3, 1e3)), draw(st.floats(-10.0, 10.0))
    raw = [limit + c / 2.0 ** level for level in range(_CERT_LEVELS)]
    for _ in range(draw(st.integers(0, 4))):
        raw[draw(st.integers(0, _CERT_LEVELS - 1))] = draw(st.one_of(_EDGE, st.floats()))
    return raw


@given(st.lists(cert_row(), min_size=1, max_size=200))
@settings(max_examples=150, deadline=None)
def test_certificate_tableau_matches_the_reference_row_by_row_bit_for_bit(rows):
    # the certificates' array tableau gives every row extrapolate's (value, err)
    import numpy as np

    from twoorigins.join import _tableau

    values, errs = _tableau(np.array(rows))
    for row, value, err in zip(rows, values.tolist(), errs.tolist()):
        ref_value, ref_err = numerics_reference.extrapolate(row)
        assert _bits(value) == _bits(ref_value)
        assert _bits(err) == _bits(ref_err)
