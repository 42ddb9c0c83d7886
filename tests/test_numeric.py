import math

import pytest

from torlicz.numeric import expand_bracket_log, secant_bisect_log


def _counted(fn):
    calls = []

    def wrapped(k):
        calls.append(k)
        return fn(k)

    return wrapped, calls


def test_a_power_law_root_takes_one_secant_step():
    # log(k^3 / 8) is linear in log k, so the first secant point is the root
    fn, calls = _counted(lambda k: math.log(k**3 / 8.0))
    lo, f_lo, hi, f_hi = secant_bisect_log(fn, 1.0, fn(1.0), 16.0, fn(16.0), 1e-12)
    assert f_lo < 0.0 <= f_hi and hi - lo <= 1e-12 * hi
    assert lo <= 2.0 <= hi and len(calls) <= 5


@pytest.mark.parametrize("above", [math.nan, math.inf])
def test_non_finite_ends_bisect_to_the_jump(above):
    # below the jump at k = 3 the value is finite, above it NaN or +inf
    fn = lambda k: -1.0 if k < 3.0 else above  # noqa: E731
    lo, f_lo, hi, f_hi = secant_bisect_log(fn, 1.0, -1.0, 100.0, above, 1e-12)
    assert lo < 3.0 <= hi and hi - lo <= 1e-12 * hi
    assert f_lo == -1.0 and not f_hi < 0.0


def test_bracket_expansion_in_both_directions():
    fn = lambda k: math.log(k / 1e-40)  # noqa: E731
    lo, f_lo, hi, f_hi = expand_bracket_log(fn, 1.0, 1e300)
    assert lo < 1e-40 <= hi and f_lo < 0.0 <= f_hi
    fn = lambda k: math.log(k / 1e40)  # noqa: E731
    lo, f_lo, hi, f_hi = expand_bracket_log(fn, 1.0, 1e300)
    assert lo < 1e40 <= hi and f_lo < 0.0 <= f_hi


def test_bracket_expansion_stops_at_its_cap():
    fn, calls = _counted(lambda k: -1.0)
    assert expand_bracket_log(fn, 1.0, 2.0**50) is None
    assert calls[-1] == 2.0**50 and len(calls) <= 8
