"""Hypothesis properties of the Beta quantile."""

import numpy as np
import pytest

from ifsdist import BetaParams
from ifsdist.randstats import _beta_quantile_vec

from conftest import reference_quantile

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(a=st.floats(0.1, 50.0), b=st.floats(0.1, 50.0),
                  us=st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=2, max_size=20))
def test_quantile_monotone_in_level(a, b, us):
    # bisection decides each step by the test I_mid < u on one computed
    # I_mid, so the paths of u1 < u2 can only part with u2 going up
    us = np.sort(np.asarray(us))
    assert np.all(np.diff(_beta_quantile_vec(BetaParams(a, b), us)) >= 0.0)


# levels anywhere, and within 1e-10 of 0 and of 1, where the guess is poorest
_LEVELS = st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.floats(1e-12, 1e-10),
                    st.floats(1.0 - 1e-10, 1.0 - 1e-12))


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(log_a=st.floats(-2.0, 4.0), log_b=st.floats(-2.0, 4.0),
                  us=st.lists(_LEVELS, min_size=1, max_size=20))
def test_quantile_equals_plain_bisection(log_a, log_b, us):
    # the steps decided from the window around the guess are plain
    # bisection's own, for log-uniform shapes in [0.01, 1e4]
    a, b, us = 10.0**log_a, 10.0**log_b, np.asarray(us)
    assert np.array_equal(_beta_quantile_vec(BetaParams(a, b), us), reference_quantile(a, b, us))
