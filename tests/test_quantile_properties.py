"""Hypothesis properties of the Beta quantile."""

import numpy as np
import pytest

from ifsdist import BetaParams
from ifsdist.randstats import _beta_quantile_vec

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
