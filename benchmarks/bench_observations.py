"""The paper's observations (O1-O14), each asserted once at quick scale.

Every criterion lives in :mod:`repro.experiments.observations`; this
module only asserts its verdict, so a deviating observation fails under
its own identifier with the evidence behind it.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_observations.py
"""

import pytest

from repro.experiments import observations


@pytest.mark.parametrize("check", observations.CHECKS, ids=lambda c: c.__name__)
def test_observation(context, check):
    result = check(context)
    print("\n" + result.render())
    assert result.holds, result.render()
