"""Suite-wide test configuration.

Hypothesis profiles selectable with ``--hypothesis-profile``:

- ``agents-twin-nightly``: the scheduled CI run's budget for the
  analytic-vs-materialized agent twin
  (``tests/core/test_agents_differential.py``) and the watermark twins
  (``tests/core/test_commit_differential.py``,
  ``tests/core/test_planner_differential.py``); tier-1 runs a bounded
  number of examples.
"""

from hypothesis import settings

settings.register_profile("agents-twin-nightly", max_examples=400, deadline=None)
