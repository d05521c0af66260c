"""The one argument rule the collectives enforce themselves.

Each collective runs group-wide and refuses members whose shapes or
dtypes differ, so UCP024's rule needs no trace analyzer; that every
rank gets a private result is pinned in ``tests/test_dist.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist.process_group import ProcessGroup


class TestArgumentLint:
    def test_shape_mismatch_is_ucp024(self):
        """UCP024's shape rule is the collective's own check: the call
        raises naming the shapes."""
        pg = ProcessGroup("dp:0,1", [0, 1])
        with pytest.raises(ValueError, match="shape mismatch") as err:
            pg.all_reduce(
                [np.zeros((8, 8), dtype=np.float32),
                 np.zeros(64, dtype=np.float32)]
            )
        assert "(8, 8)" in str(err.value)
