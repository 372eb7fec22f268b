import math
import os

import pytest

# The committed outputs under tests/data were recorded with single-threaded
# BLAS. A threaded matrix-vector product sums in another order, so a long
# series (near-unit nomes) ends in other last bits. OpenBLAS reads this when
# numpy is first imported, which no test module has done yet.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


@pytest.fixture
def nan_on_call():
    """``wrap(fn, index, nan=math.nan)``: ``fn``, except that its call number
    ``index`` (from 0) returns ``nan``; it puts a NaN into one component of a
    check without touching the others."""
    def wrap(fn, index, nan=math.nan):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(1)
            return nan if len(calls) == index + 1 else fn(*args, **kwargs)

        return wrapped

    return wrap
