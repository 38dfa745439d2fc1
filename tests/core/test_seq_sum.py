"""``_seq_sum`` is ``sum(values.tolist(), 0.0)`` bit for bit.

The allocators keep ``sum(list)``'s left-to-right adds, on which the
golden digests were built, through ``_seq_sum`` (what lint rule FLT001
asks a full reduction in a deterministic layer to use), which runs them
in C with ``np.add.accumulate``.  This property is the reference: a numpy that
reordered ``accumulate`` (pairwise, SIMD lanes) would fail it before it
moved a golden digest.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms import _seq_sum

SPECIALS = (
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1e-300,
    -1e-300,
    1e300,
    -1e300,
    1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    float("nan"),
)


def _body(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.0, n)
    if kind == "mixed":  # signed, 1e-300 .. 1e300
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    if kind == "zero-heavy":
        return np.where(rng.random(n) < 0.8, 0.0, rng.lognormal(0.0, 1.0, n))
    if kind == "signed-zeros":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return rng.standard_normal(n) * 5e-324  # subnormals


@st.composite
def float_arrays(draw) -> np.ndarray:
    n = draw(st.integers(0, 5_000))
    kind = draw(
        st.sampled_from(
            ("lognormal", "mixed", "zero-heavy", "signed-zeros", "subnormal")
        )
    )
    values = _body(kind, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if n:
        for i, value in draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.sampled_from(SPECIALS) | st.floats(width=64),
                ),
                max_size=8,
            )
        ):
            values[i] = value
    return values


@settings(max_examples=300, deadline=None)
@given(float_arrays())
@example(np.zeros(0))
@example(np.full(1, -0.0))
@example(np.full(4_999, -0.0))
@example(np.array([-0.0, -0.0, 5e-324, -5e-324]))
@example(np.array([1e300, 1e300, -1e300]))
@example(np.array([float("inf"), float("-inf")]))
def test_seq_sum_is_the_python_sum_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 + 1e308
        total = _seq_sum(values)
    assert type(total) is float
    assert total.hex() == sum(values.tolist(), 0.0).hex()
