import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rabicav import csvtext
from rabicav.core import BLOCK
from rabicav.csvtext import block_text


def _reference(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _assert_identical(values, cols=3):
    block = np.asarray(values, dtype=float)
    block = block[:block.size // cols * cols].reshape(-1, cols)
    got, want = block_text(block).split("\n"), _reference(block).split("\n")
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert not wrong and len(got) == len(want), wrong[:5]


# floats() draws NaN, infinities, signed zeros and subnormals as well
@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 9)),
                  elements=st.floats()))
def test_any_block_is_its_repr_join(block):
    assert block_text(block) == _reference(block)


def _bit_patterns(rng):
    return rng.integers(0, 2 ** 64 - 1, 10 ** 6, dtype=np.uint64, endpoint=True).view(float)


def _scaled_uniform(rng):
    return np.concatenate([rng.random(20_000) * 10.0 ** k for k in range(-6, 18)])


def _grids(rng):
    starts = [0.0, 0.1, -3.0, 1000.0, 430e-6]
    steps = [0.025, 0.002, 0.01, 30000 / 79, 1e-6, 0.1]
    return np.concatenate([start + step * np.arange(5000) for start in starts for step in steps])


def _powers(rng):
    exact = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    exact = np.concatenate([exact, -exact])
    return np.concatenate([exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)])


def _format_switches(rng):
    # where repr changes from 0.000ddd to d.ddde-05, and from ddd.d to de+16
    near = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17])[:, None]
    near = near * (1 + np.linspace(-1e-12, 1e-12, 2001))
    ulps = near[:, :1] + np.spacing(near[:, :1]) * np.arange(-500, 501)
    return np.concatenate([near.ravel(), ulps.ravel(), np.nextafter(near, 0).ravel()])


@pytest.mark.parametrize("family", [_bit_patterns, _scaled_uniform, _grids, _powers,
                                    _format_switches])
@pytest.mark.parametrize("cols", [1, 7])
def test_seeded_scans_are_their_repr_join(family, cols):
    _assert_identical(family(np.random.default_rng(34)), cols)


def test_empty_and_all_zero_blocks():
    assert block_text(np.empty((0, 3))) == ""
    zeros = np.zeros((2 * BLOCK + 5, 2))
    assert block_text(zeros) == "0.0,0.0\n" * len(zeros)
    assert block_text(-zeros[:2]) == "-0.0,-0.0\n" * 2


def test_a_time_grid_reaches_repr_only_for_zeros_and_powers_of_two(monkeypatch):
    # the digits of other values come from the array arithmetic, not from repr
    seen = []
    monkeypatch.setattr(csvtext, "repr", lambda v: seen.append(v) or repr(v), raising=False)
    ts = np.arange(3 * BLOCK) * 0.025
    block = np.column_stack([ts, np.exp(-ts), np.sin(ts) / 3 + 2])
    assert block_text(block) == _reference(block)
    assert set(seen) == {v for v in block.flat if v == 0 or math.frexp(v)[0] == 0.5}
