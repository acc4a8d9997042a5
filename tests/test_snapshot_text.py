"""The vectorized float formatter behind snapshot CSVs against ``repr``."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatgrid.cli import _float_text, _write_snapshots

EDGES = [100.0, 128.0, 256.0, np.nextafter(512, 0), np.nextafter(128, 0), np.nextafter(256, 0)]
OUT_OF_DOMAIN = [
    np.nextafter(100, 0), 512.0, 0.5, 1e-5, 1e300, -300.0, np.nan, np.inf, -np.inf,
]


def formatted(values):
    """Each value's bytes from the kernel, and its flags."""
    text, length, uncovered = _float_text(np.asarray(values, dtype=np.float64))
    return [bytes(row[:n]) for row, n in zip(text, length)], uncovered


def is_tie(x: float) -> bool:
    """An odd multiple of 2^-15 printed with 17 digits: x * 10^14 ends in .5."""
    return (x * 2**15) % 2 == 1 and len(repr(x)) == 18


def test_random_bit_patterns_match_repr():
    low, high = np.array([100.0, 512.0]).view(np.int64)
    values = np.random.default_rng(18).integers(low, high, 1_000_000).view(np.float64)
    text, length, uncovered = _float_text(values)
    assert all(map(is_tie, values[uncovered].tolist()))
    reprs = list(map(repr, values.tolist()))
    kept = ~uncovered
    assert np.array_equal(length[kept], [len(r) for r, k in zip(reprs, kept) if k])
    joined = "".join(r for r, k in zip(reprs, kept) if k).encode()
    assert text[kept][np.arange(20) < length[kept, None]].tobytes() == joined


def test_binade_edges_and_neighbours_match_repr():
    values = [v for x in EDGES for v in (np.nextafter(x, 0), x, np.nextafter(x, 1024))]
    values = [v for v in values if 100.0 <= v < 512.0]
    texts, uncovered = formatted(values)
    assert not uncovered.any()
    assert texts == [repr(float(v)).encode() for v in values]


def test_short_decimals_keep_one_fraction_digit():
    texts, uncovered = formatted([300.0, 293.15, 300.5, 100.0, 511.0, 273.15])
    assert not uncovered.any()
    assert texts == [b"300.0", b"293.15", b"300.5", b"100.0", b"511.0", b"273.15"]


@settings(max_examples=2000, deadline=None)
@given(st.floats(100, 512, exclude_max=True))
def test_any_domain_value_matches_repr_or_is_a_flagged_tie(x):
    (text,), (flag,) = formatted([x])
    if flag:
        assert is_tie(x)
    else:
        assert text == repr(x).encode()


def test_out_of_domain_values_are_flagged():
    _texts, uncovered = formatted(OUT_OF_DOMAIN)
    assert uncovered.all()


def ties():
    """Seeded 17th-digit ties: mantissas that are odd multiples of 2^29 in
    [256, 512), and the same grid of 2^-15 in the binades below."""
    odd = 2 * np.random.default_rng(7).integers(50 * 2**14, 256 * 2**14, 4000) + 1
    return [x for x in (odd * 2.0**-15).tolist() if is_tie(x)]


def test_exact_ties_are_flagged():
    values = ties()
    assert len(values) > 100
    _texts, uncovered = formatted(values)
    assert uncovered.all()


@pytest.mark.parametrize("odd", [OUT_OF_DOMAIN, ties()[:5]], ids=["out_of_domain", "ties"])
def test_flagged_values_written_through_repr(tmp_path, odd):
    values = np.array([300.0, 293.15] + list(odd))
    grid = SimpleNamespace(rows=1, cols=values.size, cv_type=np.zeros((1, values.size), int))
    snap = SimpleNamespace(t=values[None, :], t_mass=values[None, ::-1], step_index=1)
    _write_snapshots(tmp_path, grid, [snap], with_mass=True)
    pairs = zip(values.tolist(), values[::-1].tolist())
    rows = [f"0,{c},0,{t!r},{m!r}" for c, (t, m) in enumerate(pairs)]
    expected = "row,col,cv_type,t,t_mass\n" + "\n".join(rows) + "\n"
    assert (tmp_path / "snapshot_0001.csv").read_text(encoding="utf-8") == expected
