"""The CSV writer's vectorised %.17g: byte for byte the text of ``%``."""

import io
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnabc import fileio


def _written(columns) -> bytes:
    fh = io.BytesIO()
    fileio.write_csv_rows(fh, [np.asarray(col) for col in columns])
    return fh.getvalue()


def _percent(columns) -> bytes:
    """The rows as ``%`` formats them, one cell at a time."""
    formats = ["%d" if np.issubdtype(np.asarray(col).dtype, np.integer) else "%.17g"
               for col in columns]
    return b"".join((",".join(f % v for f, v in zip(formats, row)) + "\r\n").encode()
                    for row in zip(*[np.asarray(col).tolist() for col in columns]))


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of cells each call hands to ``%`` (or ``%d``)."""
    counts = []

    def put_text(out, cells, texts):
        counts.append(len(cells))
        return original(out, cells, texts)

    original = fileio._put_text
    monkeypatch.setattr(fileio, "_put_text", put_text)
    return counts


def _powers_of_ten_and_neighbours():
    powers = 10.0 ** np.arange(-323, 309)
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def _dyadic_ties():
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: exact ties at 17 digits, which ``%`` rounds half to even."""
    gen = np.random.default_rng(11)
    ties = []
    for k in range(1, 60):
        # a / 2^k is exact and has the digits of a * 5^k
        low = -(-10**17 // 5**k)
        high = min(10**18 // 5**k, 2**53)
        if low < high:
            odd = gen.integers(low, high, size=40) | 1
            ties += [a / 2**k for a in odd.tolist() if len(str(a * 5**k)) == 18]
    return np.array(ties)


def _is_tie(value: float) -> bool:
    """Whether ``value``'s exact decimal expansion has 18 significant digits,
    the last a 5: a tie at 17."""
    digits = Decimal(value).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


class TestMatchesPercent:
    def test_random_bit_patterns(self):
        gen = np.random.default_rng(5)
        bits = gen.integers(0, 2**64, size=1 << 18, dtype=np.uint64)
        # subnormals, NaN payloads and infinities of both signs
        bits[:1000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        bits[1000:2000] |= np.uint64(0x7FF0_0000_0000_0000)
        bits[2000:2002] = [0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000]
        values = bits.view(np.float64)
        assert np.isnan(values).sum() > 1000 and np.isinf(values).sum() >= 2
        assert _written([values]) == _percent([values])

    def test_edge_values(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17,
                 9.9999999999999995e-5, 1e-4, 9.9999999999999991e-05, 0.5, 1.5, 2.5,
                 1e23, 1e22, 1e-250, 1e250, np.nextafter(1e250, 0), np.nextafter(1e-250, 0),
                 float(2**53), float(2**53 + 2), float(2**60), float(2**62 + 2**10),
                 float(10**17 - 16), float(10**17 + 16), float(2**63 - 1024)]
        values = np.concatenate([edges, np.negative(edges), _powers_of_ten_and_neighbours(),
                                 np.arange(-4096, 4096) / 8, np.arange(-4096, 4096) / 1024])
        assert _written([values]) == _percent([values])

    def test_integers_past_two_to_the_53(self):
        gen = np.random.default_rng(6)
        values = gen.integers(2**53, 2**62, size=20_000).astype(np.float64)
        assert _written([values, -values]) == _percent([values, -values])

    def test_decimals_of_17_and_18_digits(self):
        gen = np.random.default_rng(7)
        texts = [f"{lead}.{tail:0{width - 1}d}e{exp}"
                 for width in (17, 18)
                 for lead, tail, exp in zip(gen.integers(1, 10, 5000).tolist(),
                                            gen.integers(0, 10**(width - 1), 5000).tolist(),
                                            gen.integers(-30, 30, 5000).tolist())]
        values = np.array([float(text) for text in texts])
        assert _written([values]) == _percent([values])

    def test_dyadic_ties_fall_back_to_percent(self, fallbacks):
        ties = _dyadic_ties()
        assert len(ties) > 500 and all(map(_is_tie, ties.tolist()))
        assert _written([ties]) == _percent([ties])
        assert sum(fallbacks) == len(ties)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert _written([np.array(values)]) == _percent([values])


class TestFastPath:
    def test_formats_every_finite_value_in_range_but_ties(self, fallbacks):
        # only zeros, values outside [1e-250, 1e250), non-finite values and
        # fractions within 1e-10 of a tie go to %
        gen = np.random.default_rng(8)
        values = _powers_of_ten_and_neighbours()
        values = np.concatenate([values[(values >= 1e-249) & (values <= 1e249)],
                                 gen.normal(size=50_000), gen.random(50_000),
                                 gen.normal(size=50_000) * 10.0 ** gen.integers(-240, 240, 50_000)])
        ties = sum(map(_is_tie, values.tolist()))
        assert ties > 0   # such as 643149225541146.125, 18 digits, the last a 5
        assert _written([values, -values]) == _percent([values, -values])
        assert sum(fallbacks) == 2 * ties

    def test_zeros_take_the_fast_path(self, fallbacks):
        values = np.array([0.0, -0.0, 1.0, -0.0])
        assert _written([values]) == b"0\r\n-0\r\n1\r\n-0\r\n"
        assert sum(fallbacks) == 0


class TestShapes:
    def test_mixed_integer_and_float_columns(self):
        # the shape of the validate CSVs: an index, then floats
        gen = np.random.default_rng(9)
        columns = [np.arange(3000), gen.normal(size=3000), np.arange(3000, dtype=np.uint8),
                   gen.integers(-2**63, 2**63 - 1, 3000, dtype=np.int64)]
        assert _written(columns) == _percent(columns)

    def test_zero_rows(self):
        assert _written([np.zeros(0), np.zeros(0, dtype=int)]) == b""
        assert _written([]) == b""

    def test_one_column(self):
        assert _written([np.array([0.25])]) == b"0.25\r\n"

    @pytest.mark.parametrize("width", [1, 3, 6, 4097])
    def test_rows_across_a_block_boundary(self, width):
        # 4096 // 3 rows of 3 cells leave a block one cell short
        rows = fileio._CSV_BLOCK_CELLS // width + 2
        gen = np.random.default_rng(width)
        columns = list(gen.normal(size=(width, rows)))
        assert rows * width > fileio._CSV_BLOCK_CELLS
        assert _written(columns) == _percent(columns)

    def test_float32_and_bool_columns_are_written_as_floats(self):
        columns = [np.array([0.1, 3.5], np.float32), np.array([True, False])]
        assert _written(columns) == _percent(columns)
