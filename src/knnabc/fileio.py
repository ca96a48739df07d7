"""Atomic, deterministic file output.

Every artifact is written to a temporary file in the target directory and
renamed into place, so a crash never leaves a partially written output.
JSON is serialized with sorted keys and non-finite floats mapped to the
strings "inf"/"-inf"/"nan" (strict JSON has no literals for them), which
keeps files byte-identical across reruns.  Every CSV line comes from
:func:`csv_header` and :func:`write_csv_rows`, so the CSV format is decided
here alone; :func:`write_csv` writes whole columns with them, and
``abc sample`` writes its table one chunk of rows at a time.

The float cells of a CSV are ``%.17g`` text, built in numpy a block of
``_CSV_BLOCK_CELLS`` cells at a time (:func:`_cell_slots`): exact 17-digit
rounding by double-double scaling, the layout from look-up tables, and
every cell it cannot prove right (a near tie, a non-finite or extreme
value) formatted by ``%`` itself.  The bytes are those of ``%``; the time
is about a third.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError


def jsonify(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats into
    strict-JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _umask() -> int:
    # os.umask can only be read by setting it; no other thread of this
    # program creates files, so the brief swap is not observed.
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_files(*paths):
    """Binary handles on a temporary file beside each of ``paths``.  On a
    clean exit each is flushed to disk and renamed over its path; on any
    error the temporary files are removed, so each target holds either its
    old file or the whole new one."""
    paths = [Path(path) for path in paths]
    temps = []  # (handle, temporary path) of each target made so far
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            temps.append((os.fdopen(fd, "wb"), tmp))
        yield [fh for fh, _ in temps]
        # mkstemp creates the file 0600 whatever the umask; give the outputs
        # the mode an ordinary open() would have
        mode = 0o666 & ~_umask()
        for fh, tmp in temps:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
            os.chmod(tmp, mode)
        for (_, tmp), path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh, tmp in temps:
            fh.close()
            with suppress(OSError):
                os.unlink(tmp)
        raise


def atomic_write_bytes(path, data: bytes) -> Path:
    with atomic_files(path) as (fh,):
        fh.write(data)
    return Path(path)


def json_bytes(obj) -> bytes:
    """``obj`` as indented JSON with sorted keys (see :func:`jsonify`)."""
    text = json.dumps(jsonify(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    return text.encode("utf-8")


# cells formatted at a time; bounds the buffers held while writing
_CSV_BLOCK_CELLS = 1 << 12
# the magnitudes whose %.17g text is built in numpy; zeros have their own
# fast path, and every other value is formatted by % one at a time
_FAST_LOW, _FAST_HIGH = 1e-250, 1e250
_S_MIN, _S_MAX = -235, 270      # the powers 10^s that scale them, with margin
_X_OFFSET = 400                 # decimal exponent + this indexes the layout tables
_SLOT_QUADS = 13                # one cell's text in 4-byte groups, NUL-padded


def _split(v):
    """Dekker's split of float64 ``v`` into halves of 26 bits: hi + lo == v."""
    c = v * 134217729.0                 # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


@functools.cache
def _cell_tables():
    """Look-up tables of the %.17g formatter, built from exact integers on
    first use (about 3 ms).

    - 10^s for s in [_S_MIN, _S_MAX] as a double-double hi + lo, with hi
      split (:func:`_split`): Python's int true division rounds correctly,
      and ``as_integer_ratio`` gives hi's exact value.
    - ``groups``: four ASCII digits per uint32, for 0..9999 zero-padded,
      then with leading zeros as NUL, then with trailing zeros as NUL.
    - By decimal exponent X + _X_OFFSET: 10^(17-q) and 10^q, where q is the
      count of digits before the dot (X + 1 in fixed notation, 0 below 1,
      1 in exponent notation); the dot group, "." or, for X in [-4, -1],
      "." and the -X - 1 zeros after it; and the exponent text, "e+XX" or
      "e-XXX", empty in fixed notation, as two uint32.
    """
    lo, hi = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi_hi, hi_lo = _split(np.array(hi))

    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    chars = (digits + 48).astype(np.uint8)
    leading = np.cumsum(digits, axis=1) == 0
    trailing = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0
    groups = np.concatenate([chars, np.where(leading, 0, chars), np.where(trailing, 0, chars)])
    groups = np.ascontiguousarray(groups).view("<u4").reshape(-1)

    xs = range(-_X_OFFSET, _X_OFFSET + 1)
    fixed = np.array([-4 <= x <= 16 for x in xs])
    q = np.where(fixed, np.maximum(np.array(xs) + 1, 0), 1)
    p10 = 10 ** np.arange(18, dtype=np.int64)
    dots = np.frombuffer(b".\0\0\0.000.00\0.0\0\0.\0\0\0.\0\0\0", "<u4")
    exponent = np.array([0 if f else int.from_bytes(b"e%+03d" % x, "little")
                         for x, f in zip(xs, fixed)], np.uint64)
    return (hi_hi, hi_lo, np.array(lo), groups, p10[17 - q], p10[q],
            dots[np.clip(np.array(xs) + 5, 0, 5)],
            (exponent & 0xFFFF_FFFF).astype("<u4"), (exponent >> 32).astype("<u4"))


def _cell_slots(values, seps, out):
    """Fill ``out[i]`` (uint32, _SLOT_QUADS wide) with the ``%.17g`` text of
    float64 ``values[i]`` and the separator in ``seps[i]`` (its bytes 1-2),
    NUL-padded.

    The 17 significant digits come from y = |x| 10^(16-X) in double-double
    arithmetic (Dekker's product), with X = floor(log10 |x| - 1e-12), which
    is the decimal exponent or one below it: y's high part is an integer
    above 2^53, and the low part, exact to about 1e-14, gives y's fraction.
    A y of 10^17 or more takes one division by 10.  A cell falls back to
    ``%`` when its fraction is within 1e-10 of 1/2, an exact tie included;
    when |x| is outside [_FAST_LOW, _FAST_HIGH) or not finite; and when y
    still has other than 17 digits, which only a log10 off by more than
    1e-12 would give.  Zeros are written here.  The digits are split into
    those before and after the dot, and each part into groups of four,
    looked up in ``_cell_tables``' groups; the slot reads sign and leading
    digit, four integer groups, the dot group, a digit and four fraction
    groups, and two exponent groups.
    """
    hi_hi_t, hi_lo_t, lo_t, groups, pw_t, pq_t, dot_t, e0_t, e1_t = _cell_tables()
    a = np.abs(values)
    fast = (a >= _FAST_LOW) & (a < _FAST_HIGH)
    a[~fast] = 1.0
    x = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    s = (16 - _S_MIN) - x
    hi_hi, hi_lo = hi_hi_t.take(s), hi_lo_t.take(s)
    p = a * (hi_hi + hi_lo)
    a_hi, a_lo = _split(a)
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo_t.take(s)
    floor = np.floor(e)
    frac = e - floor
    d = p.astype(np.int64)
    d += floor.astype(np.int64)
    big = d >= 10**17
    if big.any():
        d10 = d // 10
        frac = np.where(big, (d - d10 * 10 + frac) / 10, frac)
        d = np.where(big, d10, d)
        x += big
    fast &= (np.abs(frac - 0.5) >= 1e-10) & (d >= 10**16) & (d < 10**17)
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    x += carry + _X_OFFSET
    pw = pw_t.take(x)
    ip = d // pw                         # the digits before the dot
    fp = (d - ip * pw) * pq_t.take(x)    # those after it, left-aligned in 17

    lead = ip // 10**16
    rest = ip - lead * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g1, g3 = hi8 // 10**4, lo8 // 10**4
    out[:, 0] = (values < 0) * 45 | ((lead > 0) | (ip == 0)) * ((48 + lead) << 8)
    out[:, 1] = groups.take(g1 + 10_000 * (ip < 10**16))
    out[:, 2] = groups.take(hi8 - g1 * 10**4 + 10_000 * (ip < 10**12))
    out[:, 3] = groups.take(g3 + 10_000 * (ip < 10**8))
    out[:, 4] = groups.take(lo8 - g3 * 10**4 + 10_000 * (ip < 10**4))
    has = fp != 0
    out[:, 5] = dot_t.take(x) * has
    lead = fp // 10**16
    rest = fp - lead * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g1, g3 = hi8 // 10**4, lo8 // 10**4
    g2, g4 = hi8 - g1 * 10**4, lo8 - g3 * 10**4
    lo_zero = lo8 == 0
    out[:, 6] = (48 + lead) * has
    out[:, 7] = groups.take(g1 + 20_000 * ((g2 == 0) & lo_zero))
    out[:, 8] = groups.take(g2 + 20_000 * lo_zero)
    out[:, 9] = groups.take(g3 + 20_000 * (g4 == 0))
    out[:, 10] = groups.take(g4 + 20_000)
    out[:, 11] = e0_t.take(x)
    out[:, 12] = e1_t.take(x) | seps

    slow = ~fast
    zero = values == 0
    if zero.any():
        out[zero, :-1] = 0
        out[zero, 0] = np.signbit(values[zero]) * 45 | 48 << 8
        slow &= ~zero
    cells = np.flatnonzero(slow)
    _put_text(out, cells, [b"%.17g" % v for v in values[cells].tolist()])


def _put_text(out, cells, texts) -> None:
    """Replace the text of slots ``out[cells]`` by ``texts``, keeping their
    separators; a text has at most 4 (_SLOT_QUADS - 1) = 48 bytes."""
    out[cells, :-1] = 0
    out[cells, -1] &= 0xFF_FF00       # the separator, not the exponent's last digit
    flat = out.view(np.uint8)
    for cell, text in zip(cells.tolist(), texts):
        flat[cell, :len(text)] = np.frombuffer(text, np.uint8)


def csv_header(names) -> bytes:
    """The CSV header line of ``names``: plain identifiers, never quoted."""
    return (",".join(names) + "\r\n").encode("ascii")


def write_csv_rows(fh, columns) -> None:
    """Write the CSV lines of the rows of equal-length numpy ``columns`` to
    the binary file ``fh``, ``_CSV_BLOCK_CELLS`` cells at a time.

    Integer columns are written with ``%d``, all others as floats with
    ``%.17g`` (17 significant digits, so every float64 round-trips;
    non-finite values read ``nan``/``inf``/``-inf``), by
    :func:`_cell_slots`, whose text is byte for byte that of ``%``.
    Numbers never need quoting.
    """
    if not columns or not len(columns[0]):
        return
    width = len(columns)
    integer = [np.issubdtype(col.dtype, np.integer) for col in columns]
    sep = [44 << 8] * (width - 1) + [(13 << 8) | (10 << 16)]     # "," and "\r\n"
    rows = max(1, _CSV_BLOCK_CELLS // width)
    seps = np.tile(np.array(sep, "<u4"), rows)
    slots = np.empty((rows * width, _SLOT_QUADS), "<u4")
    block = np.zeros((rows, width))
    for start in range(0, len(columns[0]), rows):
        n = min(rows, len(columns[0]) - start)
        for j, col in enumerate(columns):
            if not integer[j]:
                block[:n, j] = col[start:start + n]
        _cell_slots(block[:n].reshape(-1), seps[:n * width], slots[:n * width])
        for j, col in enumerate(columns):
            if integer[j]:
                _put_text(slots, np.arange(j, n * width, width),
                          [b"%d" % v for v in col[start:start + n].tolist()])
        fh.write(slots[:n * width].tobytes().translate(None, b"\0"))


def write_csv(path, header, columns) -> Path:
    """RFC-4180 CSV (CRLF line endings, '.' decimal separator) of equal-length
    columns under a one-line header (see :func:`write_csv_rows`)."""
    columns = [np.asarray(col).reshape(-1) for col in columns]
    if len(header) != len(columns):
        raise InvalidArgumentError(f"{len(header)} header names for {len(columns)} columns")
    if any(len(col) != len(columns[0]) for col in columns):
        raise InvalidArgumentError("CSV columns differ in length")
    with atomic_files(path) as (fh,):
        fh.write(csv_header(header))
        write_csv_rows(fh, columns)
    return Path(path)
