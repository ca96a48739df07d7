"""Atomic, deterministic file output.

Every artifact is written to a temporary file in the target directory and
renamed into place, so a crash never leaves a partially written output.
JSON is serialized with sorted keys and non-finite floats mapped to the
strings "inf"/"-inf"/"nan" (strict JSON has no literals for them), which
keeps files byte-identical across reruns.  Every CSV line comes from
:func:`csv_header` and :func:`write_csv_rows`, so the CSV format is decided
here alone; :func:`write_csv` writes whole columns with them, and
``abc sample`` writes its table one chunk of rows at a time.
"""

from __future__ import annotations

import itertools
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


# rows formatted at a time; bounds the cells and text held while writing
_CSV_CHUNK_ROWS = 1 << 10


def csv_header(names) -> bytes:
    """The CSV header line of ``names``: plain identifiers, never quoted."""
    return (",".join(names) + "\r\n").encode("ascii")


def write_csv_rows(fh, columns) -> None:
    """Write the CSV lines of the rows of equal-length numpy ``columns`` to
    the binary file ``fh``, ``_CSV_CHUNK_ROWS`` rows at a time.

    Integer columns are written with ``%d``, all others as floats with
    ``%.17g`` (17 significant digits, so every float64 round-trips;
    non-finite values read ``nan``/``inf``/``-inf``).  Each chunk is one
    ``%`` over a repeated row template, which gives the same text as
    formatting cell by cell.  Numbers never need quoting.
    """
    row = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.17g"
                   for col in columns) + "\r\n"
    for start in range(0, len(columns[0]) if columns else 0, _CSV_CHUNK_ROWS):
        chunk = [col[start:start + _CSV_CHUNK_ROWS].tolist() for col in columns]
        cells = tuple(itertools.chain.from_iterable(zip(*chunk)))
        fh.write((row * len(chunk[0]) % cells).encode("ascii"))


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
