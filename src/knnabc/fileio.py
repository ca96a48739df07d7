"""Atomic, deterministic file output.

Every artifact is written to a temporary file in the target directory and
renamed into place, so a crash never leaves a partially written output.
JSON is serialized with sorted keys and non-finite floats mapped to the
strings "inf"/"-inf"/"nan" (strict JSON has no literals for them), which
keeps files byte-identical across reruns.  Every CSV goes through
:func:`write_csv`, so the CSV format is decided here alone.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from contextlib import suppress
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


def atomic_write_bytes(path, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        # mkstemp creates the file 0600 whatever the umask; give the output
        # the mode an ordinary open() would have
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def write_json(path, obj) -> Path:
    """``obj`` as indented JSON with sorted keys (see :func:`jsonify`)."""
    text = json.dumps(jsonify(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))


# rows formatted per chunk; bounds the temporary cell tuple and string
_CSV_CHUNK_ROWS = 1 << 16


def write_csv(path, header, columns) -> Path:
    """RFC-4180 CSV (CRLF line endings, '.' decimal separator) of equal-length
    columns under a one-line header.

    Integer columns are written with ``%d``, all others as floats with
    ``%.17g`` (17 significant digits, so every float64 round-trips; non-finite
    values read ``nan``/``inf``/``-inf``).  Numbers never need quoting and
    the header names are plain identifiers, so nothing is quoted.
    Rows are formatted in chunks, each by one ``%`` over a repeated row
    template, which gives the same text as formatting cell by cell.
    """
    columns = [np.asarray(col).reshape(-1) for col in columns]
    if len(header) != len(columns):
        raise InvalidArgumentError(f"{len(header)} header names for {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise InvalidArgumentError("CSV columns differ in length")
    row_fmt = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.17g"
                       for col in columns) + "\r\n"
    parts = [(",".join(header) + "\r\n").encode("ascii")]
    for start in range(0, n_rows, _CSV_CHUNK_ROWS):
        chunk = [col[start:start + _CSV_CHUNK_ROWS].tolist() for col in columns]
        cells = tuple(itertools.chain.from_iterable(zip(*chunk)))
        parts.append((row_fmt * len(chunk[0]) % cells).encode("ascii"))
    return atomic_write_bytes(path, b"".join(parts))
