"""File formats: sparse labeled data, trace CSV, returns CSV, config files.

The trace CSV renders floats with 17 significant digits so a parse of the
emitted file reproduces the trace bit-exactly.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .core import ConvergenceTrace, TraceRecord
from .errors import ParseError
from .problems import LabeledSparseDataset

TRACE_HEADER = "samples,epoch,objective,feasibility,beta,alpha,dist_to_ref,wall_time_s"


def _fmt(x: float) -> str:
    return "%.17g" % x


# libsvm byte classes; a line's tokens are split at separators as str.split()
# splits them, and CR and CRLF are read as newlines, as text mode reads them.
_SEP, _NEWLINE, _COLON, _DIGIT, _OTHER = range(5)
_SEPARATORS = b" \t\v\f\x1c\x1d\x1e\x1f"
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(_SEPARATORS)] = _SEP
_BYTE_CLASS[ord("\n")] = _NEWLINE
_BYTE_CLASS[ord(":")] = _COLON
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_AS_SPACE = bytes.maketrans(_SEPARATORS + b":", b" " * (len(_SEPARATORS) + 1))
_BLOCK_BYTES = 1 << 19      # bounds the parse's transient memory
_MAX_INDEX = 2.0 ** 53      # indices below it are exact as floats
_NO_ROWS = (np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0))


def _line_blocks(fh):
    """The bytes of a binary file in blocks of whole lines, each ending in a
    newline, cut after the last newline of each read of _BLOCK_BYTES."""
    pending = []
    while chunk := fh.read(_BLOCK_BYTES):
        while chunk.endswith(b"\r"):        # keep a CRLF pair in one chunk
            more = fh.read(1)
            if not more:
                break
            chunk += more
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    tail = b"".join(pending)
    if tail:
        yield tail + b"\n"


def _tokens(cls, newlines):
    """Start and end offsets of a block's tokens, and which open a line."""
    ws = cls <= _NEWLINE
    edge = np.diff(ws.view(np.int8), prepend=np.int8(1))
    starts, ends = np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)
    opens = np.zeros(len(starts), dtype=bool)
    after = np.searchsorted(starts, newlines)
    opens[after[after < len(starts)]] = True
    opens[:1] = True
    return starts, ends, opens


def _token(block, starts, ends, k) -> str:
    return block[starts[k]:ends[k]].decode("ascii", "backslashreplace")


def _parse_block(block: bytes, lineno: int):
    """(labels, entries per row, 0-based indices, values) of the data lines
    of `block`, whole lines that each end in a newline.

    Every check is local to a line. A fault raises a ParseError naming
    `lineno`, the block's first line, so a one-line block names its line.
    """
    u = np.frombuffer(block, dtype=np.uint8)
    cls = _BYTE_CLASS.take(u)
    newlines = np.flatnonzero(cls == _NEWLINE)
    starts, ends, opens = _tokens(cls, newlines)
    text = block.translate(_AS_SPACE)
    comments = starts[opens & (u[starts] == ord("#"))] if b"#" in block else []
    if len(comments):
        # blank each comment line up to its newline
        edge = np.zeros(len(u) + 1, dtype=np.int8)
        edge[comments] = 1
        edge[newlines[np.searchsorted(newlines, comments)]] = -1
        blank = np.cumsum(edge[:-1], dtype=np.int8).view(bool)
        cls[blank] = _SEP
        spaced = np.frombuffer(text, dtype=np.uint8).copy()
        spaced[blank] = ord(" ")
        text = spaced.tobytes()
        starts, ends, opens = _tokens(cls, newlines)
    if not len(starts):
        return _NO_ROWS
    if not text.isascii():
        raise ParseError("non-ASCII byte in a data line", lineno)
    entries = ~opens
    first, stop = starts[entries], ends[entries]
    colons = np.flatnonzero(cls == _COLON)
    if not (len(colons) == len(first) and np.all(colons > first)
            and np.all(colons < stop - 1)):
        owner = np.searchsorted(starts, colons, side="right") - 1
        count = np.bincount(owner, minlength=len(starts))
        edge_colon = (u[starts] == ord(":")) | (u[ends - 1] == ord(":"))
        k = np.flatnonzero(np.where(opens, count > 0,
                                    (count != 1) | edge_colon))[0]
        kind = "non-numeric label" if opens[k] else "malformed entry"
        raise ParseError(f"{kind} {_token(block, starts, ends, k)!r}", lineno)
    digits = np.zeros(len(u) + 1, dtype=np.int32)
    np.cumsum(cls == _DIGIT, out=digits[1:])
    not_digits = digits[colons] - digits[first] != colons - first
    if not_digits.any():
        k = np.flatnonzero(entries)[np.argmax(not_digits)]
        raise ParseError(
            f"non-numeric entry {_token(block, starts, ends, k)!r}", lineno)
    numbers = _numbers(text, len(starts) + len(colons))
    if numbers is None:
        raise ParseError("non-numeric label or value", lineno)
    # a row's numbers are its label, then an index and a value per entry
    last = 2 * np.arange(len(starts)) - (np.cumsum(opens) - 1)
    labels, at = numbers[last[opens]], last[entries]
    values, index = numbers[at], numbers[at - 1]
    out = (index < 1) | (index >= _MAX_INDEX)
    if out.any():
        k = np.argmax(out)
        if index[k] < 1:
            raise ParseError(f"index {int(index[k])} below 1", lineno)
        k = np.flatnonzero(entries)[k]
        raise ParseError("index not below 2**53 in entry "
                         f"{_token(block, starts, ends, k)!r}", lineno)
    row_start = opens[:-1][entries[1:]]
    falls = (index[1:] <= index[:-1]) & ~row_start[1:]
    if falls.any():
        k = np.argmax(falls)
        raise ParseError(f"non-ascending index {int(index[k + 1])} "
                         f"after {int(index[k])}", lineno)
    if not (np.isfinite(labels).all() and np.isfinite(values).all()):
        raise ParseError("non-finite value", lineno)
    lengths = np.diff(np.flatnonzero(opens), append=len(starts)) - 1
    return labels, lengths, index.astype(np.int64) - 1, values


def _numbers(text: bytes, count: int):
    """The `count` numbers of whitespace-separated `text`, or None if a token
    is not one number. numpy 2 raises on such a token; numpy 1 warns and
    returns the numbers read up to it, and a prefix of it that reads as a
    number, so the warning refuses too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            numbers = np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return numbers if numbers.size == count else None


def _first_fault(block: bytes, lineno: int) -> Optional[ParseError]:
    """The ParseError of the first line of a refused block that is refused on
    its own: every check is local to a line."""
    for i, line in enumerate(block.splitlines(keepends=True)):
        try:
            _parse_block(line, lineno + i)
        except ParseError as fault:
            return fault
    return None


def parse_libsvm(path, dim: Optional[int] = None) -> LabeledSparseDataset:
    """Read `label idx:val idx:val ...` lines (1-based, strictly ascending).

    Blank lines and lines whose first token starts with '#' are skipped.
    Tokens are separated by blanks; a label or value is a finite decimal
    number, an index ASCII digits. The dimension is the largest index seen
    unless overridden. The file is read in blocks of about 512 KB of whole
    lines, each parsed and checked in bulk, so memory stays bounded; a
    ParseError names the first faulty line.
    """
    parts, lineno = [_NO_ROWS], 1
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            try:
                parts.append(_parse_block(block, lineno))
            except ParseError as fault:
                raise _first_fault(block, lineno) or fault from None
            lineno += block.count(b"\n")
    labels, lengths, indices, data = map(np.concatenate, zip(*parts))
    del parts
    if not len(labels):
        raise ValueError(f"no data rows in {path}")
    if not len(indices):
        raise ValueError(f"no feature entries in {path}")
    max_idx = int(indices.max()) + 1
    if dim is None:
        dim = max_idx
    elif dim < max_idx:
        raise ValueError(f"dim override {dim} below largest index {max_idx}")
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return LabeledSparseDataset(indptr=indptr, indices=indices, data=data,
                                labels=labels, dim=dim)


def serialize_libsvm(dataset: LabeledSparseDataset, path) -> None:
    """Write the dataset back in 1-based `label idx:val` form."""
    with open(path, "w") as fh:
        for i in range(len(dataset)):
            parts = [_fmt(dataset.labels[i])]
            idx, vals = dataset.row(i)
            parts.extend(f"{j + 1}:{_fmt(v)}" for j, v in zip(idx, vals))
            fh.write(" ".join(parts) + "\n")


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """Emit one row per record under the fixed header; empty ref column when
    no reference point was supplied."""
    try:
        with open(path, "w") as fh:
            fh.write(TRACE_HEADER + "\n")
            for r in trace.records:
                ref = "" if r.dist_to_ref is None else _fmt(r.dist_to_ref)
                fh.write(",".join([
                    str(r.samples), str(r.epoch), _fmt(r.objective),
                    _fmt(r.feasibility), _fmt(r.beta), _fmt(r.alpha),
                    ref, _fmt(r.wall_time),
                ]) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def read_trace_csv(path) -> ConvergenceTrace:
    trace = ConvergenceTrace()
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ParseError(f"unexpected trace header {header!r}", 1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ParseError(f"expected 8 fields, got {len(parts)}", lineno)
            try:
                trace.append(TraceRecord(
                    samples=int(parts[0]), epoch=int(parts[1]),
                    objective=float(parts[2]), feasibility=float(parts[3]),
                    beta=float(parts[4]), alpha=float(parts[5]),
                    dist_to_ref=None if parts[6] == "" else float(parts[6]),
                    wall_time=float(parts[7]),
                ))
            except ValueError as exc:
                raise ParseError(str(exc), lineno)
    return trace


def read_returns_csv(path) -> np.ndarray:
    """Read a returns matrix of finite cells: days x assets; optional header."""
    rows = []
    width = None
    header_allowed = True
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header_allowed:
                header_allowed = False
                try:
                    float(cells[0])
                except ValueError:
                    continue  # header row
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ParseError(f"non-numeric cell ({exc})", lineno)
            if not all(map(math.isfinite, row)):
                raise ParseError("non-finite cell", lineno)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    f"ragged row: {len(row)} cells, expected {width}", lineno)
            rows.append(row)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.array(rows)


def load_config_file(path) -> dict:
    """Flat `key = value` config; '#' starts a comment, blank lines ignored."""
    out = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {line!r}", lineno)
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ParseError("empty key", lineno)
            out[key] = value.strip()
    return out

