"""File formats: sparse labeled data, trace CSV, returns CSV, config files.

The trace CSV renders floats with 17 significant digits so a parse of the
emitted file reproduces the trace bit-exactly.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional

import numpy as np

from .core import ConvergenceTrace, TraceRecord
from .errors import ParseError
from .problems import LabeledSparseDataset

TRACE_HEADER = "samples,epoch,objective,feasibility,beta,alpha,dist_to_ref,wall_time_s"


def _fmt(x: float) -> str:
    return "%.17g" % x


def _first_nonfinite_line(path) -> int:
    """The first libsvm line with a non-finite label or value; the file is
    read again only once the bulk check of the parsed arrays has failed."""
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.lstrip().startswith("#") and not all(
                    math.isfinite(float(t.rpartition(":")[2]))
                    for t in line.split()):
                return lineno


def parse_libsvm(path, dim: Optional[int] = None) -> LabeledSparseDataset:
    """Read `label idx:val idx:val ...` lines (1-based, strictly ascending).

    Blank lines and lines starting with '#' are skipped; the dimension is the
    largest index seen unless overridden. Each line is checked as it is read,
    so a ParseError names the first faulty line, and its entries go into the
    CSR buffers with one append. Labels and values must be finite: they are
    checked in bulk once the file is read.
    """
    indptr, indices = array("q", [0]), array("q")
    data, labels = array("d"), array("d")
    max_idx = 0
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"non-numeric label {tokens[0]!r}", lineno)
            idx, vals = [], []
            prev = 0
            for tok in tokens[1:]:
                head, sep, tail = tok.partition(":")
                if not sep:
                    raise ParseError(f"malformed entry {tok!r}", lineno)
                try:
                    j = int(head)
                    v = float(tail)
                except ValueError:
                    raise ParseError(f"non-numeric entry {tok!r}", lineno)
                if j < 1:
                    raise ParseError(f"index {j} below 1", lineno)
                if j <= prev:
                    raise ParseError(
                        f"non-ascending index {j} after {prev}", lineno)
                prev = j
                idx.append(j - 1)
                vals.append(v)
            max_idx = max(max_idx, prev)
            indices.extend(idx)
            data.extend(vals)
            indptr.append(len(indices))
            labels.append(label)
    if not labels:
        raise ValueError(f"no data rows in {path}")
    if not indices:
        raise ValueError(f"no feature entries in {path}")
    data, labels = np.frombuffer(data, dtype=float), np.frombuffer(labels, dtype=float)
    if not (np.isfinite(data).all() and np.isfinite(labels).all()):
        raise ParseError("non-finite value", _first_nonfinite_line(path))
    if dim is None:
        dim = max_idx
    elif dim < max_idx:
        raise ValueError(f"dim override {dim} below largest index {max_idx}")
    return LabeledSparseDataset(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=np.frombuffer(indices, dtype=np.int64),
        data=data, labels=labels, dim=dim)


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

