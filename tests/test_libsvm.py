"""The block parser of libsvm files against the per-line parser it replaced.

`reference_parse_libsvm` is that parser, kept here as the reference: it reads
the file in text mode and checks every token in a Python loop. Where it
accepts a file, `parse_libsvm` must return the same arrays, bit for bit;
where it refuses one, `parse_libsvm` must name the first line that it refuses
when that line is read alone. `parse_libsvm` refuses by design a few forms the
reference accepts; `narrowed` names them.
"""

import math
import re
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest

import sasc.trace_io
from sasc.errors import ParseError
from sasc.problems import LabeledSparseDataset
from sasc.trace_io import parse_libsvm


def _reference_first_nonfinite_line(path) -> int:
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.lstrip().startswith("#") and not all(
                    math.isfinite(float(t.rpartition(":")[2]))
                    for t in line.split()):
                return lineno


def reference_parse_libsvm(path, dim=None) -> LabeledSparseDataset:
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
        raise ParseError("non-finite value", _reference_first_nonfinite_line(path))
    if dim is None:
        dim = max_idx
    elif dim < max_idx:
        raise ValueError(f"dim override {dim} below largest index {max_idx}")
    return LabeledSparseDataset(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        indices=np.frombuffer(indices, dtype=np.int64),
        data=data, labels=labels, dim=dim)


def narrowed(line: str) -> bool:
    """An index that `int` reads but that is not ASCII digits below 2**53."""
    tokens = line.split()
    if not tokens or tokens[0].startswith("#"):
        return False
    heads = [t.partition(":")[0] for t in tokens[1:]]
    return any(not (h.isascii() and h.isdigit()) or int(h) >= 2 ** 53
               for h in heads)


def line_refused(path, line: str) -> bool:
    """The reference refuses `line` read alone, beside one valid row."""
    path.write_bytes(line.encode() + b"\n1 1:1\n")
    try:
        reference_parse_libsvm(path)
    except ParseError:
        return True
    return narrowed(line)


def assert_same_dataset(ours, ref):
    for name in ("indptr", "indices", "data", "labels"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert ours.dim == ref.dim and type(ours.dim) is type(ref.dim)


def assert_matches_reference(path, lines, scratch):
    """`parse_libsvm(path)` agrees with the reference on a file of `lines`."""
    bad = [i for i, line in enumerate(lines, start=1)
           if line_refused(scratch, line)]
    if bad:
        with pytest.raises(ParseError) as err:
            parse_libsvm(path)
        assert err.value.line == bad[0], (path.read_bytes(), str(err.value))
        return
    try:
        ref = reference_parse_libsvm(path)
    except ValueError as exc:       # no rows, or no entries
        with pytest.raises(ValueError) as err:
            parse_libsvm(path)
        assert not isinstance(err.value, ParseError)
        assert str(err.value) == str(exc)
        return
    assert_same_dataset(parse_libsvm(path), ref)


@pytest.fixture(params=[None, 7], ids=["512KB-blocks", "7-byte-reads"])
def block_bytes(request, monkeypatch):
    """Run with the parser's block size, and with reads so short that most
    lines, CRLF pairs included, are cut across reads."""
    if request.param:
        monkeypatch.setattr(sasc.trace_io, "_BLOCK_BYTES", request.param)


_REAL_FROMSTRING = np.fromstring
_NUMBER_PREFIX = re.compile(
    rb"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|infinity|inf|nan)", re.I)


def numpy1_fromstring(text, sep):
    """numpy 1.x `fromstring`: at a token that is not one number it warns and
    returns the numbers before it and the longest prefix of it that reads as
    a number, so `3 1.5.3` gives [3, 1.5], as many numbers as tokens."""
    try:
        return _REAL_FROMSTRING(text, sep=sep)
    except ValueError:
        pass
    numbers = []
    for token in text.split():
        prefix = _NUMBER_PREFIX.match(token)
        if prefix:
            numbers.append(float(prefix.group()))
        if not prefix or prefix.end() < len(token):
            break
    warnings.warn("string or file could not be read to its end due to "
                  "unmatched data; this will raise a ValueError in the "
                  "future.", DeprecationWarning)
    return np.array(numbers)


@pytest.fixture(params=["numpy2", "numpy1"])
def numpy_major(request, monkeypatch):
    """Run with the installed numpy's `fromstring`, and with numpy 1.x's."""
    if request.param == "numpy1":
        monkeypatch.setattr(np, "fromstring", numpy1_fromstring)


FIXED = {
    "crlf": b"1 1:0.5 3:2\r\n-1 2:1\r\n",
    "no-final-newline": b"1 1:0.5\n-1 2:1",
    "tabs": b"1\t1:0.5\t3:2\n-1\t\t2:1\n",
    "blanks-around": b"  1 1:0.5 3:2   \n\t-1 2:1 \t\n   \n",
    "comments-and-blank-lines": b"# head 1:2 x\n\n1 1:1\n   # 3:4\n\n\n-1 2:2\n#\n",
    "label-only-rows": b"1\n-1 4:1\n+1\n",
    "plus-labels": b"+1 1:1\n+1.0 2:-1\n-1 3:+2\n",
    "exponents": b"1e0 1:1e-3 2:2.5E+2 3:-.5e1 4:5.\n-1 5:1E3\n",
    "leading-zero-indices": b"1 01:1 002:2 0010:3\n",
    "vertical-tab-and-form-feed": b"1\x0b1:1\x0c2:2\n\x0c-1 3:1\n",
    "unit-separators": b"1\x1c1:1\x1f2:2\n",
    "lone-cr": b"1 1:1\r-1 2:2\r1 3:3\n",
    "cr-runs": b"1 1:1\r\r\n\r-1 2:2\n",
    "utf8-comment": "# r\u00e9sum\u00e9 \u2014 1:2\n1 1:1\n".encode(),
}


@pytest.mark.parametrize("name", list(FIXED))
def test_fixed_files_parse_as_the_reference(name, tmp_path, block_bytes,
                                             numpy_major):
    path = tmp_path / "d.svm"
    path.write_bytes(FIXED[name])
    assert_same_dataset(parse_libsvm(path), reference_parse_libsvm(path))


# Forms the reference accepts and the block parser refuses: each is named at
# its own line and never read as a number.
NARROWED = {
    "signed-index": b"1 1:1\n1 +3:1\n",
    "underscore-index": b"1 1:1\n1 0_3:1\n",
    "underscore-value": b"1 1:1\n1 3:1_0\n",
    "underscore-label": b"1 1:1\n1_0 3:1\n",
    "nbsp-separator": "1 1:1\n1\u00a03:1\n".encode(),
    "arabic-indic-index": "1 1:1\n1 \u0663:1\n".encode(),
    "fullwidth-value": "1 1:1\n1 3:\uff11\n".encode(),
    "index-above-2**53": b"1 1:1\n1 9007199254740993:1\n",
}


@pytest.mark.parametrize("name", list(NARROWED))
def test_narrowed_forms_are_refused_at_their_line(name, tmp_path, block_bytes,
                                                 numpy_major):
    path = tmp_path / "d.svm"
    path.write_bytes(NARROWED[name])
    reference_parse_libsvm(path)            # the reference accepts each
    with pytest.raises(ParseError) as err:
        parse_libsvm(path)
    assert err.value.line == 2


REFUSED = {
    "second-colon": (b"1 1:1\n1 2:3:4\n", "malformed entry '2:3:4'"),
    "bare-colon": (b"1 1:1\n1 3:\n", "malformed entry '3:'"),
    "colon-first": (b"1 1:1\n1 :3\n", "malformed entry ':3'"),
    "colon-in-label": (b"1 1:1\n1:2 3:4\n", "non-numeric label '1:2'"),
    "stray-token-and-bare-colon": (b"1 1:1\n1 2 3:4\n1 3:\n",
                                   "malformed entry '2'"),
    "letter-index": (b"1 1:1\n1 x:1\n", "non-numeric entry 'x:1'"),
    "nan-index": (b"1 1:1\n1 nan:1\n", "non-numeric entry 'nan:1'"),
    "two-dots": (b"1 1:1\n1 3:1.5.3\n", "non-numeric label or value"),
    "inner-sign": (b"1 1:1\n1 3:1-2\n", "non-numeric label or value"),
    "hex-value": (b"1 1:1\n1 3:0x10\n", "non-numeric label or value"),
    "hash-inside": (b"1 1:1\n1 3:1 # c\n", "malformed entry '#'"),
    "nul-byte": (b"1 1:1\n1 3:1\x00\n", "non-numeric label or value"),
    "index-zero": (b"1 1:1\n1 00:1\n", "index 0 below 1"),
    "overflow-value": (b"1 1:1\n1 3:1e999\n", "non-finite value"),
    "overflow-index": (b"1 1:1\n1 " + b"9" * 400 + b":1\n",
                       "index not below 2**53 in entry '" + "9" * 400 + ":1'"),
    "descending": (b"1 1:1\n1 3:1 2:1\n", "non-ascending index 2 after 3"),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_refusals_name_the_first_faulty_line(name, tmp_path, block_bytes,
                                             numpy_major):
    text, message = REFUSED[name]
    path = tmp_path / "d.svm"
    path.write_bytes(text)
    with pytest.raises(ParseError) as err:
        parse_libsvm(path)
    assert str(err.value) == f"line 2: {message}"


@pytest.mark.parametrize("text, numbers", [
    (b"3 1.5.3\n", [3, 1.5]), (b"3 1-2 4\n", [3, 1]), (b"3 x 4\n", [3])])
def test_numpy1_emulation_reads_a_bad_tokens_prefix(text, numbers):
    with pytest.warns(DeprecationWarning, match="could not be read"):
        assert numpy1_fromstring(text, sep=" ").tolist() == numbers


@pytest.mark.parametrize("text, line", [
    (b"1 1:1\n1 2:1\n-1 3:1.5.3\n1 4:1\n", 3),   # tokens follow the bad one
    (b"1 1:1\n-1 3:1.5.3\n", 2),                   # the bad token is the last
    (b"1 1:1\n-1 3:1-2", 2),
    (b"1 1:1\n-1 3:0x10 4:1\n-1 5:1e0.5\n", 2),
])
def test_numpy1_prefix_read_is_refused(text, line, tmp_path, monkeypatch):
    monkeypatch.setattr(np, "fromstring", numpy1_fromstring)
    path = tmp_path / "d.svm"
    path.write_bytes(text)
    with pytest.raises(ParseError, match="non-numeric") as err:
        parse_libsvm(path)
    assert err.value.line == line


ALPHABET = "0123456789+-.eE: \t\n#"


def _fuzz_lines(rng):
    lines = []
    for _ in range(int(rng.integers(1, 8))):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
        elif kind < 0.2:
            lines.append(rng.choice(["#", "  # 1:2", "#x 3"]))
        else:
            idx = np.sort(rng.choice(40, size=int(rng.integers(0, 5)),
                                     replace=False)) + 1
            label = rng.choice(["1", "-1", "+1", "0.5", "2e1"])
            fmts = ["%.3g", "%e", "%.4f", "%g"]
            entries = [("%0*d" % (int(rng.integers(1, 4)), j)) + ":" +
                       rng.choice(fmts) % rng.standard_normal() for j in idx]
            lines.append(" ".join([label] + entries))
    return lines


def _mutate(text, rng):
    chars = list(text)
    for _ in range(int(rng.integers(0, 4))):
        op, at = rng.random(), int(rng.integers(0, len(chars) + 1))
        new = ALPHABET[int(rng.integers(0, len(ALPHABET)))]
        if op < 0.4:
            chars.insert(at, new)
        elif chars and op < 0.7:
            del chars[min(at, len(chars) - 1)]
        elif chars:
            chars[min(at, len(chars) - 1)] = new
    return "".join(chars)


def test_fuzzed_files_agree_with_the_reference(tmp_path, block_bytes,
                                               numpy_major):
    rng = np.random.default_rng(20241019)
    path, scratch = tmp_path / "f.svm", tmp_path / "line.svm"
    outcomes = {"accepted": 0, "refused": 0}
    for _ in range(400):
        text = "\n".join(_fuzz_lines(rng)) + rng.choice(["\n", ""])
        text = _mutate(text, rng)
        path.write_text(text)
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        assert_matches_reference(path, lines, scratch)
        try:
            parse_libsvm(path)
            outcomes["accepted"] += 1
        except ValueError:
            outcomes["refused"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_parse_memory_is_bounded_by_the_file_size(tmp_path):
    # rows shaped as the svm benchmark's: 20 entries of 4 decimals each
    rng = np.random.default_rng(0)
    rows, nnz, dim = 14_000, 20, 1000
    idx = np.sort(rng.choice(dim, size=(rows, nnz)), axis=1) + 1
    idx += np.arange(nnz)                       # strictly ascending
    vals = np.round(rng.standard_normal((rows, nnz)), 4)
    fmt = " ".join(["%d:%.4f"] * nnz)
    cells = np.empty((rows, 2 * nnz), dtype=object)
    cells[:, 0::2], cells[:, 1::2] = idx, vals
    path = tmp_path / "big.svm"
    with open(path, "w") as fh:
        fh.writelines(("+1 " if i % 2 else "-1 ") + fmt % tuple(row) + "\n"
                      for i, row in enumerate(cells.tolist()))
    size = path.stat().st_size
    assert size > 3_000_000
    tracemalloc.start()
    try:
        ds = parse_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == rows and ds.data.size == rows * nnz
    assert peak <= 6 * size, peak / size
