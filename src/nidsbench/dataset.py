"""KDD99-family schema, record parsing, dataset loading and fetching.

Records are plain comma-separated lines: 41 feature fields followed by a
class label that may carry a trailing period ("smurf."). The loader parses
the distinct lines in blocks, each split into columns, and hands them to
`ColumnCoder`, the one coder of nominal symbols and class labels, which
stores a Dataset as a numeric matrix, a nominal code matrix and label codes
for the learners. A block that breaks a record rule is parsed again line by
line by `_parse_fields`, which names the first bad line and field. Codes
mean something only together with the schema they were made against, so a
fitted model accepts only data with that same schema.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import os
import urllib.parse
import urllib.request
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

NUMERIC = "numeric"
NOMINAL = "nominal"


class DataError(ValueError):
    """The input is at fault: a missing, empty, corrupt or unparsable file,
    an unknown label, a file too small for the run, a bad URL. The CLI exits
    2 on it."""


class ParseError(DataError):
    """A record line violates the 42-field KDD record format."""


class IntegrityError(DataError):
    """A fetched file's SHA-256 digest does not match the expected digest."""


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str  # NUMERIC or NOMINAL
    domain: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute descriptors plus the ordered class-label set.
    Commands start from `kdd99_schema()` and derive every other schema
    from it, so names are unique and kinds are NUMERIC or NOMINAL."""

    attributes: tuple[Attribute, ...]
    class_labels: tuple[str, ...] = ()

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def numeric_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.attributes) if a.kind == NUMERIC)

    @property
    def nominal_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.attributes) if a.kind == NOMINAL)


@dataclass(frozen=True)
class Dataset:
    """Immutable, schema-conformant collection of instances.

    `numeric` is (n, n_numeric) float64, `nominal` is (n, n_nominal) int32
    codes into the matching attribute domains, `labels` is (n,) int32 codes
    into `schema.class_labels`. Column j of `numeric` corresponds to
    `schema.numeric_positions[j]`, and likewise for `nominal`.
    """

    schema: AttributeSchema
    numeric: np.ndarray
    nominal: np.ndarray
    labels: np.ndarray
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray | Sequence[int], note: str = "") -> "Dataset":
        idx = np.asarray(indices)
        prov = self.provenance + (f"; {note}" if note else "")
        return Dataset(self.schema, self.numeric[idx], self.nominal[idx],
                       self.labels[idx], prov)

    def with_provenance(self, note: str) -> "Dataset":
        return replace(self, provenance=self.provenance + f"; {note}")


# The canonical 41-attribute connection-record layout. The seven symbolic
# attributes follow the official kddcup.names declaration.
_KDD_ATTRIBUTES = (
    ("duration", NUMERIC), ("protocol_type", NOMINAL), ("service", NOMINAL),
    ("flag", NOMINAL), ("src_bytes", NUMERIC), ("dst_bytes", NUMERIC),
    ("land", NOMINAL), ("wrong_fragment", NUMERIC), ("urgent", NUMERIC),
    ("hot", NUMERIC), ("num_failed_logins", NUMERIC), ("logged_in", NOMINAL),
    ("num_compromised", NUMERIC), ("root_shell", NUMERIC),
    ("su_attempted", NUMERIC), ("num_root", NUMERIC),
    ("num_file_creations", NUMERIC), ("num_shells", NUMERIC),
    ("num_access_files", NUMERIC), ("num_outbound_cmds", NUMERIC),
    ("is_host_login", NOMINAL), ("is_guest_login", NOMINAL),
    ("count", NUMERIC), ("srv_count", NUMERIC), ("serror_rate", NUMERIC),
    ("srv_serror_rate", NUMERIC), ("rerror_rate", NUMERIC),
    ("srv_rerror_rate", NUMERIC), ("same_srv_rate", NUMERIC),
    ("diff_srv_rate", NUMERIC), ("srv_diff_host_rate", NUMERIC),
    ("dst_host_count", NUMERIC), ("dst_host_srv_count", NUMERIC),
    ("dst_host_same_srv_rate", NUMERIC), ("dst_host_diff_srv_rate", NUMERIC),
    ("dst_host_same_src_port_rate", NUMERIC),
    ("dst_host_srv_diff_host_rate", NUMERIC), ("dst_host_serror_rate", NUMERIC),
    ("dst_host_srv_serror_rate", NUMERIC), ("dst_host_rerror_rate", NUMERIC),
    ("dst_host_srv_rerror_rate", NUMERIC),
)


def kdd99_schema() -> AttributeSchema:
    """The raw 41-attribute schema with empty (to-be-accumulated) domains."""
    return AttributeSchema(tuple(Attribute(n, k) for n, k in _KDD_ATTRIBUTES))


# Distinct lines are parsed this many at a time. A block's fields, as Python
# strings, are the parse's working set: about 0.6 MB for 256 KDD lines,
# where splitting the whole file at once peaked at 251 MiB.
_BLOCK_LINES = 256


def _record_fields(line: str, expected: int) -> list[str]:
    """A line's comma-separated fields, less NSL-KDD's optional trailing
    "difficulty" column (one integer field more than `expected`)."""
    fields = line.split(",")
    if len(fields) == expected + 1:
        last = fields[-1]
        if last.isascii() and last.isdigit():
            del fields[-1]
    return fields


def _parse_fields(fields: list[str], schema: AttributeSchema,
                  line_no: int) -> tuple[tuple, str]:
    """One record's fields as (values, label), or the ParseError that names
    its first malformed field. The label's single trailing "." (as in the
    official files) is stripped, and nothing else normalized."""
    ctx = f"line {line_no}: "
    expected = schema.n_attributes + 1
    if len(fields) != expected:
        raise ParseError(f"{ctx}expected {expected} fields, got {len(fields)}")
    label = fields[-1]
    if label.endswith("."):
        label = label[:-1]
    if not label:
        raise ParseError(f"{ctx}empty class label")
    values = []
    for pos, attr in enumerate(schema.attributes):
        raw = fields[pos]
        if attr.kind == NUMERIC:
            try:
                v = float(raw)
            except ValueError:
                raise ParseError(
                    f"{ctx}field {pos + 1} ({attr.name}): "
                    f"cannot parse {raw!r} as a number") from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{ctx}field {pos + 1} ({attr.name}): non-finite value {raw!r}")
            values.append(v)
        else:
            if not raw:
                raise ParseError(f"{ctx}field {pos + 1} ({attr.name}): empty value")
            values.append(raw)
    return tuple(values), label


class ColumnCoder:
    """The one coder of nominal symbols and class labels.

    Fills a Dataset of `n` rows, given block by block as columns. Symbols and
    labels not already in `schema` get the next code when first seen, and
    `dataset()` freezes them, in that order, into the dataset's schema.
    """

    def __init__(self, schema: AttributeSchema, n: int):
        self._schema = schema
        self._domains: list[dict[str, int]] = [
            {sym: i for i, sym in enumerate(schema.attributes[p].domain)}
            for p in schema.nominal_positions]
        self._labels = {lab: i for i, lab in enumerate(schema.class_labels)}
        self._numeric = np.empty((n, len(schema.numeric_positions)), np.float64)
        self._nominal = np.empty((n, len(self._domains)), np.int32)
        self._label_codes = np.empty(n, np.int32)
        self._filled = 0

    def add(self, numeric, nominal: Sequence[Sequence[str]],
            labels: Sequence[str]) -> None:
        """Append the next len(labels) rows. `numeric` holds one column of
        values per numeric attribute, `nominal` one column of symbols per
        nominal attribute, both in schema order."""
        m = len(labels)
        rows = slice(self._filled, self._filled + m)
        self._numeric[rows] = np.reshape(numeric, (self._numeric.shape[1], m)).T
        for j, (codes, column) in enumerate(zip(self._domains, nominal)):
            self._nominal[rows, j] = [codes.setdefault(s, len(codes))
                                      for s in column]
        codes = self._labels
        self._label_codes[rows] = [codes.setdefault(lab, len(codes))
                                   for lab in labels]
        self._filled += m

    def dataset(self, provenance: str = "") -> Dataset:
        attrs = list(self._schema.attributes)
        for codes, p in zip(self._domains, self._schema.nominal_positions):
            attrs[p] = replace(attrs[p], domain=tuple(codes))
        frozen = AttributeSchema(tuple(attrs), tuple(self._labels))
        return Dataset(frozen, self._numeric, self._nominal,
                       self._label_codes, provenance)


def _block_columns(records: list[list[str]], schema: AttributeSchema):
    """(numeric (n_numeric, m) float64, nominal columns, labels) of a block
    of records, or None if any record breaks a rule of `_parse_fields`."""
    expected = schema.n_attributes + 1
    if any(len(r) != expected for r in records):
        return None
    columns = list(zip(*records))
    labels = [lab[:-1] if lab.endswith(".") else lab for lab in columns[-1]]
    nominal = [columns[p] for p in schema.nominal_positions]
    try:  # the same float() as _parse_fields: the same tokens, the same bits
        numeric = np.array([list(map(float, columns[p]))
                            for p in schema.numeric_positions], np.float64)
    except ValueError:
        return None
    if "" in labels or any("" in col for col in nominal) \
            or not np.isfinite(numeric).all():
        return None
    return numeric, nominal, labels


def _code_block(lines: list[str], line_nos: np.ndarray,
                schema: AttributeSchema, coder: ColumnCoder) -> None:
    """Parse a block of lines, found at `line_nos`, into `coder`. If the
    block holds a malformed line, raise the ParseError of the first one."""
    expected = schema.n_attributes + 1
    records = [_record_fields(line, expected) for line in lines]
    columns = _block_columns(records, schema)
    if columns is None:
        for fields, line_no in zip(records, line_nos.tolist()):
            _parse_fields(fields, schema, line_no)
        raise RuntimeError(f"lines {line_nos[0]}-{line_nos[-1]}: the block "
                           "check rejected lines that parse one by one")
    coder.add(*columns)


def _read_text(path: Path) -> str:
    data = path.read_bytes()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise DataError(f"{path}: corrupt or truncated gzip data: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line as str.splitlines numbers it ("x" stands in for it)
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}: line {line_no}: invalid UTF-8 byte "
                         f"{data[exc.start:exc.start + 1]!r}") from None


def load_dataset(path: str | Path, schema: AttributeSchema | None = None) -> Dataset:
    """Load a KDD-format file (optionally gzipped) into a Dataset.

    One instance per non-empty line, file order preserved. NSL-KDD's optional
    trailing "difficulty" column (an extra 43rd integer field) is dropped.
    Any line-level parse error aborts the load with line/field context.

    KDD files are mostly exact duplicate records, so each distinct line is
    parsed and coded once, in first-seen order, and the rows are expanded
    from it by index. Equal lines parse equally, and the first malformed
    distinct line is the first malformed line, reported at its line number.
    """
    path = Path(path)
    schema = schema if schema is not None else kdd99_schema()
    lines = _read_text(path).splitlines()

    first_line_no: dict[str, int] = {}  # distinct line -> where it first appears
    rows = [first_line_no.setdefault(ln, no)
            for no, ln in enumerate(lines, 1) if ln.strip()]
    if not rows:
        raise DataError(f"{path}: no instances")
    # first line numbers rise in first-seen order, so a row's rank among them
    # is the id of its distinct line
    first = np.fromiter(first_line_no.values(), np.intp)
    idx = np.searchsorted(first, rows)
    distinct = list(first_line_no)
    del rows, first_line_no

    coder = ColumnCoder(schema, len(distinct))
    for start in range(0, len(distinct), _BLOCK_LINES):
        stop = start + _BLOCK_LINES
        _code_block(distinct[start:stop], first[start:stop], schema, coder)
    # The duplicate lines are freed only now, with the rest of the text and
    # before the rows expand. Freed earlier, they leave gaps among the
    # distinct lines that the parse's short-lived objects fill, and the few
    # that outlive it (new symbols, floats kept for reuse) keep that memory
    # mapped after the text is gone.
    del lines, distinct
    ds = coder.dataset(f"loaded {path}")
    # a file of distinct lines (NSL-KDD) has its rows already: idx is 0..n-1
    return ds if len(idx) == len(ds) else ds.subset(idx)


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Serialize back to the comma-separated record format (no label dot)."""
    num_pos = ds.schema.numeric_positions
    nom_pos = ds.schema.nominal_positions
    domains = [ds.schema.attributes[p].domain for p in nom_pos]
    with open(path, "w") as fh:
        for i in range(len(ds)):
            fields = [""] * ds.schema.n_attributes
            for j, pos in enumerate(num_pos):
                fields[pos] = repr(float(ds.numeric[i, j]))
            for j, pos in enumerate(nom_pos):
                fields[pos] = domains[j][ds.nominal[i, j]]
            fields.append(ds.schema.class_labels[ds.labels[i]])
            fh.write(",".join(fields) + "\n")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fetch_dataset(name: str, url: str, expected_digest: str,
                  cache_dir: str | Path) -> Path:
    """Return a digest-verified local copy of a dataset file.

    A cached copy whose SHA-256 matches `expected_digest` is returned without
    touching the network; a mismatching cached copy is removed and fetched
    again. A mismatching download is deleted and raises IntegrityError.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    suffix = Path(urllib.parse.urlsplit(url).path).suffix
    target = cache_dir / (name + suffix)
    expected = expected_digest.lower()

    if target.exists():
        if sha256_file(target) == expected:
            return target
        target.unlink()

    try:
        request = urllib.request.Request(url)
    except ValueError as exc:  # no scheme: urllib's "unknown url type"
        raise DataError(f"{name}: {exc}") from None
    part = target.with_name(target.name + ".part")
    h = hashlib.sha256()
    try:
        with urllib.request.urlopen(request) as resp, open(part, "wb") as out:
            for chunk in iter(lambda: resp.read(1 << 20), b""):
                h.update(chunk)
                out.write(chunk)
    except Exception:
        part.unlink(missing_ok=True)
        raise
    if h.hexdigest() != expected:
        part.unlink()
        raise IntegrityError(
            f"{name}: digest mismatch for {url} "
            f"(expected {expected}, got {h.hexdigest()})")
    os.replace(part, target)
    return target
