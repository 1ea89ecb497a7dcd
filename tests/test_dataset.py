"""Parsing, loading, serialization round-trips and the fetcher."""

import contextlib
import gzip
import hashlib
import http.server
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidsbench import dataset
from nidsbench.dataset import (
    Attribute,
    AttributeSchema,
    DataError,
    IntegrityError,
    ParseError,
    _parse_fields,
    fetch_dataset,
    kdd99_schema,
    load_dataset,
    sha256_file,
    write_dataset,
)

from conftest import (
    assert_same_dataset,
    build_dataset,
    coded,
    kdd_file,
    kdd_line,
    label_names,
)


def test_kdd_schema_shape():
    schema = kdd99_schema()
    assert schema.n_attributes == 41
    assert len(schema.nominal_positions) == 7
    assert schema.attributes[0].name == "duration"
    assert schema.attributes[1].name == "protocol_type"


def _load_lines(tmp_path, *lines):
    """The dataset `load_dataset` reads from a file of these lines."""
    path = tmp_path / "lines.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return load_dataset(path)


def test_parse_line_field_by_field(tmp_path):
    schema = kdd99_schema()
    line = kdd_line("normal", np.random.default_rng(3))
    ds = _load_lines(tmp_path, line)
    fields = line.split(",")
    assert label_names(ds) == ["normal"]
    for j, pos in enumerate(schema.numeric_positions):
        assert ds.numeric[0, j] == float(fields[pos])
    for j, pos in enumerate(schema.nominal_positions):
        assert ds.schema.attributes[pos].domain[ds.nominal[0, j]] == fields[pos]


def test_parse_strips_single_trailing_dot(tmp_path):
    line = kdd_line("smurf", np.random.default_rng(0))
    assert label_names(_load_lines(tmp_path, line)) == ["smurf"]
    # only one dot is stripped, nothing else is normalized
    assert label_names(_load_lines(tmp_path, line + ".")) == ["smurf."]


def test_parse_wrong_field_count(tmp_path):
    good = kdd_line("normal", np.random.default_rng(0))
    short = ",".join(good.split(",")[:-1])
    with pytest.raises(ParseError, match="line 2: expected 42 fields"):
        _load_lines(tmp_path, good, short)


def test_parse_bad_numeric_field_reports_position(tmp_path):
    good = kdd_line("normal", np.random.default_rng(0))
    fields = good.split(",")
    fields[0] = "zzz"
    with pytest.raises(ParseError, match=r"line 3.*field 1.*zzz"):
        _load_lines(tmp_path, good, good, ",".join(fields))


def test_parse_rejects_non_finite_and_empty(tmp_path):
    fields = kdd_line("normal", np.random.default_rng(0)).split(",")
    fields[0] = "nan"
    with pytest.raises(ParseError, match="line 1: field 1.*non-finite"):
        _load_lines(tmp_path, ",".join(fields))
    fields[0] = ""
    with pytest.raises(ParseError, match="line 1: field 1"):
        _load_lines(tmp_path, ",".join(fields))
    fields[0] = "0"
    fields[2] = ""  # nominal service
    with pytest.raises(ParseError, match="line 1: field 3.*empty value"):
        _load_lines(tmp_path, ",".join(fields))
    fields[2] = "http"
    fields[-1] = "."
    with pytest.raises(ParseError, match="line 1: empty class label"):
        _load_lines(tmp_path, ",".join(fields))


def test_load_dataset_counts_and_order(tmp_path):
    labels = ["normal", "smurf", "neptune", "normal", "smurf"]
    path = kdd_file(tmp_path / "mini.csv", labels)
    ds = load_dataset(path)
    assert len(ds) == 5
    assert ds.schema.class_labels == ("normal", "smurf", "neptune")
    assert label_names(ds) == labels


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "mini.csv"
    rng = np.random.default_rng(0)
    path.write_text(kdd_line("normal", rng) + "\n\n  \n"
                    + kdd_line("smurf", rng) + "\n")
    assert len(load_dataset(path)) == 2


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="no instances"):
        load_dataset(path)


def test_load_dataset_aborts_with_line_context(tmp_path):
    path = tmp_path / "bad.csv"
    rng = np.random.default_rng(0)
    good = kdd_line("normal", rng)
    bad = good.replace(good.split(",")[0], "oops", 1)
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


def test_load_dataset_accepts_gzip(tmp_path):
    rng = np.random.default_rng(1)
    raw = "\n".join(kdd_line("normal", rng) for _ in range(3)) + "\n"
    path = tmp_path / "mini.gz"
    path.write_bytes(gzip.compress(raw.encode()))
    assert len(load_dataset(path)) == 3


def test_load_dataset_crlf_loads_like_lf(tmp_path):
    path = kdd_file(tmp_path / "lf.csv", ["normal", "smurf", "normal"] * 3)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    a, b = load_dataset(path), load_dataset(crlf)
    assert_same_dataset(a, b)
    assert a.numeric.tobytes() == b.numeric.tobytes()


@pytest.mark.parametrize("damage", ["truncated", "corrupt body", "bad header"])
def test_load_dataset_damaged_gzip_is_data_error(tmp_path, damage):
    rng = np.random.default_rng(1)
    data = bytearray(gzip.compress(
        "\n".join(kdd_line("normal", rng) for _ in range(3)).encode()))
    if damage == "truncated":
        data = data[:len(data) // 2]
    elif damage == "corrupt body":
        data[12:20] = b"\xff" * 8
    else:
        data[2] = 0  # compression method other than deflate
    path = tmp_path / "cut.gz"
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="cut.gz: corrupt or truncated gzip"):
        load_dataset(path)


def test_load_dataset_bad_utf8_numbers_lines_like_the_parser(tmp_path):
    # "\r" alone ends a line for str.splitlines, so the bad byte is on line 3
    rng = np.random.default_rng(1)
    good = kdd_line("normal", rng).encode()
    path = tmp_path / "cr.csv"
    path.write_bytes(good + b"\r" + good + b"\r" + good.replace(b"0", b"\xff", 1))
    with pytest.raises(ParseError, match=r"cr.csv: line 3: invalid UTF-8"):
        load_dataset(path)


_SMALL_SCHEMA = AttributeSchema((Attribute("x", "numeric"),
                                 Attribute("proto", "nominal"),
                                 Attribute("y", "numeric")))
_record = st.tuples(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.integers(-10**6, 10**6).map(str),
              st.sampled_from(["-0", "0.0", "1e3", "+5", " 7"])),
    st.sampled_from(["tcp", "udp", "icmp"]),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["normal.", "smurf.", "neptune", "back"]),
).map(",".join)
_row = st.tuples(st.integers(0, 7),                     # which distinct record
                 st.one_of(st.none(), st.integers(0, 21)),  # difficulty column
                 st.sampled_from(["\n", "\r\n"]),      # line ending
                 st.sampled_from(["", "\n", "  \r\n", "\t\n"]))  # blanks before


def _per_line(schema, records):
    """The dataset of parsing each record by itself, in order: the
    reference the block parse must equal bit for bit."""
    parsed = [_parse_fields(r.split(","), schema, no)
              for no, r in enumerate(records, 1)]
    return coded(schema, [v for v, _ in parsed], [lab for _, lab in parsed])


def _assert_same_bits(got, want):
    assert_same_dataset(got, want)
    assert got.numeric.tobytes() == want.numeric.tobytes()  # -0.0 too


@settings(max_examples=60, deadline=None)
@given(st.lists(_record, min_size=1, max_size=8), st.lists(_row, min_size=1,
                                                           max_size=60),
       st.sampled_from([1, 2, 3, 7, dataset._BLOCK_LINES]))
def test_load_dataset_equals_per_line_parse(tmp_path_factory, records, rows,
                                            block):
    """Parsing each distinct line once, in blocks of any size, gives what
    parsing every line by itself gives."""
    text, kept = [], []
    for which, difficulty, ending, blanks in rows:
        record = records[which % len(records)]
        kept.append(record)
        suffix = "" if difficulty is None else f",{difficulty}"
        text.append(blanks + record + suffix + ending)
    path = tmp_path_factory.mktemp("eq") / "data.csv"
    path.write_bytes("".join(text).encode())
    with mock.patch.object(dataset, "_BLOCK_LINES", block):
        got = load_dataset(path, _SMALL_SCHEMA)
    _assert_same_bits(got, _per_line(_SMALL_SCHEMA, kept))


def test_load_dataset_spanning_blocks_equals_per_line_parse(tmp_path):
    """Three full blocks and a partial one, with repeats across blocks and
    NSL difficulty columns on some lines only."""
    rng = np.random.default_rng(4)
    distinct = [kdd_line(lab, rng, dotted=bool(i % 2)) for i, lab in
                enumerate(["normal", "smurf", "neptune", "back"] * 200)]
    distinct = distinct[:3 * dataset._BLOCK_LINES + 17]
    assert len(set(distinct)) == len(distinct)
    picks = rng.integers(0, len(distinct), 2000)
    kept = distinct + [distinct[i] for i in picks]
    path = tmp_path / "blocks.csv"
    path.write_text("".join(r + (f",{i % 22}" if i % 3 == 0 else "") + "\n"
                            for i, r in enumerate(kept)))
    got = load_dataset(path)
    _assert_same_bits(got, _per_line(kdd99_schema(), kept))


def test_a_file_of_distinct_lines_loads_without_a_row_copy(tmp_path):
    """NSL-KDD holds no repeated line: its coded rows are already the
    dataset's rows, and the loader returns them without a copy. They equal,
    bit for bit, the per-line parse, and keep the dtypes, C order and
    provenance of the copy the loader skips."""
    slice_ = Path(__file__).resolve().parent / "data" / "nsl_s1_head1500.txt.gz"
    path = tmp_path / "distinct.txt"
    path.write_bytes(gzip.decompress(slice_.read_bytes()))
    lines = path.read_text().splitlines()
    assert len(set(lines)) == len(lines)
    with mock.patch.object(dataset.Dataset, "subset",
                           side_effect=AssertionError("rows copied")):
        got = load_dataset(path)
    want = _per_line(kdd99_schema(),
                     [",".join(line.split(",")[:-1]) for line in lines])
    _assert_same_bits(got, want)
    assert got.provenance == f"loaded {path}"
    copy = got.subset(np.arange(len(got)))
    for a, b in ((got.numeric, copy.numeric), (got.nominal, copy.nominal),
                 (got.labels, copy.labels)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes()


def _first_error(path, schema):
    """The message of the first ParseError a per-line parse of the file
    raises, or None."""
    for no, line in enumerate(path.read_text("utf-8").splitlines(), 1):
        if line.strip():
            try:
                _parse_fields(line.split(","), schema, no)
            except ParseError as exc:
                return str(exc)
    return None


_BAD_TOKENS = ("zzz", "", "nan", "-inf", "1e999", "1..2", ".", "0x1")


def test_block_parse_reports_the_per_line_error(tmp_path, monkeypatch):
    """Seeded mutations of a 40-line file parsed in blocks of 8: the load
    fails with the message of the first line a per-line parse rejects, or
    loads what the per-line parse loads."""
    monkeypatch.setattr(dataset, "_BLOCK_LINES", 8)
    schema = kdd99_schema()
    rng = np.random.default_rng(16)
    base = [kdd_line(lab, rng).split(",") for lab in ["normal", "smurf"] * 20]
    assert len({",".join(f) for f in base}) == len(base)

    def mutate(*edits):
        lines = [list(f) for f in base]
        for line, field, token in edits:
            if token is None:
                del lines[line][field]
            else:
                lines[line][field] = token
        return [",".join(f) for f in lines]

    cases = [
        # the first line of the third block
        mutate((16, 4, "zzz")),
        # two bad lines in one block: the earlier one is reported, although
        # the later one breaks an earlier field
        mutate((9, 30, "nan"), (12, 0, "zzz")),
        # a non-finite field before an unparsable one on the same line
        mutate((5, 0, "inf"), (5, 4, "zzz")),
    ]
    for _ in range(150):
        edits = []
        for _ in range(int(rng.integers(1, 3))):
            line, field = int(rng.integers(0, 40)), int(rng.integers(0, 42))
            token = (None if rng.random() < 0.1
                     else _BAD_TOKENS[rng.integers(0, len(_BAD_TOKENS))])
            edits.append((line, field, token))
        cases.append(mutate(*edits))

    reported = set()
    for lines in cases:
        path = tmp_path / "mutated.csv"
        path.write_text("".join(line + "\n" for line in lines))
        want = _first_error(path, schema)
        if want is None:
            _assert_same_bits(load_dataset(path), _per_line(schema, lines))
            continue
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == want
        reported.add(want)
    assert "line 17: field 5 (src_bytes): cannot parse 'zzz' as a number" \
        in reported
    assert "line 10: field 31 (srv_diff_host_rate): non-finite value 'nan'" \
        in reported
    assert "line 6: field 1 (duration): non-finite value 'inf'" in reported


def test_a_block_rejected_without_a_bad_line_is_a_fault(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_block_columns", lambda records, schema: None)
    path = kdd_file(tmp_path / "mini.csv", ["normal", "smurf"])
    with pytest.raises(RuntimeError, match="lines 1-2: the block check"):
        load_dataset(path)


def test_load_dataset_drops_nsl_difficulty_column(tmp_path):
    rng = np.random.default_rng(1)
    lines = [kdd_line("normal", rng, dotted=False) + ",21",
             kdd_line("neptune", rng, dotted=False) + ",0"]
    path = tmp_path / "nsl.txt"
    path.write_text("\n".join(lines) + "\n")
    ds = load_dataset(path)
    assert len(ds) == 2
    assert ds.schema.n_attributes == 41
    assert set(ds.schema.class_labels) == {"normal", "neptune"}


def test_nominal_domains_accumulate_first_seen(tmp_path):
    path = kdd_file(tmp_path / "mini.csv", ["normal"] * 6, seed=5)
    ds = load_dataset(path)
    proto = ds.schema.attributes[1]
    first = path.read_text().split(",")[1]
    assert ds.nominal[0, 0] == 0
    assert proto.domain[0] == first


def test_deterministic_parse(tmp_path):
    path = kdd_file(tmp_path / "mini.csv", ["normal", "smurf"] * 10, seed=9)
    a = load_dataset(path)
    b = load_dataset(path)
    assert_same_dataset(a, b)


def test_round_trip_serialization(tmp_path):
    path = kdd_file(tmp_path / "mini.csv", ["normal", "smurf", "back"] * 4)
    ds = load_dataset(path)
    out = tmp_path / "roundtrip.csv"
    write_dataset(ds, out)
    again = load_dataset(out)
    assert_same_dataset(ds, again)


@settings(max_examples=30)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.sampled_from("pqr"),
                          st.sampled_from("ab")), min_size=1, max_size=40))
def test_round_trip_property(tmp_path_factory, rows):
    ds = build_dataset([("x", "numeric"), ("sym", "nominal")],
                       [(v, s) for v, s, _ in rows],
                       [lab for _, _, lab in rows])
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    write_dataset(ds, path)
    fresh = AttributeSchema(tuple(Attribute(a.name, a.kind)
                                  for a in ds.schema.attributes))
    again = load_dataset(path, fresh)
    assert_same_dataset(ds, again)


def test_subset_preserves_schema_and_provenance():
    ds = build_dataset([("x", "numeric")], [(1.0,), (2.0,), (3.0,)],
                       ["a", "b", "a"])
    sub = ds.subset([2, 0], note="picked")
    assert len(sub) == 2
    assert sub.numeric.tolist() == [[3.0], [1.0]]
    assert label_names(sub) == ["a", "a"]
    assert "picked" in sub.provenance


# --- fetcher ---------------------------------------------------------------


@contextlib.contextmanager
def _serve_once(payload: bytes):
    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/file.csv"
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_downloads_and_verifies(tmp_path):
    payload = b"0,tcp,http,SF\n"
    digest = hashlib.sha256(payload).hexdigest()
    with _serve_once(payload) as url:
        path = fetch_dataset("mini", url, digest, tmp_path)
    assert path.read_bytes() == payload
    assert path.name == "mini.csv"


def test_fetch_cache_hit_needs_no_network(tmp_path):
    payload = b"cached-bytes"
    digest = hashlib.sha256(payload).hexdigest()
    cached = tmp_path / "mini.csv"
    cached.write_bytes(payload)
    # unreachable URL proves the cache satisfied the call
    path = fetch_dataset("mini", "http://127.0.0.1:1/file.csv", digest, tmp_path)
    assert path == cached


def test_fetch_digest_mismatch_removes_download(tmp_path):
    payload = b"tampered"
    with _serve_once(payload) as url, \
            pytest.raises(IntegrityError, match="digest mismatch"):
        fetch_dataset("mini", url, "00" * 32, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_fetch_refreshes_corrupt_cache(tmp_path):
    payload = b"good-bytes"
    digest = hashlib.sha256(payload).hexdigest()
    (tmp_path / "mini.csv").write_bytes(b"corrupt")
    with _serve_once(payload) as url:
        path = fetch_dataset("mini", url, digest, tmp_path)
    assert path.read_bytes() == payload


def test_sha256_file(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"abc")
    assert sha256_file(p) == hashlib.sha256(b"abc").hexdigest()
