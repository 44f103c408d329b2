"""The array snapshot loader against the row-by-row loader it replaced (tests/oracles.py)."""

import ast
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wasscurve import dataio
from wasscurve.dataio import SchemaError

TIMES = [0.0, 0.25, 0.5, 1.0, 3.0]


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _call(fn, path, **kwargs):
    """(result, None) from a call that returns, (None, (type, message)) from one that raises."""
    try:
        return fn(path, **kwargs), None
    except ValueError as exc:
        return None, (type(exc).__name__, str(exc))


@st.composite
def _token(draw, value):
    """One CSV field holding ``value``, written in any form float() accepts."""
    if value == int(value) and abs(value) >= 10 and draw(st.booleans()):
        digits = str(abs(int(value)))
        text = ("-" if value < 0 else "") + digits[0] + "_" + digits[1:]  # '1_0'-style
    else:
        text = repr(float(value))
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    text = pad + text + draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.booleans()):
        text = '"' + text + '"'
    return text


@st.composite
def snapshot_files(draw):
    """A well-formed snapshot CSV: (schema, text), atom weights summing to 1 per time."""
    schema = draw(st.sampled_from(["samples", "atoms"]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    times = draw(st.lists(st.sampled_from(TIMES), min_size=n, max_size=n))
    coord = st.one_of(
        st.floats(-5.0, 5.0, allow_nan=False, width=64),
        st.integers(-30, 30).map(float),
        st.sampled_from([0.0, -0.0, 0.1, 1e-300]),
    )
    positions = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    if schema == "atoms":
        counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        totals = {t: 0 for t in times}
        for t, c in zip(times, counts):
            totals[t] += c
        # a timestamp whose counts are all 0 spreads its mass evenly
        weights = [c / totals[t] if totals[t] else 1.0 / times.count(t) for t, c in zip(times, counts)]
        header = ["t", "weight"] + [f"x{i + 1}" for i in range(d)]
        values = [[t, w, *p] for t, w, p in zip(times, weights, positions)]
    else:
        header = ["t"] + [f"x{i + 1}" for i in range(d)]
        values = [[t, *p] for t, p in zip(times, positions)]
    lines = [",".join(header)]
    for row in values:
        if draw(st.integers(0, 5)) == 0:  # blank or whitespace-only rows between data rows
            lines.append(draw(st.sampled_from(["", " ", "\t,  ", ",".join([" "] * len(header))])))
        lines.append(",".join(draw(_token(v)) for v in row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return schema, newline.join(lines) + newline


FAULTS = ["field count", "unparseable", "non-finite", "negative weight"]


@st.composite
def faulty_files(draw):
    """A snapshot CSV with one to three faults injected into its data rows."""
    schema, text = draw(snapshot_files())
    newline = "\r\n" if text.endswith("\r\n") else "\n"
    lines = text[: -len(newline)].split(newline)
    data = [i for i in range(1, len(lines)) if lines[i].strip(" \t,")]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(data))
        fields = lines[i].split(",")
        kind = draw(st.sampled_from(FAULTS))
        col = draw(st.integers(0, len(fields) - 1))
        if kind == "field count":
            fields = fields + ["0.5"] if draw(st.booleans()) else fields[:-1]
        elif kind == "unparseable":
            fields[col] = draw(st.sampled_from(["oops", "1..2", "", "0x10", "1__0", "nan(1)"]))
        elif kind == "non-finite":
            fields[col] = draw(st.sampled_from(["nan", "inf", "-Infinity", " NaN ", "1e400"]))
        elif schema == "atoms":
            fields[1] = draw(st.sampled_from(["-0.5", "-1e-300", " -2"]))
        else:
            fields[col] = "-0.5"  # a negative sample value is valid
        lines[i] = ",".join(fields)
    return schema, newline.join(lines) + newline


def _write(tmp_path, text, name="s.csv"):
    p = tmp_path / name
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(p)


def _assert_same_arrays(path):
    (got, got_err), (ref, ref_err) = _call(dataio.read_snapshot_rows, path), _call(oracles.read_snapshot_rows, path)
    assert got_err == ref_err
    if ref_err is not None:
        return
    schema, times, weights, positions = got
    schema_ref, rows = ref
    assert schema == schema_ref
    assert _bits(times) == _bits([r[0] for r in rows])
    assert _bits(weights) == _bits([r[1] for r in rows])
    assert _bits(positions) == _bits(np.stack([r[2] for r in rows]))


def _assert_same_load(path, **kwargs):
    (got, got_err), (ref, ref_err) = _call(dataio.load_snapshots, path, **kwargs), _call(oracles.load_snapshots, path, **kwargs)
    assert got_err == ref_err
    if ref_err is not None:
        return
    assert _bits(got.timestamps) == _bits(ref.timestamps)
    assert _bits(got.lambdas) == _bits(ref.lambdas)
    assert (got.horizon, got.original_horizon) == (ref.horizon, ref.original_horizon)
    assert _bits(got.grid.points) == _bits(ref.grid.points)
    assert len(got) == len(ref)
    for m, m_ref in zip(got.measures, ref.measures):
        assert _bits(m.weights) == _bits(m_ref.weights)


class TestAgainstRowLoader:
    @settings(max_examples=150, deadline=None)
    @given(snapshot_files())
    def test_well_formed_files_load_bit_equal(self, tmp_path_factory, case):
        path = _write(tmp_path_factory.mktemp("ok"), case[1])
        assert _call(dataio.read_snapshot_rows, path)[1] is None
        _assert_same_arrays(path)
        _assert_same_load(path, grid_points=4)

    @settings(max_examples=150, deadline=None)
    @given(faulty_files())
    def test_faulty_files_raise_the_same_error(self, tmp_path_factory, case):
        path = _write(tmp_path_factory.mktemp("bad"), case[1])
        _assert_same_arrays(path)  # the same SchemaError, or the same arrays when no fault was fatal
        _assert_same_load(path, grid_points=4)

    def test_fault_in_a_later_block_names_its_line(self, tmp_path):
        rows = 4096  # far past the first read chunk
        lines = ["t,x1"] + [f"{i % 7},{i / 10!r}" for i in range(3 * rows)]
        lines[2 * rows + 5] = ""
        path = _write(tmp_path, "\n".join(lines) + "\n")
        _assert_same_arrays(path)
        lines[2 * rows + 9] = "3,inf"
        path = _write(tmp_path, "\n".join(lines) + "\n")
        _assert_same_arrays(path)
        with pytest.raises(SchemaError, match=f":{2 * rows + 10}: 'inf' is not a finite number$"):
            dataio.read_snapshot_rows(path)

    @pytest.mark.parametrize("schema", ["samples", "atoms"])
    def test_given_grid_and_lambdas(self, tmp_path, schema):
        rng = np.random.default_rng(5)
        n = 200
        ts = rng.choice(TIMES[1:], size=n)
        xs = rng.integers(0, 6, size=n) / 5.0 + rng.choice([0.0, 0.013], size=n)  # some atoms off the grid
        if schema == "samples":
            lines = ["t,x1"] + [f"{t!r},{x!r}" for t, x in zip(ts, xs)]
        else:
            w = np.array([1.0 / np.count_nonzero(ts == t) for t in ts])
            lines = ["t,weight,x1"] + [f"{t!r},{wi!r},{x!r}" for t, wi, x in zip(ts, w, xs)]
        path = _write(tmp_path, "\n".join(lines) + "\n")
        grid = dataio.SupportGrid(np.linspace(0.0, 1.0, 6)[:, None])
        lambdas = {0.25: 0.1, 0.5: 0.2, 1.0: 0.3, 3.0: 0.4}
        _assert_same_load(path, grid=grid, lambdas=lambdas)

    @pytest.mark.parametrize(
        "text, total",
        [
            ("t,weight,x1\n0,0.5,0.0\n1,1,0.5\n0,0.3,1.0\n0,-0,2.0\n1,-0.0,1.0\n", "0.8"),
            ("t,weight,x1\n0,-0.0,0.0\n0,-0.0,1.0\n", "0.0"),  # -0.0 + -0.0 added to a +0.0 start
        ],
    )
    def test_atom_weights_off_one_name_the_same_sum(self, tmp_path, text, total):
        path = _write(tmp_path, text)
        _assert_same_load(path)
        with pytest.raises(SchemaError, match=rf"atom weights at t=0.0 sum to {total}, expected 1$"):
            dataio.load_snapshots(path)

    def test_fault_before_a_decoding_error_wins(self, tmp_path):
        # the invalid UTF-8 sits past the first read chunk, after a bad row at line 3
        body = "t,x1\n0,0.5\n1,oops\n" + "1,0.25\n" * 3000
        p = tmp_path / "enc.csv"
        p.write_bytes(body.encode() + b"1,\xff\n")
        _assert_same_arrays(str(p))
        assert _call(dataio.read_snapshot_rows, str(p))[1] == ("SchemaError", f"{p}:3: cannot parse 'oops' as a number")
        clean = tmp_path / "enc_only.csv"
        clean.write_bytes(body.replace("oops", "0.75").encode() + b"1,\xff\n")
        # the loader names the file and the last line it decoded; the row loader lets the codec error escape
        with pytest.raises(SchemaError, match=r"enc_only.csv: bytes after line \d+ are not UTF-8 \(invalid start byte\)$"):
            dataio.read_snapshot_rows(str(clean))
        with pytest.raises(UnicodeDecodeError):
            oracles.read_snapshot_rows(str(clean))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("t,x1\n", "no data rows"),
        ("t,x1\n\n , \n", "no data rows"),
        ("t,x1\n0,1,2\n0,1,2\n", ":2: expected 2 fields, got 3"),
        ("t,x1\n0,1\n0, inf\n1,oops\n", ":3: ' inf' is not a finite number"),
        ("t,weight,x1\n0,1,0\n0,-1,nan\n", ":3: 'nan' is not a finite number"),
        ("t,weight,x1\n0,1,0\n0,-1,0\n0,oops,0\n", ":3: negative weight"),
    ],
)
@pytest.mark.filterwarnings("error")  # numpy's "input contained no data" must not escape the loader
def test_schema_errors_name_the_first_fault(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(SchemaError) as got:
        dataio.read_snapshot_rows(path)
    with pytest.raises(SchemaError) as ref:
        oracles.read_snapshot_rows(path)
    assert str(got.value) == str(ref.value)
    assert str(got.value).endswith(message)


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
))
def test_write_json_is_the_compact_sorted_dump(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "result.json"
    dataio.write_json(str(path), doc)
    raw = path.read_bytes()
    assert raw == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    assert json.loads(raw) == doc


def test_dataio_imports_only_measures():
    """The file layer sits below the solvers: of its own package it imports the measures module alone."""
    with open(dataio.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    from_package = [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("wasscurve"))
    ]
    from_package += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("wasscurve")
    ]
    assert from_package == [".measures"]
