import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqa import (DomainError, ParseError, PointCloud, TruncationError, ValidationError,
                  load_ply, save_ply)
from pcqa import ply_io
from pcqa.cli import main

from helpers import random_cloud, write_ascii_ply


def test_minimal_ascii_file(tmp_path):
    path = write_ascii_ply(tmp_path / "tri.ply", [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    cloud = load_ply(path)
    assert cloud.count == 3
    assert not cloud.has_colors
    assert np.array_equal(cloud.positions[1], [1.0, 0.0, 0.0])


def test_binary_matches_ascii_load(tmp_path):
    rows = [(0.5, -1.25, 3.0), (2.0, 0.125, -4.5)]
    ascii_path = write_ascii_ply(tmp_path / "a.ply", rows)

    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    body = b"".join(struct.pack("<3f", *row) for row in rows)
    bin_path = tmp_path / "b.ply"
    bin_path.write_bytes(header + body)

    a = load_ply(ascii_path)
    b = load_ply(bin_path)
    assert np.array_equal(a.positions, b.positions)


def test_truncated_ascii_body(tmp_path):
    path = write_ascii_ply(tmp_path / "short.ply", [(0, 0, 0)] * 4, count=5)
    with pytest.raises(TruncationError, match="expected 5"):
        load_ply(path)


def test_truncated_binary_body(tmp_path):
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 5\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    path = tmp_path / "short.ply"
    path.write_bytes(header + struct.pack("<3f", 0, 0, 0) * 4)
    with pytest.raises(TruncationError, match="expected"):
        load_ply(path)


def test_big_endian_rejected(tmp_path):
    path = tmp_path / "big.ply"
    path.write_text(
        "ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    with pytest.raises(ParseError, match="big_endian|line 2"):
        load_ply(path)


XYZ = "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize("header, message", [
    ("ply\nformat ascii 1.0\nelement vertex notanumber\nend_header\n",
     "line 3: bad element count 'notanumber'"),
    ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "end_header",
     "end_header line is not terminated"),
    ("ply\nformat ascii\nelement vertex 0\n" + XYZ + "end_header\n",
     "line 2: malformed format line"),
    ("ply\nformat ascii 2.0\nelement vertex 0\n" + XYZ + "end_header\n",
     "line 2: unsupported format 'ascii 2.0'"),
    ("ply\nformat ascii 1.0\nelement vertex\n" + XYZ + "end_header\n",
     "line 3: malformed element line"),
    ("ply\nformat ascii 1.0\nelement vertex -1\n" + XYZ + "end_header\n",
     "line 3: negative element count"),
    ("ply\nformat ascii 1.0\n" + XYZ + "element vertex 0\nend_header\n",
     "line 3: property declared before any element"),
    ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "property float\nend_header\n",
     "line 7: malformed property line"),
    ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "property quad w\nend_header\n",
     "line 7: unknown property type 'quad'"),
    ("ply\nelement vertex 0\n" + XYZ + "end_header\n", "header has no format line"),
    ("ply\nformat ascii 1.0\nelement vertex 0\nproperty int x\nproperty float y\n"
     "property float z\nend_header\n", "coordinate property 'x' must be float or double"),
], ids=["bad-count", "unterminated", "malformed-format", "unsupported-format",
        "malformed-element", "negative-count", "property-first", "malformed-property",
        "unknown-type", "no-format", "integer-coordinate"])
def test_malformed_header_names_line(tmp_path, capsys, header, message):
    path = tmp_path / "bad.ply"
    path.write_text(header)
    with pytest.raises(ParseError, match=f"^{path}: {message}$"):
        load_ply(path)
    # Through the CLI: exit 2 and one JSON diagnostic, no traceback.
    code = main(["distort", str(path), "--kind", "cn", "--level", "0.1",
                 "--output", str(tmp_path / "out.ply")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ParseError", "message": f"{path}: {message}"}


def test_missing_magic(tmp_path):
    path = tmp_path / "notply.ply"
    path.write_text("plx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(ParseError):
        load_ply(path)


def test_unknown_properties_skipped_ascii(tmp_path):
    props = [
        "property float x", "property float y", "property float z",
        "property float confidence",
    ]
    path = write_ascii_ply(tmp_path / "c.ply", [(1, 2, 3, 0.9), (4, 5, 6, 0.1)], props=props)
    cloud = load_ply(path)
    assert cloud.count == 2
    assert np.array_equal(cloud.positions[0], [1.0, 2.0, 3.0])


def test_unknown_properties_skipped_binary(tmp_path):
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property int label\nproperty uchar red\nproperty uchar green\n"
        b"property uchar blue\nend_header\n"
    )
    body = struct.pack("<3f", 1, 2, 3) + struct.pack("<i", 7) + bytes([10, 20, 30])
    path = tmp_path / "b.ply"
    path.write_bytes(header + body)
    cloud = load_ply(path)
    assert cloud.has_colors
    assert np.array_equal(cloud.colors[0], [10.0, 20.0, 30.0])


def test_color_aliases_and_partial_colors(tmp_path):
    props = [
        "property float x", "property float y", "property float z",
        "property uchar r", "property uchar g", "property uchar b",
    ]
    path = write_ascii_ply(tmp_path / "alias.ply", [(0, 0, 0, 1, 2, 3)], props=props)
    assert load_ply(path).has_colors

    props = props[:-1]  # drop blue: colors must then be absent entirely
    path = write_ascii_ply(tmp_path / "partial.ply", [(0, 0, 0, 1, 2)], props=props)
    assert not load_ply(path).has_colors


def test_normals_parsed(tmp_path):
    props = [
        "property float x", "property float y", "property float z",
        "property float nx", "property float ny", "property float nz",
    ]
    path = write_ascii_ply(tmp_path / "n.ply", [(0, 0, 0, 0, 0, 1)], props=props)
    cloud = load_ply(path)
    assert cloud.has_normals
    assert np.array_equal(cloud.normals[0], [0.0, 0.0, 1.0])


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\ncomment made by hand\nformat ascii 1.0\n"
        "comment another\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n"
    )
    assert load_ply(path).count == 1


def test_list_property_on_vertex_rejected(tmp_path):
    path = tmp_path / "list.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property list uchar int vertex_indices\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    )
    with pytest.raises(ParseError, match="list"):
        load_ply(path)


def test_non_finite_coordinate_aborts(tmp_path):
    path = write_ascii_ply(tmp_path / "nan.ply", [(0, 0, 0), ("nan", 0, 0)])
    with pytest.raises(ValidationError, match="point 1"):
        load_ply(path)


def test_garbled_ascii_row_names_file_line(tmp_path):
    path = write_ascii_ply(tmp_path / "g.ply", [(0, 0, 0), ("x", 0, 0)])
    with pytest.raises(ParseError, match="line"):
        load_ply(path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_binary_round_trip_is_identity(tmp_path, seed):
    cloud = random_cloud(1000, seed=seed)
    path = tmp_path / "rt.ply"
    save_ply(cloud, path, format="binary")
    back = load_ply(path)
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.colors, cloud.colors)


def test_binary_round_trip_with_normals(tmp_path):
    cloud = random_cloud(200, seed=3, normals=True)
    path = tmp_path / "rtn.ply"
    save_ply(cloud, path, format="binary")
    back = load_ply(path)
    assert back.has_normals
    # float32 storage for normals still re-normalizes within tolerance
    assert np.allclose(back.normals, cloud.normals, atol=1e-6)


def test_ascii_round_trip_close(tmp_path):
    cloud = random_cloud(1000, seed=4)
    path = tmp_path / "ascii.ply"
    save_ply(cloud, path, format="ascii")
    back = load_ply(path)
    assert np.allclose(back.positions, cloud.positions, rtol=1e-5)
    assert np.array_equal(back.colors, cloud.colors)


@pytest.mark.parametrize("fmt", ["binary", "ascii"])
def test_round_trip_keeps_the_colour_bytes(tmp_path, fmt):
    rng = np.random.default_rng(5)
    colors = np.stack([np.arange(256), rng.permutation(256), 255 - np.arange(256)], axis=1)
    cloud = PointCloud(positions=rng.uniform(0, 1, (256, 3)), colors=colors.astype(np.uint8))
    save_ply(cloud, tmp_path / "c.ply", format=fmt)
    back = load_ply(tmp_path / "c.ply")
    assert back.colors.dtype == np.uint8 and not back.colors.flags.writeable
    assert back.colors.tobytes() == cloud.colors.tobytes()


def test_unknown_format_is_a_domain_error(tmp_path):
    with pytest.raises(DomainError, match="^unknown PLY format 'xml'$"):
        save_ply(random_cloud(10, seed=0), tmp_path / "c.ply", format="xml")
    assert not (tmp_path / "c.ply").exists()


@pytest.mark.parametrize("format", ["ascii", "binary_little_endian"])
def test_a_cloud_with_no_points_cannot_be_built_or_loaded(tmp_path, format):
    with pytest.raises(DomainError, match="^a point cloud needs at least one point$"):
        PointCloud(positions=np.empty((0, 3)))
    path = tmp_path / "empty.ply"
    path.write_bytes(f"ply\nformat {format} 1.0\nelement vertex 0\n{_XYZ}end_header\n".encode())
    with pytest.raises(DomainError) as refused:  # load_ply names the file
        load_ply(path)
    assert str(refused.value) == f"{path}: a point cloud needs at least one point"


def test_vertex_must_be_first_element(tmp_path):
    path = tmp_path / "face-first.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement face 0\n"
        "element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n"
    )
    with pytest.raises(ParseError):
        load_ply(path)


_XYZ = "property float x\nproperty float y\nproperty float z\n"
_RGB = "property uchar red\nproperty uchar green\nproperty uchar blue\n"
_NXYZ = "property float nx\nproperty float ny\nproperty float nz\n"

# name -> (vertex count, vertex properties, trailing header lines, body,
# whether the body is plain numeric text that skips the per-line loop)
ASCII_BODIES = {
    "colors-and-normals": (2, _XYZ + _RGB + _NXYZ, "",
                           "0.5 -1.25 3 10 20 30 0 0 1\n1e-3 2 -4.5 255 0 7 0 1 0\n", True),
    "extra-numeric-tokens": (2, _XYZ, "", "1 2 3 4 5\n4 5 6 7\n", True),
    "extra-word-tokens": (2, _XYZ, "", "1 2 3 foo\n4 5 6 bar baz\n", False),
    "blank-lines": (2, _XYZ, "", "\n  \n1 2 3\n\t\n\n4\t5  6\n\n", True),
    "second-element": (3, _XYZ, "element face 1\nproperty list uchar int vertex_indices\n",
                       "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", True),
    "exponent-and-negative-zero": (2, _XYZ, "", "1e5 -0 .5\n-1.5E-3 +2 0\n", True),
    "underscore-digits": (1, _XYZ, "", "1_0 2 3\n", False),
    "nan-color": (1, _XYZ + _RGB, "", "1 2 3 nan 0 0\n", False),
    "nan-coordinate": (1, _XYZ, "", "nan 2 3\n", False),
    "crlf-line-ends": (2, _XYZ, "", "1 2 3\r\n4 5 6\r\n", True),
    "crlf-blank-lines": (2, _XYZ, "", "\r\n1 2 3\r\n \t\r\n\r\n4 5 6\r\n", True),
    "stray-carriage-return": (1, _XYZ, "", "1 2\r3\n", False),
    "short-row": (2, _XYZ, "", "1 2 3\n4 5\n", True),
    "garbled-token": (2, _XYZ, "", "1 2 3\n4 x 6\n", False),
    "garbled-number": (2, _XYZ, "", "1 2 3\n4 5. .6.\n", True),
    "double-sign": (1, _XYZ, "", "1 --2 3\n", True),
    "truncated-body": (3, _XYZ, "", "1 2 3\n4 5 6\n", True),
    "empty-body": (2, _XYZ, "", "", True),
    "no-vertices": (0, _XYZ, "", "", True),
}


@pytest.mark.parametrize("name", sorted(ASCII_BODIES))
def test_ascii_fast_path_reads_as_the_loop(tmp_path, monkeypatch, name):
    count, props, trailer, body, plain = ASCII_BODIES[name]
    path = tmp_path / f"{name}.ply"
    path.write_bytes(
        f"ply\nformat ascii 1.0\nelement vertex {count}\n{props}{trailer}end_header\n{body}"
        .encode("ascii"))

    def outcome():
        try:
            cloud = load_ply(path)
        except (DomainError, ParseError, ValidationError) as exc:
            return type(exc), str(exc)
        return tuple(None if a is None else (a.dtype.str, a.tobytes())
                     for a in (cloud.positions, cloud.colors, cloud.normals))

    loop = ply_io._read_ascii_lines
    loop_calls = []

    def counted_loop(*args):
        loop_calls.append(args)
        return loop(*args)

    monkeypatch.setattr(ply_io, "_read_ascii_lines", counted_loop)
    fast = outcome()
    monkeypatch.setattr(ply_io, "_read_ascii_rows", loop)
    assert fast == outcome()
    # Plain text that reads cleanly never reaches the loop; anything else does. A
    # DomainError is the cloud's own (no points), raised after a clean read.
    failed = isinstance(fast[0], type) and fast[0] is not DomainError
    assert bool(loop_calls) == (failed or not plain)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cloud = random_cloud(6, seed=5, normals=True)
    for fmt in ("ascii", "binary"):
        save_ply(cloud, root / f"{fmt}.ply", format=fmt)
    return root


# A junk line holds no newline and no end_header, so it stays one header line.
_junk_lines = st.binary(max_size=24).filter(
    lambda line: b"\n" not in line and b"end_header" not in line)


@settings(max_examples=150)
@given(fmt=st.sampled_from(["ascii", "binary"]),
       junk=st.lists(st.tuples(st.integers(0, 12), _junk_lines), max_size=3),
       cut=st.none() | st.integers(0, 10 ** 4))
def test_truncated_or_junked_files_fail_as_parse_errors(fuzz_dir, fmt, junk, cut):
    header, body = (fuzz_dir / f"{fmt}.ply").read_bytes().split(b"end_header\n", 1)
    lines = header.split(b"\n")[:-1]
    for at, line in junk:
        lines.insert(min(at, len(lines)), line)
    data = b"\n".join(lines + [b"end_header\n"]) + body
    if cut is not None:
        data = data[:cut % len(data)]
    path = fuzz_dir / "fuzz.ply"
    path.write_bytes(data)
    try:
        load_ply(path)
    except ParseError as exc:  # TruncationError included
        failure = exc
    else:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["score", str(path), str(path)])
    assert code == 2
    assert "Traceback" not in err.getvalue()
    diag = json.loads(err.getvalue().splitlines()[-1])
    assert (diag["error"], diag["message"]) == (type(failure).__name__, str(failure))


@pytest.mark.parametrize("fmt", ["binary", "ascii"])
def test_the_cloud_keeps_the_arrays_load_ply_stacks(tmp_path, monkeypatch, fmt):
    # Each stacked array is fresh and frozen, so PointCloud keeps it, not a copy.
    cloud = random_cloud(50, seed=6, normals=True)
    save_ply(cloud, tmp_path / "c.ply", format=fmt)
    column_stack, stacked = np.column_stack, []
    monkeypatch.setattr(np, "column_stack",
                        lambda columns: stacked.append(column_stack(columns)) or stacked[-1])
    loaded = load_ply(tmp_path / "c.ply")
    positions, colors, normals = stacked
    assert loaded.positions is positions and loaded.normals is normals
    # Binary colours are u1 as stored; ascii ones are parsed as float64, then cast.
    assert (loaded.colors is colors) == (fmt == "binary")
    assert np.array_equal(loaded.colors, colors)
