"""PLY point cloud reading and writing.

Supports ``format ascii 1.0`` and ``format binary_little_endian 1.0`` with a
leading ``element vertex``. Coordinates may be declared ``float`` or
``double`` and are always parsed into float64. Colors are accepted as
``uchar red/green/blue`` (``r/g/b`` aliases allowed) and kept as uint8, normals as
``float``/``double`` ``nx/ny/nz``. Unknown fixed-size vertex properties are
parsed for stride and discarded; elements after the vertex block are ignored.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np

from .cloud import PointCloud
from .errors import DomainError, ParseError, TruncationError, ValidationError, check_choice

# PLY scalar type name -> numpy type code
_PLY_SCALARS = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_COLOR_ALIASES = {"r": "red", "g": "green", "b": "blue"}
_COORD_NAMES = ("x", "y", "z")
_NORMAL_NAMES = ("nx", "ny", "nz")
PLY_FORMATS = ("binary", "ascii")


def _split_header(data: bytes, path: str):
    """Return (header lines, body offset in `data`, header line count)."""
    marker = data.find(b"end_header")
    if marker < 0:
        raise ParseError(f"{path}: no end_header line found")
    newline = data.find(b"\n", marker)
    if newline < 0:
        raise ParseError(f"{path}: end_header line is not terminated")
    header_text = data[:newline].decode("ascii", errors="replace")
    lines = [line.rstrip("\r") for line in header_text.split("\n")]
    return lines, newline + 1, len(lines)


def load_ply(path: str) -> PointCloud:
    """Load a PLY file into a PointCloud.

    Raises ParseError (with the offending header/body line number) for
    malformed input, TruncationError when the body is shorter than the
    declared vertex count, and PointCloud's ValidationError or DomainError
    (a non-finite coordinate, no points) with the path in front.
    """
    path = str(path)
    with open(path, "rb") as handle:
        data = handle.read()

    lines, start, header_lines = _split_header(data, path)
    if not lines or lines[0].strip() != "ply":
        raise ParseError(f"{path}: line 1: expected 'ply' magic")

    fmt = None
    elements = []  # (name, count), in declaration order
    vertex_props = []  # (name, numpy code) for the vertex element
    current = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.split()[0] in ("comment", "obj_info"):
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "format":
            if len(fields) != 3:
                raise ParseError(f"{path}: line {lineno}: malformed format line")
            if fields[1] == "binary_big_endian":
                raise ParseError(
                    f"{path}: line {lineno}: big-endian PLY is not supported"
                )
            if fields[1] not in ("ascii", "binary_little_endian") or fields[2] != "1.0":
                raise ParseError(
                    f"{path}: line {lineno}: unsupported format '{fields[1]} {fields[2]}'"
                )
            fmt = fields[1]
        elif keyword == "element":
            if len(fields) != 3:
                raise ParseError(f"{path}: line {lineno}: malformed element line")
            try:
                count = int(fields[2])
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: bad element count '{fields[2]}'"
                ) from None
            if count < 0:
                raise ParseError(f"{path}: line {lineno}: negative element count")
            current = fields[1]
            elements.append((current, count))
        elif keyword == "property":
            if current is None:
                raise ParseError(
                    f"{path}: line {lineno}: property declared before any element"
                )
            if current != "vertex":
                continue  # later elements are skipped wholesale
            if len(fields) >= 2 and fields[1] == "list":
                raise ParseError(
                    f"{path}: line {lineno}: list properties are not supported "
                    "on the vertex element"
                )
            if len(fields) != 3:
                raise ParseError(f"{path}: line {lineno}: malformed property line")
            type_name, prop_name = fields[1], fields[2]
            if type_name not in _PLY_SCALARS:
                raise ParseError(
                    f"{path}: line {lineno}: unknown property type '{type_name}'"
                )
            prop_name = _COLOR_ALIASES.get(prop_name, prop_name)
            vertex_props.append((prop_name, _PLY_SCALARS[type_name]))
        elif keyword == "end_header":
            break
        else:
            raise ParseError(f"{path}: line {lineno}: unknown keyword '{keyword}'")

    if fmt is None:
        raise ParseError(f"{path}: header has no format line")
    if not elements or elements[0][0] != "vertex":
        raise ParseError(f"{path}: the first declared element must be 'vertex'")
    vertex_count = elements[0][1]

    names = [name for name, _ in vertex_props]
    for coord in _COORD_NAMES:
        if coord not in names:
            raise ParseError(f"{path}: vertex element lacks property '{coord}'")
        if vertex_props[names.index(coord)][1] not in ("f4", "f8"):
            raise ParseError(
                f"{path}: coordinate property '{coord}' must be float or double"
            )
    has_colors = all(
        c in names and vertex_props[names.index(c)][1] == "u1"
        for c in ("red", "green", "blue")
    )
    has_normals = all(
        c in names and vertex_props[names.index(c)][1] in ("f4", "f8")
        for c in _NORMAL_NAMES
    )

    if fmt == "ascii":
        table = _read_ascii_rows(
            path, data[start:], vertex_count, len(vertex_props), header_lines
        )
        def column(name):
            return table[:, names.index(name)]
    else:
        dtype = np.dtype([(f"f{i}", "<" + code) for i, (_, code) in enumerate(vertex_props)])
        needed = vertex_count * dtype.itemsize
        if len(data) - start < needed:
            raise TruncationError(
                f"{path}: vertex data truncated: expected {needed} bytes, "
                f"found {len(data) - start}"
            )
        record = np.frombuffer(data, dtype=dtype, count=vertex_count, offset=start)
        def column(name):  # as stored: PointCloud widens floats, colours stay u1
            return record[f"f{names.index(name)}"]

    def stack(names):  # frozen and fresh, so the cloud keeps it rather than copying it
        out = np.column_stack([column(c) for c in names])
        out.setflags(write=False)
        return out
    try:
        return PointCloud(positions=stack(_COORD_NAMES),
                          colors=stack(("red", "green", "blue")) if has_colors else None,
                          normals=stack(_NORMAL_NAMES) if has_normals else None)
    except (DomainError, ValidationError) as exc:  # the same class, so the same exit code
        raise type(exc)(f"{path}: {exc}") from None


def _read_ascii_rows(path, body, count, width, header_lines):
    """Parse `count` whitespace-separated numeric rows of at least `width`
    columns from the ASCII body. Returns a (count, width) float64 array.
    Plain numeric text, which np.loadtxt splits and parses exactly as the
    per-line loop does, is read in one step, CRLF line ends included; anything
    else (a `\r` that does not end a line, say), and any read that fails or
    comes up short, goes through the loop, as does a body of fewer lines than
    `count`, so the header alone never sizes a buffer."""
    plain = not body.translate(None, b"0123456789+-.eE \t\r\n")
    if plain and count <= body.count(b"\n") + 1 and (  # no \r, the common case, skips two counts
            b"\r" not in body or body.count(b"\r") == body.count(b"\r\n")):
        with warnings.catch_warnings(), contextlib.suppress(ValueError):
            warnings.simplefilter("ignore")  # blank lines and empty bodies warn
            table = np.loadtxt(io.BytesIO(body), comments=None,
                               usecols=range(width), max_rows=count, ndmin=2)
            if len(table) == count:
                return table
    return _read_ascii_lines(path, body, count, width, header_lines)


def _read_ascii_lines(path, body, count, width, header_lines):
    """The per-line reference parser behind `_read_ascii_rows`."""
    lines = body.decode("ascii", errors="replace").split("\n")
    out = np.empty((min(count, len(lines)), width), dtype=np.float64)
    row = 0
    for offset, line in enumerate(lines):
        if row >= count:
            break
        stripped = line.strip()
        if not stripped:
            continue
        lineno = header_lines + offset + 1
        tokens = stripped.split()
        if len(tokens) < width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} values, "
                f"found {len(tokens)}"
            )
        try:
            out[row] = [float(tok) for tok in tokens[:width]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        row += 1
    if row < count:
        raise TruncationError(
            f"{path}: vertex data truncated: expected {count} rows, found {row}"
        )
    return out


def save_ply(cloud: PointCloud, path: str, format: str = "binary") -> None:
    """Write a PointCloud to `path`.

    format
        "binary" (little-endian) or "ascii".

    Coordinates and normals are stored as double, so a binary save -> load
    round trip is the identity on positions. Colors are written as uchar.
    ASCII output keeps 9 significant digits.
    """
    check_choice("PLY format", format, PLY_FORMATS)

    # One (name, PLY type, source column) list serves the header and both bodies.
    fields = [
        (name, code, source[:, axis])
        for names, code, source in ((_COORD_NAMES, "f8", cloud.positions),
                                    (("red", "green", "blue"), "u1", cloud.colors),
                                    (_NORMAL_NAMES, "f8", cloud.normals))
        if source is not None
        for axis, name in enumerate(names)
    ]
    header = ["ply", "format ascii 1.0" if format == "ascii" else "format binary_little_endian 1.0",
              f"element vertex {cloud.count}"]
    header.extend(f"property {'uchar' if c == 'u1' else 'double'} {n}" for n, c, _ in fields)
    header.append("end_header")

    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("ascii"))
        if format == "binary":
            record = np.empty(cloud.count, dtype=np.dtype([(n, "<" + c) for n, c, _ in fields]))
            for name, _, column in fields:
                record[name] = column  # colours are validated integers in [0, 255]
            handle.write(record)  # the buffer itself: no bytes copy
        else:
            table = np.column_stack([column for _, _, column in fields])
            np.savetxt(handle, table, fmt=["%d" if c == "u1" else "%.9g" for _, c, _ in fields])
