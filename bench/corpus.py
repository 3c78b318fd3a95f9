"""Seeded synthetic corpus for the benchmark.

Everything here depends on numpy alone and on the workload seed, so the
inputs the program receives do not change when the program changes. The
four distortion families follow the semantics documented in
`pcqa.distort` (colour noise, geometry noise, downsampling, lattice
quantization with merged collisions); they are written out here so that a
change to the program cannot change its own benchmark inputs.

Two kinds of content are generated:

* volume  - points uniform in a 10-unit box with a smooth colour field,
            the shape the hand measurements in ROADMAP.md used;
* surface - a bumpy torus sampled uniformly by area, with a smooth colour
            field plus a checkered band, because real scans are surfaces
            and cluster sizes depend on that.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Levels 2 and 4 (of 6) of pcqa.distort.LEVEL_PRESETS per family.
STUDY_LEVELS = {
    "cn": (0.04, 0.14),
    "ggn": (0.004, 0.014),
    "ds": (0.70, 0.40),
    "ot": (8, 6),
}


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *salt])


def _smooth_colors(positions: np.ndarray, rng, span: float) -> np.ndarray:
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    freqs = rng.uniform(0.5, 1.5, (3, 3))
    raw = np.stack(
        [np.sin(positions @ freqs[c] * 2.0 * np.pi / span + phases[c]) for c in range(3)],
        axis=1,
    )
    return (raw * 0.5 + 0.5) * 255.0


def volume(n: int, seed: int):
    """(positions, colors) of a uniform box with a smooth colour field."""
    rng = _rng(seed, 1)
    positions = rng.uniform(0.0, 10.0, (n, 3))
    return positions, np.rint(_smooth_colors(positions, rng, 10.0))


def surface(n: int, seed: int):
    """(positions, colors) of a bumpy torus with a textured band."""
    rng = _rng(seed, 2)
    big, small = 3.5, 1.2
    u = np.empty(0)
    v = np.empty(0)
    # Rejection on the area element (big + small cos v) gives a uniform
    # density over the surface.
    while u.size < n:
        cu = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
        cv = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
        keep = rng.uniform(0.0, big + small, 2 * n) < big + small * np.cos(cv)
        u = np.concatenate([u, cu[keep]])
        v = np.concatenate([v, cv[keep]])
    u, v = u[:n], v[:n]
    r = small * (1.0 + 0.08 * np.sin(6.0 * u) * np.sin(4.0 * v))
    positions = np.column_stack(
        [(big + r * np.cos(v)) * np.cos(u), (big + r * np.cos(v)) * np.sin(u), r * np.sin(v)]
    )
    colors = _smooth_colors(positions, rng, 9.4)
    band = np.abs(v - np.pi / 2.0) < 0.4
    checker = (np.floor(u * 40.0) + np.floor(v * 40.0)) % 2 == 0
    colors[band & checker] *= 0.35
    return positions, np.rint(np.clip(colors, 0.0, 255.0))


def distort(positions, colors, kind: str, level: float, seed: int):
    """Apply one distortion family; returns (positions, colors)."""
    rng = np.random.default_rng(seed)
    if kind == "cn":
        noise = np.rint(rng.normal(0.0, level * 255.0, size=colors.shape))
        return positions, np.clip(colors + noise, 0.0, 255.0)
    if kind == "ggn":
        sigma = level * float((positions.max(axis=0) - positions.min(axis=0)).min())
        return positions + rng.normal(0.0, sigma, size=positions.shape), colors
    if kind == "ds":
        keep = np.sort(rng.permutation(len(positions))[: int(round(level * len(positions)))])
        return positions[keep], colors[keep]
    if kind == "ot":
        low = positions.min(axis=0)
        step = np.array([_lattice_step(e, int(level)) for e in positions.max(axis=0) - low])
        grid = np.round((positions - low) / step).astype(np.int64)
        keys, inverse = np.unique(grid, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        counts = np.bincount(inverse, minlength=len(keys)).astype(np.float64)
        merged = np.column_stack(
            [np.bincount(inverse, weights=colors[:, c], minlength=len(keys)) for c in range(3)]
        )
        return low + keys * step, np.rint(merged / counts[:, None])
    raise ValueError(f"unknown distortion kind {kind!r}")


def _lattice_step(extent: float, depth: int) -> float:
    mantissa, exponent = math.frexp(extent)
    if mantissa == 0.5:
        exponent -= 1
    return math.ldexp(1.0, exponent - depth)


def write_ply(path: Path, positions, colors, ascii_format: bool = False) -> None:
    """Write double x/y/z and uchar red/green/blue as PLY."""
    header = "\n".join([
        "ply",
        "format ascii 1.0" if ascii_format else "format binary_little_endian 1.0",
        f"element vertex {len(positions)}",
        "property double x", "property double y", "property double z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header",
    ]) + "\n"
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        if ascii_format:
            table = np.column_stack([positions, colors])
            np.savetxt(handle, table, fmt="%.9g %.9g %.9g %d %d %d")
        else:
            record = np.empty(len(positions), dtype=[
                ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                ("red", "u1"), ("green", "u1"), ("blue", "u1"),
            ])
            for axis, name in enumerate("xyz"):
                record[name] = positions[:, axis]
            for axis, name in enumerate(("red", "green", "blue")):
                record[name] = colors[:, axis]
            handle.write(record.tobytes())


def mos_link(quality):
    """The known monotone link from a quality in [0, 1] to a 1-5 MOS."""
    return 1.0 + 4.0 / (1.0 + np.exp(-8.0 * (np.asarray(quality) - 0.6)))


def write_eval_set(root: Path, seed: int) -> None:
    """32 score reports (4 contents x 8 distortions) plus mos.csv.

    graphsim scores map to MOS through `mos_link` exactly, so its SROCC is
    1; the m-p2po scores carry noise so that the fit has real work to do.
    """
    rng = _rng(seed, 3)
    reports = root / "reports"
    reports.mkdir(parents=True)
    rows = []
    for c in range(4):
        for d in range(8):
            content, distortion = f"content{c}", f"dist{d}"
            quality = float(rng.uniform(0.2, 1.0))
            psnr = float(40.0 * quality + rng.normal(0.0, 3.0))
            body = {"content": content, "distortion": distortion,
                    "scores": {"graphsim": quality, "m-p2po": psnr}}
            (reports / f"{content}_{distortion}.json").write_text(json.dumps(body))
            rows.append((content, distortion, float(mos_link(quality))))
    with open(root / "mos.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["content", "distortion", "mos"])
        for content, distortion, mos in rows:
            writer.writerow([content, distortion, repr(mos)])


def study_stimuli(seed: int):
    """(content, kind, level, distortion seed, file stem) of the study."""
    out = []
    for content in ("volume", "surface"):
        for k, kind in enumerate(STUDY_LEVELS):
            for level in STUDY_LEVELS[kind]:
                out.append((content, kind, level, seed * 100 + k, f"{content}_{kind}_{level:g}"))
    return out


def build(workload: str, seed: int, root: Path) -> None:
    """Generate the inputs of one workload under `root` (must not exist)."""
    root.mkdir(parents=True)
    if workload == "cli-pair":
        positions, colors = volume(200_000, seed)
        write_ply(root / "ref.ply", positions, colors, ascii_format=True)
        write_eval_set(root / "eval", seed)
    elif workload == "corpus-study":
        contents = {"volume": volume(50_000, seed), "surface": surface(50_000, seed)}
        for name, (positions, colors) in contents.items():
            write_ply(root / f"{name}.ply", positions, colors)
        for content, kind, level, dseed, stem in study_stimuli(seed):
            write_ply(root / f"{stem}.ply", *distort(*contents[content], kind, level, dseed))
    elif workload == "dense-keypoints":
        positions, colors = volume(50_000, seed)
        write_ply(root / "ref.ply", positions, colors)
        write_ply(root / "ggn.ply", *distort(positions, colors, "ggn", 0.008, seed))
        write_ply(root / "ds.ply", *distort(positions, colors, "ds", 0.55, seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def digest(root: Path) -> str:
    """sha256 over every generated file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
