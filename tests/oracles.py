"""Independent reference implementations used to cross-check the package.

Everything here is written as plain loops and direct formula
transcriptions. None of it imports from pcqa, so agreement between the
two is a genuine two-route check rather than the code testing itself.
"""

from __future__ import annotations

import math

import numpy as np

# Color transform constants duplicated on purpose (see module docstring).
GCM_ROWS = (
    (0.06, 0.63, 0.27),
    (0.30, 0.04, -0.35),
    (0.34, -0.60, 0.17),
)


def brute_knn(points, query, k):
    """k nearest by full scan; ties broken toward the lower index."""
    d = np.linalg.norm(points - np.asarray(query, dtype=np.float64), axis=1)
    order = sorted(range(len(points)), key=lambda i: (d[i], i))[: min(k, len(points))]
    return np.asarray(order, dtype=np.intp), d[order]


def brute_radius(points, query, radius):
    """All indices with distance <= radius, sorted by (distance, index)."""
    d = np.linalg.norm(points - np.asarray(query, dtype=np.float64), axis=1)
    order = [i for i in sorted(range(len(points)), key=lambda i: (d[i], i)) if d[i] <= radius]
    return np.asarray(order, dtype=np.intp), d[order]


def pca_normals(points, k):
    """Per-point PCA normals by np.linalg.eigh over brute_knn neighbourhoods.

    Each row is the eigenvector of the smallest eigenvalue of the
    neighbourhood covariance. A middle eigenvalue <= max(1e-12 x largest,
    1e-30) flags the row degenerate (rank < 2) and gives +z. The sign is
    fixed into the +z hemisphere, ties toward +y, then +x. Returns
    (normals, degenerate).
    """
    points = np.asarray(points, dtype=np.float64)
    normals = np.empty((len(points), 3))
    degenerate = np.empty(len(points), dtype=bool)
    for row, query in enumerate(points):
        hood = points[brute_knn(points, query, k)[0]][None]  # one (1, k, 3) batch
        hood -= hood.mean(axis=1, keepdims=True)
        eigvals, eigvecs = np.linalg.eigh(np.einsum("nki,nkj->nij", hood, hood) / k)
        degenerate[row] = eigvals[0, 1] <= max(eigvals[0, 2] * 1e-12, 1e-30)
        normal = np.array([0.0, 0.0, 1.0]) if degenerate[row] else eigvecs[0, :, 0]
        x, y, z = normal
        if z < 0 or (z == 0 and (y < 0 or (y == 0 and x < 0))):
            normal = -normal
        normals[row] = normal
    return normals, degenerate


def gcm_channels(colors_0_255):
    out = np.empty((len(colors_0_255), 3))
    for i, (r, g, b) in enumerate(np.asarray(colors_0_255) / 255.0):
        for c, row in enumerate(GCM_ROWS):
            out[i, c] = row[0] * r + row[1] * g + row[2] * b
    return out


def _cluster(positions, center, radius):
    """In-radius neighbors (strictly off-center), sorted by (distance, index)."""
    hits = []
    for j, p in enumerate(positions):
        d = math.dist(p, center)
        if 0.0 < d <= radius:
            hits.append((d, j))
    hits.sort()
    return [j for _, j in hits], [d for d, _ in hits]


def _kth_or_max(dists, k):
    if not dists:
        return 0.0
    s = sorted(dists)
    return s[k - 1] if len(s) >= k else s[-1]


def local_graph_oracle(ref_positions, dist_positions, ref_signal, dist_signal,
                       center_index, radius, matching_k,
                       tau_scope="union", stabilizer=1e-3):
    """Slow transcription of the per-keypoint scoring pipeline.

    Returns a dict with the intermediate quantities (cutoff, per-side
    weights, degrees, gradients) and the final statistics (mass, mean,
    variance, covariance, per-channel similarities) or None when a side
    ends up empty.
    """
    center = ref_positions[center_index]
    r_idx, r_d = _cluster(ref_positions, center, radius)
    d_idx, d_d = _cluster(dist_positions, center, radius)
    if not r_idx:
        return None

    if tau_scope == "union":
        tau = _kth_or_max(r_d + d_d, matching_k)
    else:
        tau = max(_kth_or_max(r_d, matching_k), _kth_or_max(d_d, matching_k))
    var = max(tau * tau / 2.0, np.finfo(np.float64).tiny)

    def side(idx, dists, positions, signal):
        kept = [(i, d) for i, d in zip(idx, dists) if d <= tau]
        weights = [math.exp(-(d * d) / var) for _, d in kept]
        pos = [positions[i] for i, _ in kept]
        vals = [signal[i] for i, _ in kept]
        return kept, weights, pos, vals

    r_kept, r_w, r_pos, r_vals = side(r_idx, r_d, ref_positions, ref_signal)
    d_kept, d_w, d_pos, d_vals = side(d_idx, d_d, dist_positions, dist_signal)
    out = {
        "cutoff": tau,
        "ref_weights": np.asarray(r_w),
        "dist_weights": np.asarray(d_w),
        "ref_degree": sum(r_w),
        "dist_degree": sum(d_w),
    }
    if not r_kept or not d_kept:
        out["score"] = None
        return out

    center_value = np.asarray(ref_signal[center_index], dtype=np.float64)
    channels = center_value.size

    def gradients(weights, vals):
        g = []
        for w, v in zip(weights, vals):
            g.append([math.sqrt(w) * (float(vc) - float(cc))
                      for vc, cc in zip(np.atleast_1d(v), np.atleast_1d(center_value))])
        return g

    r_g = gradients(r_w, r_vals)
    d_g = gradients(d_w, d_vals)
    out["ref_gradients"] = np.asarray(r_g)
    out["dist_gradients"] = np.asarray(d_g)

    def nearest(p, candidates):
        best, best_d = 0, math.inf
        for j, q in enumerate(candidates):
            dj = math.dist(p, q)
            if dj < best_d:
                best, best_d = j, dj
        return best

    if len(r_kept) <= len(d_kept):
        pairs = [(i, nearest(p, d_pos)) for i, p in enumerate(r_pos)]
    else:
        pairs = [(nearest(q, r_pos), j) for j, q in enumerate(d_pos)]
    ref_seq = [r_g[i] for i, _ in pairs]
    dist_seq = [d_g[j] for _, j in pairs]

    def moments(grad_all, grad_seq):
        mass = [sum(g[c] for g in grad_all) for c in range(channels)]
        n = len(grad_seq)
        mean = [sum(g[c] for g in grad_seq) / n for c in range(channels)]
        var_ = [sum((g[c] - mean[c]) ** 2 for g in grad_seq) / n for c in range(channels)]
        return mass, mean, var_

    r_mass, r_mean, r_var = moments(r_g, ref_seq)
    d_mass, d_mean, d_var = moments(d_g, dist_seq)
    n = len(ref_seq)
    cov = [
        sum((a[c] - r_mean[c]) * (b[c] - d_mean[c]) for a, b in zip(ref_seq, dist_seq)) / n
        for c in range(channels)
    ]
    out.update(
        ref_mass=np.asarray(r_mass), dist_mass=np.asarray(d_mass),
        ref_mean=np.asarray(r_mean), dist_mean=np.asarray(d_mean),
        ref_variance=np.asarray(r_var), dist_variance=np.asarray(d_var),
        covariance=np.asarray(cov),
    )

    t = stabilizer
    sims = []
    for c in range(channels):
        s_mass = (2 * r_mass[c] * d_mass[c] + t) / (r_mass[c] ** 2 + d_mass[c] ** 2 + t)
        s_mean = (2 * r_mean[c] * d_mean[c] + t) / (r_mean[c] ** 2 + d_mean[c] ** 2 + t)
        s_cov = (cov[c] + t) / (math.sqrt(r_var[c]) * math.sqrt(d_var[c]) + t)
        sims.append((s_mass, s_mean, s_cov))
    out["similarities"] = np.asarray(sims)
    out["score"] = out["similarities"]
    return out


def dense_frequency_scores(positions, k, filter_length):
    """High-pass response magnitudes via dense matrix arithmetic."""
    n = len(positions)
    full = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    w = np.zeros((n, n))
    for i in range(n):
        order = sorted(range(n), key=lambda j: (full[i, j], j))[: k + 1]
        if i in order:
            order.remove(i)
        else:
            order = order[:-1]
        d2 = full[i, order] ** 2
        var = d2.mean()
        if var <= 0:
            w[i, order] = 1.0
        else:
            w[i, order] = np.exp(-d2 / var)
    shift = w / w.sum(axis=1, keepdims=True)
    high_pass = np.linalg.matrix_power(np.eye(n) - shift, filter_length - 1)
    return np.linalg.norm(high_pass @ positions, axis=1)


def average_ranks(values):
    """Ranks starting at 1, ties sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for p in range(i, j + 1):
            ranks[order[p]] = shared
        i = j + 1
    return ranks


def pearson(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    am, bm = a - a.mean(), b - b.mean()
    return float((am * bm).sum() / math.sqrt((am * am).sum() * (bm * bm).sum()))


def spearman(a, b):
    return pearson(average_ranks(list(a)), average_ranks(list(b)))
