"""large_grid: library calls on grids of 2^16 to 1.33M cells.

The staged transform is bandwidth-bound at these sizes, so fused stages and
table layout show here. No coset_rep or bound-scan calls are made. Means and
convolutions are checked against np.fft.fftn spectra by a random projection
and by Parseval; forward is compared entry by entry; oscillation against
coset diameters taken by reshaping.
"""

from __future__ import annotations

import numpy as np

import oracles as O
from harness import Op

GRIDS = {
    "2^16": (2,) * 16,
    "2^18": (2,) * 18,
    "4^9": (4,) * 9,
    "2^20": (2,) * 20,
    "mixed": (2, 3, 4, 2, 3, 2, 2, 2) * 2,
}

# Ops per grid. The two largest grids carry transform-bound calls only and
# oscillation runs on the smaller grids, so it stays a minority of the time.
# The four slowest ops cost about the same, so p90 (the 4th slowest of 32)
# does not hinge on one op.
MIX = {
    "2^16": ("forward", "inverse", "cesaro_mean", "fejer_mean", "partial_sum",
             "convolve", "kernel_convolve", "oscillation_profile", "modulus"),
    "2^18": ("forward", "inverse", "cesaro_mean", "fejer_mean", "partial_sum",
             "convolve", "kernel_convolve", "modulus"),
    "4^9": ("forward", "inverse", "cesaro_mean", "fejer_mean", "partial_sum",
            "convolve", "modulus"),
    "2^20": ("forward", "inverse", "cesaro_mean", "convolve"),
    "mixed": ("forward", "inverse", "fejer_mean", "partial_sum"),
}

# The real second operand is a Lipschitz family where the grid has
# oscillation ops or is 2^20 (whose int64 digit table, 160 MiB, belongs in
# setup); elsewhere it is plain real noise, which needs no digit table.
LIPSCHITZ = ("2^16", "2^18", "4^9", "2^20")

REL = 1e-9

# Op times are scaled to reference speed (see harness.REF_CHUNK_S).
SCALE_TO_REFERENCE = True


def setup(seed: int) -> dict:
    """Build the inputs from the seed and warm the group and root tables."""
    import vilenkin as vk
    from vilenkin import characters, families, group

    rng = np.random.default_rng(seed)
    grids = {}
    for name, radices in GRIDS.items():
        ns = vk.number_system(radices)
        M, r = ns.cell_count, ns.resolution
        f = families.random_cells(ns, rng)
        if name in LIPSCHITZ:
            g = families.random_lipschitz(ns, rng)
            group.digit_matrix(ns, r)
        else:
            g = families.random_cells(ns, rng, real=True)
        if "oscillation_profile" in MIX[name] or "modulus" in MIX[name]:
            for k in range(r + 1):
                group.coset_key_table(ns, r, k)
        for m in set(radices):
            characters.root_table(m)
            characters.analysis_matrix(m)
            characters.synthesis_matrix(m)
        grids[name] = {
            "ns": ns, "radices": radices, "f": f, "g": g,
            # the random cells of f double as the coefficients inverse() gets
            "c": vk.CoefficientVector(ns, r, f.cells),
            # orders near 0.3 M and 0.45 M: the jitter moves values, not cost
            "n": int(0.30 * M) + int(rng.integers(0, M // 200)),
            "n2": int(0.45 * M) + int(rng.integers(0, M // 200)),
            "alpha": round(float(rng.uniform(0.2, 0.8)), 4),
            "k": r // 2,
        }
    return {"grids": grids}


def _projection_check(cells, coeffs, probe, probe_hat) -> bool:
    """cells == sum_nu coeffs[nu] psi_nu, tested on a random probe and by Parseval."""
    cells = np.asarray(cells)
    if cells.shape != coeffs.shape or not np.all(np.isfinite(cells)):
        return False
    lhs = np.dot(cells, probe)
    rhs = np.dot(coeffs, probe_hat)
    scale = float(np.linalg.norm(coeffs) * np.linalg.norm(probe_hat))
    power = float(np.sum(np.abs(coeffs) ** 2))
    return (abs(lhs - rhs) <= REL * scale
            and abs(float(np.mean(np.abs(cells) ** 2)) - power) <= REL * power)


def _grid_ops(name: str, G: dict, rng) -> list[Op]:
    import vilenkin as vk
    from vilenkin import kernels, oscillation

    ns, radices, f, g, c = G["ns"], G["radices"], G["f"], G["g"], G["c"]
    n, n2, a, k = G["n"], G["n2"], G["alpha"], G["k"]
    M = ns.cell_count
    fhat = O.spectrum(f.cells, radices)
    ghat = O.spectrum(g.cells, radices) if "convolve" in MIX[name] else None
    probe = rng.standard_normal(M)
    probe_hat = O.synthesis(probe, radices)  # sum_x psi_nu(x) probe(x)
    # kind -> (call, the coefficients its output must synthesize); the
    # coefficients are formed at check time so no expected field is kept
    synth = {
        "inverse": (lambda: vk.inverse(c), lambda: c.coeffs),
        "cesaro_mean": (lambda: vk.cesaro_mean(f, n, a),
                        lambda: fhat * O.cesaro_weights(n, a, M)),
        "fejer_mean": (lambda: vk.fejer_mean(f, n), lambda: fhat * O.fejer_weights(n, M)),
        "partial_sum": (lambda: vk.partial_sum(f, n), lambda: fhat * O.partial_weights(n, M)),
        "convolve": (lambda: vk.convolve(f, g), lambda: fhat * ghat),
        "kernel_convolve": (
            lambda: vk.convolve(f, kernels.cesaro_kernel(ns, n2, a, resolution=ns.resolution)),
            lambda: fhat * O.cesaro_weights(n2, a, M)),
    }
    profile = O.oscillation_profile(g.cells, radices) if name in LIPSCHITZ else None
    modulus = float(O.coset_diameters(g.cells, radices, k).max())
    out = []
    for kind in MIX[name]:
        if kind in synth:
            call, want = synth[kind]
            check = (lambda res, want=want:
                     _projection_check(res.cells, want(), probe, probe_hat))
        elif kind == "forward":
            call = lambda: vk.forward(f)  # noqa: E731
            check = lambda res: O.close(res.coeffs, fhat, REL)  # noqa: E731
        elif kind == "oscillation_profile":
            call = lambda: oscillation.oscillation_profile(g)  # noqa: E731
            check = lambda res: all(O.close(got, w, REL) for got, w in  # noqa: E731
                                    zip((res.omega, res.total, res.nu), profile))
        else:
            call = lambda: oscillation.modulus_of_continuity(g, k)  # noqa: E731
            check = lambda res: O.close(res, modulus, REL)  # noqa: E731
        out.append(Op(f"{name}:{kind}", M, call, check))
    return out


def ops(state: dict) -> list[Op]:
    """The fixed op list of one pass; the oracle spectra are computed here."""
    rng = np.random.default_rng(12345)
    return [op for name, G in state["grids"].items() for op in _grid_ops(name, G, rng)]
