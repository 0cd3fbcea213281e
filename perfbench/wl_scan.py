"""scan: the rows of `converge` and `kernel-scan`, driven serially.

Every row calls the public functions the CLI's pooled jobs call, one at a
time, so this is also the single-threaded baseline for those jobs. The
M_k-scaled Python loops (coset_rep per beta, translate_indices per beta)
dominate; every transform is at most 4096 cells.
"""

from __future__ import annotations

import numpy as np

import oracles as O
from harness import Op

GRIDS = {
    "2^11": (2,) * 11,
    "2^12": (2,) * 12,
    "mixed1296": (2, 3, 4, 2, 3, 3, 3),
}

# Highest scale whose difference condition a converge row evaluates. Above
# it a single row costs seconds at 4096 cells.
CONVERGE_TOP = {"2^11": 8, "2^12": 8, "mixed1296": 6}

# Coset-decay rows per scan level: level r (the top) and level r - 1. The
# counts put p50 inside the cluster of 1296-cell rows at level r - 1 and p90
# inside the 4096-cell rows at the top level, not on the edge of a cluster.
COSET_ROWS = (13, 8)

# Majorant rows start at this order; below it a row is call overhead only,
# which the host's speed swings move more than real work.
MAJORANT_FROM = 16

REL = 1e-9

# Op times are scaled to reference speed (see harness.REF_CHUNK_S).
SCALE_TO_REFERENCE = True


def setup(seed: int) -> dict:
    import vilenkin as vk
    from vilenkin import characters, families, group

    rng = np.random.default_rng(seed)
    grids = {}
    for name, radices in GRIDS.items():
        ns = vk.number_system(radices)
        r = ns.resolution
        lac = families.lacunary(ns, families.inverse_scale_coeffs(ns))
        lip = families.random_lipschitz(ns, rng)
        for k in range(r + 1):
            group.coset_key_table(ns, r, k)
        for m in set(radices):
            characters.analysis_matrix(m)
            characters.synthesis_matrix(m)
        M = ns.M
        coset_n = []
        for k, count in zip((r, r - 1), COSET_ROWS):
            span = M[k] - M[k - 1]
            coset_n += [(k, M[k - 1] + (j + 1) * span // (count + 1) + int(rng.integers(0, 3)))
                        for j in range(count)]
        grids[name] = {
            "ns": ns, "radices": radices,
            "functions": {"lacunary": lac, "lipschitz": lip},
            "alpha": round(float(rng.uniform(0.2, 0.8)), 4),
            "coset_n": coset_n,
        }
    return {"grids": grids}


def _scan_check(want: np.ndarray, radices, n: int, cells_of=None):
    """A one-record bound scan matches the oracle ratios."""
    r = O.minimal_resolution(radices, n)

    def check(records) -> bool:
        if len(records) != 1:
            return False
        rec = records[0]
        at = (np.flatnonzero(cells_of == rec.argmax_cell) if cells_of is not None
              else [rec.argmax_cell])
        return (rec.n == n and rec.resolution == r and len(at) > 0
                and O.close(rec.sup_ratio, want.max(), REL)
                and O.close(want[at].max(), want.max(), REL)
                and (rec.beta_ratios is None or O.close(rec.beta_ratios, want, REL)))
    return check


def ops(state: dict) -> list[Op]:
    import vilenkin as vk
    from vilenkin import kernels, oscillation

    out = []
    for name, G in state["grids"].items():
        ns, radices, a = G["ns"], G["radices"], G["alpha"]
        r, M = ns.resolution, ns.M
        for k, n in G["coset_n"]:
            want = O.coset_decay_ratios(radices, n, a, k)
            cells_of = O.coset_rep_cells(radices, k, O.minimal_resolution(radices, n))
            out.append(Op(f"{name}:coset_decay:k={k}:n={n}", M[O.minimal_resolution(radices, n)],
                          lambda ns=ns, a=a, k=k, n=n: kernels.coset_decay_scan(ns, a, k, [n]),
                          _scan_check(want, radices, n, cells_of)))
        # orders from the schedule kernel-scan gives its majorant rows by default
        for n in [n for n in O.n_schedule(radices, {}) if n >= MAJORANT_FROM]:
            want = O.majorant_ratios(radices, n, a)
            out.append(Op(f"{name}:majorant:n={n}", M[O.minimal_resolution(radices, n)],
                          lambda ns=ns, a=a, n=n: kernels.majorant_ratio_scan(ns, a, [n]),
                          _scan_check(want, radices, n)))
        for label, f in G["functions"].items():
            partials = O.series_partials(f.cells, radices, a)
            out.append(Op(f"{name}:{label}:oscillation_series", M[r],
                          lambda f=f, a=a: oscillation.oscillation_series(f, a),
                          lambda rep, want=partials: O.close(rep.partials, want, REL)))
            fhat = O.spectrum(f.cells, radices)
            for k in range(1, CONVERGE_TOP[name] + 1):
                n = M[k]
                k_cond = min(max(k, 1), r - 1)
                mean = O.synthesis(fhat * O.cesaro_weights(n, a, M[r]), radices)
                want = (mean, float(np.abs(mean - f.cells).max()),
                        O.difference_condition(f.cells, radices, k_cond, a))

                def row(f=f, n=n, a=a, k_cond=k_cond):
                    m = vk.cesaro_mean(f, n, a)
                    return (m.cells, vk.sup_distance(m, f),
                            oscillation.difference_condition(f, k_cond, a))

                out.append(Op(f"{name}:{label}:converge:n={n}", M[r], row,
                              lambda got, want=want: all(
                                  O.close(g, w, REL) for g, w in zip(got, want))))
    return out
