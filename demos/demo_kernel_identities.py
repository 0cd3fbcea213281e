"""Dirichlet kernel identities checked exhaustively on small groups.

Every closed form is compared cell by cell against the brute-force
partial sum of characters; residuals should sit at float rounding.
"""

import numpy as np

import vilenkin as vk
from vilenkin import verify


def main():
    for radices in ([2] * 6, [2, 3, 4, 2]):
        ns = vk.number_system(radices)
        print(f"radices {radices} (cells = {ns.cell_count})")

        rep = verify.verify_dirichlet_recursions(ns)
        for name, res in sorted(rep.items()):
            print(f"  {name:16s} max residual = {res:.3e}")

        # scale kernels are exact indicators
        idx = np.arange(ns.cell_count)
        for k in range(ns.resolution + 1):
            d = vk.dirichlet(ns, ns.M[k], resolution=ns.resolution)
            exact = ns.M[k] * (idx % ns.M[k] == 0)
            assert np.array_equal(d.cells.real, exact), (radices, k)
        print(f"  scale kernels D_{{M_k}}: exact indicator times M_k, all k")

        # the summation-by-parts decomposition holds for every order
        worst = 0.0
        for alpha in (0.25, 0.5, 0.75):
            worst = max(worst, float(verify.block_decomposition_residuals(ns, alpha).max()))
        print(f"  block decomposition, all n, 3 alphas: max residual = {worst:.3e}")


if __name__ == "__main__":
    main()
