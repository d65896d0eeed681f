#!/usr/bin/env python3
"""Write the table of Gauss rules that ``phasequant.bases`` reads instead of iterating.

    PYTHONPATH=src python3 scripts/tabulate_rules.py

For every size in :data:`SIZES` the file ``src/phasequant/gauss_rules.npz``
holds the nonnegative half of the rule as the Newton builder
(``bases._legendre_newton`` or ``bases._hermite_newton``) returns it, one
``(2, half)`` float64 array of nodes over weights named ``<family>_<n>``.
The sizes are those the default ``flat-axioms`` and ``orderings`` runs
request; a size outside the table still takes Newton.  The archive's members
are stored uncompressed with a fixed time stamp, so the same rules give the
same bytes.  Run this again after a change of the Newton builders or of the
default sizes.
"""

from __future__ import annotations

import sys
import zipfile

import numpy as np

from phasequant import bases

SIZES = {
    # operator_matrix's coarse and fine rules at QUADRATURE_NODES, for every
    # Hermite operator matrix with K <= 48
    "legendre": (192, 384),
    # flat_trace's ladder at K = 4, 8, 16, 32 (8K nodes each; the first also
    # serves quantizer_diag_flat's small kernels), quantizer_matrix_flat at
    # K = 16, and quantize_gaussian_flat at flat-axioms' default K = 32
    "hermite": (32, 64, 68, 128, 132, 256),
}


def main() -> int:
    with zipfile.ZipFile(bases.RULE_TABLE, "w") as archive:
        for family, sizes in SIZES.items():
            newton = getattr(bases, f"_{family}_newton")
            for n in sizes:
                member = zipfile.ZipInfo(f"{family}_{n}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                with archive.open(member, "w") as handle:
                    np.lib.format.write_array(handle, np.stack(newton(n)), allow_pickle=False)
    print(f"wrote {bases.RULE_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
