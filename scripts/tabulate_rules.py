#!/usr/bin/env python3
"""Write the table of Gauss rules that ``phasequant.bases`` reads instead of iterating.

    PYTHONPATH=src python3 scripts/tabulate_rules.py

For every size in ``bases.RULE_SIZES`` the file ``src/phasequant/gauss_rules.npy``
holds the nonnegative half of the rule as the Newton builder
(``bases._legendre_newton`` or ``bases._hermite_newton``) returns it: one
``(2, columns)`` float64 array of nodes over weights, the halves side by side
in the order of ``RULE_SIZES``, from which ``bases`` takes the offsets.  The
sizes are those the default ``flat-axioms`` and ``orderings`` runs request; a
size outside the table still takes Newton.  The same rules give the same
bytes.  Run this again after a change of the Newton builders or of
``RULE_SIZES``.
"""

from __future__ import annotations

import sys

import numpy as np

from phasequant import bases
from phasequant.bases import RULE_SIZES


def main() -> int:
    halves = [np.stack(getattr(bases, f"_{family}_newton")(n)) for family, sizes in RULE_SIZES.items() for n in sizes]
    np.save(bases.RULE_TABLE, np.concatenate(halves, axis=1), allow_pickle=False)
    print(f"wrote {bases.RULE_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
