"""Library code raises only the package's own error types.

Each case below is one ``raise`` site in ``numdiff``, ``fields``, ``taylor``,
``geometry.covariant_divergence`` and the harness check declaration; every one
raises a :class:`PhasequantError` that is still a ``ValueError``.
"""

import numpy as np
import pytest

from phasequant import fields, geometry, harness, numdiff, taylor
from phasequant.errors import PhasequantError

ONE = np.ones(())
SCALAR = taylor.constant(2, 1, ONE)
VECTOR = taylor.constant(2, 1, np.ones(2))


def fifth_callable_partial():
    field = fields.from_callable(1, lambda q: q[0] ** 2)
    for _ in range(5):
        field = field.partial(0)


CASES = {
    "numdiff-jet-order": lambda: numdiff.jet(numdiff.pointwise(lambda x: x[0]), np.zeros(1), 5),
    "fields-callable-order": fifth_callable_partial,
    "fields-add-empty": lambda: fields.add(),
    "fields-component-shape": lambda: fields.stack(2, 2, np.empty((2,), dtype=object)),
    "fields-tensor-add-rank": lambda: fields.add(fields.constant(2, np.ones(2)), fields.constant(2, 1.0)),
    "taylor-coefficient-shape": lambda: taylor.Series(2, 1, np.ones(4)),
    "taylor-add-shapes": lambda: taylor.add(SCALAR, VECTOR),
    "taylor-outer-dims": lambda: taylor.outer(SCALAR, taylor.constant(3, 1, ONE)),
    "taylor-mul-base": lambda: taylor.mul(VECTOR, SCALAR),
    "taylor-trace-axes": lambda: taylor.trace(VECTOR, 0, 0),
    "taylor-derivative-order": lambda: taylor.gradient(taylor.constant(2, 0, ONE), 0),
    "taylor-pairing-weight": lambda: taylor.delta_pairing(VECTOR, SCALAR),
    "taylor-pairing-order": lambda: taylor.delta_pairing(SCALAR, taylor.constant(2, 1, np.ones((2, 2)))),
    "geometry-divergence-rank": lambda: geometry.covariant_divergence(
        geometry.euclidean_space(2), fields.constant(2, 1.0)
    ),
    "harness-comparison-mode": lambda: harness.Check("only", 1.0, "TRIVIAL", mode="sideways"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_errors_are_phasequant_errors(case):
    with pytest.raises(PhasequantError) as info:
        CASES[case]()
    assert isinstance(info.value, ValueError)
