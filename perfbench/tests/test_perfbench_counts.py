"""The counting shim against the decomposition counts of qre at 2x2.

The expected figures are those measured on pre-built states at the commit
that introduced the benchmark: ``monotonicity_gap`` 4 ``eigh``,
``verify_thm42_grid`` 10 ``eigh`` + 1 ``svd``, ``verify_monotonicity_bound``
at beta = 1/2 16 ``eigh`` + 5 ``svd``.  Each count is also checked against
an independent count taken with ``unittest.mock``.
"""

import os
from unittest import mock

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer, outermost_totals  # noqa: E402

from qre import bounds  # noqa: E402
from qre.functions import make_neg_log  # noqa: E402
from qre.linalg import (  # noqa: E402
    FactorizedSpace,
    random_contraction,
    random_density,
    random_unitary,
)

SPACE = FactorizedSpace((2, 2))


@pytest.fixture
def inputs():
    rng = np.random.default_rng(11)
    return (make_neg_log(), random_contraction(2, seed=rng), random_unitary(2, seed=rng),
            random_density(4, seed=rng), random_density(4, seed=rng))


CALLS = {
    "monotonicity_gap": (
        lambda f, k1, v, r, s: bounds.monotonicity_gap(f, k1, v, r, s, SPACE),
        {"eigh": 4, "eigvalsh": 0, "svd": 0}),
    "verify_thm42_grid": (
        lambda f, k1, v, r, s: bounds.verify_thm42_grid(f, k1, v, r, s, 0.5, SPACE),
        {"eigh": 10, "eigvalsh": 0, "svd": 1}),
    "verify_monotonicity_bound": (
        lambda f, k1, v, r, s: bounds.verify_monotonicity_bound(f, k1, v, r, s, 0.5, SPACE),
        {"eigh": 16, "eigvalsh": 0, "svd": 5}),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_shim_counts_match_the_measured_figures(name, inputs):
    call, expected = CALLS[name]
    tracer = Tracer()
    layers.install(tracer)
    try:
        call(*inputs)
    finally:
        tracer.uninstall()
    groups = {d: layers.GROUPS[d] for d in layers.DECOMPOSITIONS}
    got = {d: calls for d, (calls, _) in outermost_totals(tracer.spans, groups).items()}
    assert got == expected

    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        call(*inputs)
    assert {"eigh": eigh.call_count, "eigvalsh": eigvalsh.call_count,
            "svd": svd.call_count} == expected


def test_install_leaves_no_wrapper_behind(inputs):
    before = (np.linalg.eigh, bounds.monotonicity_gap, bounds.quasi_relative_entropy)
    tracer = Tracer()
    layers.install(tracer)
    tracer.uninstall()
    assert (np.linalg.eigh, bounds.monotonicity_gap, bounds.quasi_relative_entropy) == before
