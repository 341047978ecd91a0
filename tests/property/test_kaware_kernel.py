"""The k-aware change step is unobservable.

``solve_constrained`` runs its change step over TRANS transposed to
``[c, p]``, only over the source layers that can already be finite,
in blocks of ``kaware._BLOCK`` layers through one reused buffer, and
builds no more layers than the segments allow. None of that may show:
for random instances the result must equal the pure-Python
``reference_constrained`` (which builds all k + 1 layers and relaxes
every edge) field for field — assignment, cost to the bit,
``change_count`` and ``layers_used`` — or both must raise.

Costs are small integers so that ties are everywhere (first-index
``argmin`` and the strict ``<`` between change and stay edges decide
the assignment), some TRANS cells are infinite (unusable transitions,
which can make a required final configuration unreachable), and k
runs past n so that the layer cap and the block edges (k = 3, 4, 5,
8, 9 with blocks of 4) are crossed.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.costmatrix import CostMatrices
from repro.core.kaware import solve_constrained
from repro.errors import InfeasibleProblemError
from repro.verify.reference import reference_constrained

from ..core.helpers import synthetic_configs


@st.composite
def instances(draw):
    n_seg = draw(st.integers(1, 8))
    n_cfg = draw(st.integers(1, 7))
    exec_matrix = np.array(draw(st.lists(
        st.integers(0, 4), min_size=n_seg * n_cfg,
        max_size=n_seg * n_cfg)), dtype=float).reshape(n_seg, n_cfg)
    trans_matrix = np.array(draw(st.lists(
        st.one_of(st.integers(0, 3), st.just(np.inf)),
        min_size=n_cfg * n_cfg, max_size=n_cfg * n_cfg)),
        dtype=float).reshape(n_cfg, n_cfg)
    np.fill_diagonal(trans_matrix, 0.0)
    final = draw(st.one_of(st.none(), st.integers(0, n_cfg - 1)))
    matrices = CostMatrices(
        configurations=synthetic_configs(n_cfg),
        exec_matrix=exec_matrix, trans_matrix=trans_matrix,
        initial_index=draw(st.integers(0, n_cfg - 1)),
        final_index=final)
    k = draw(st.integers(0, n_seg + 2))
    return matrices, k


def _outcome(solver, matrices, k, count_initial_change):
    try:
        return solver(matrices, k, count_initial_change)
    except InfeasibleProblemError:
        return InfeasibleProblemError


@settings(max_examples=400, deadline=None)
@given(instances(), st.booleans())
def test_kernel_equals_reference(instance, count_initial_change):
    matrices, k = instance
    fast = _outcome(solve_constrained, matrices, k, count_initial_change)
    slow = _outcome(reference_constrained, matrices, k,
                    count_initial_change)
    assert fast == slow
