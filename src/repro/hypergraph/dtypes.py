"""Index-dtype policy for the array substrate.

Every CSR structure in the repo (hypergraph pins, netlist pin/sink
arrays, partition assignments) indexes entities with dense integers.
At the million-gate scale the index arrays themselves become a memory
term, so construction paths build them at the narrowest safe width and
widen exactly once at the freeze boundary:

* **int32** while the indexed id range provably fits (the streamed
  builders' accumulation chunks — half the transient footprint);
* **int64** for every frozen, query-facing array (``Hypergraph``,
  ``PartitionState``, ``CompiledCircuit``): the vectorized kernels mix
  index arrays with ``np.arange``/``np.repeat`` products and weight
  sums, and a single int64 array in a binary op silently upcasts the
  int32 operand *per call* — the churn costs more than the memory
  saved;
* except ``PartitionState.edge_part_count``, which is a count, not an
  id: no entry exceeds the pins of one net, so it takes
  ``index_dtype(largest edge size)`` — int32 in practice, half the
  ``E x k`` array and of every kick snapshot.  Its kernels only compare
  it, and build and update it with ``bincount`` (a ``ufunc.at`` into
  int32 is several times slower than into int64).

:func:`index_dtype` is the one decision point; the rules above and
the regression tests for the 2^31 boundary go through it, so a future
width change happens in exactly one place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["INT32_MAX", "index_dtype", "require_int64"]

#: largest id representable in a signed 32-bit index array
INT32_MAX = np.iinfo(np.int32).max


def index_dtype(max_id: int) -> np.dtype:
    """Narrowest safe index dtype for ids in ``[0, max_id]``.

    ``max_id`` is the largest id the array may hold (not the length).
    Returns ``int32`` while ``max_id`` fits — including the sentinel
    headroom for ``-1`` markers — and ``int64`` past the 2^31 - 1
    boundary.  Negative ``max_id`` (empty range) stays int32.
    """
    return np.dtype(np.int32 if max_id <= INT32_MAX else np.int64)


def require_int64(arr: np.ndarray) -> np.ndarray:
    """Widen a construction-side index array for the frozen substrate.

    The query kernels are int64-only by policy (see the module
    docstring); this is the single upcast at the freeze boundary.
    Returns ``arr`` itself when it is already int64 — no copy.
    """
    if arr.dtype == np.int64:
        return arr
    return arr.astype(np.int64)
