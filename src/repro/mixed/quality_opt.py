"""Class-aware Quality-OPT: maximize mixed quality under capacity.

Same problem as :func:`repro.core.quality_opt.quality_opt` — extra
volumes ``x`` with ``0 ≤ x_i ≤ b_i`` and EDF prefix constraints
``Σ_{i≤k} x_i ≤ C_k`` — but the objective is ``Σ f_i(o_i + x_i)`` with
a *per-job* concave ``f_i``.

KKT inside a binding block now levels the **marginal quality**
``f_i'(o_i + x_i)`` to a common multiplier λ rather than the volume:

    x_i(λ) = clip( (f_i')^{-1}(λ) − o_i, 0, b_i ),

and the allocation is non-increasing in λ, so the λ that exhausts a
budget is found by bisection.  The binding-prefix recursion has the
same nested structure as the shared-f version, with the order flipped:
the shared-f version picks the prefix with the *lowest* exhausting
water level, while with marginals the most starved prefix is the one
whose exhausting λ is the *highest*, and that prefix binds first.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.cutting_general import group_by_function, inverse_marginal
from repro.errors import InfeasibleError
from repro.quality.functions import QualityFunction
from repro.units import (
    PerVolume,
    Seconds,
    SecondsSeq,
    Speed,
    Volume,
    VolumeArray,
    VolumeSeq,
)

__all__ = ["quality_opt_mixed"]

_EPS = 1e-12


def _alloc_at(
    lam: PerVolume,
    distinct: Sequence[QualityFunction],
    index: Sequence[int],
    offsets: Sequence[Volume],
    bounds: Sequence[Volume],
) -> List[Volume]:
    """Extras at multiplier ``lam``: one marginal inverse per class."""
    levels = [inverse_marginal(f, lam) for f in distinct]
    return [
        min(max(levels[k] - o, 0.0), b) for k, o, b in zip(index, offsets, bounds)
    ]


def _lambda_for_budget(
    functions: Sequence[QualityFunction],
    offsets: VolumeArray,
    bounds: VolumeArray,
    budget: Volume,
    *,
    iters: int = 60,
) -> PerVolume:
    """λ whose allocation sums to ``budget`` (0 if even λ→0 fits)."""
    if float(np.sum(bounds)) <= budget + _EPS:
        return 0.0
    distinct, index = group_by_function(functions)
    offs = offsets.tolist()
    bnds = bounds.tolist()
    lo = 0.0  # allocates everything (too much)
    hi = max(float(f.derivative(0.0)) for f in distinct)
    if not np.isfinite(hi):
        hi = 1.0
    while float(np.sum(_alloc_at(hi, distinct, index, offs, bnds))) > budget and hi < 1e12:
        hi *= 4.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if float(np.sum(_alloc_at(mid, distinct, index, offs, bnds))) > budget:
            lo = mid
        else:
            hi = mid
    return hi


def quality_opt_mixed(
    functions: Sequence[QualityFunction],
    bounds: VolumeSeq,
    deadlines: SecondsSeq,
    now: Seconds,
    capacity_per_second: Speed,
    offsets: VolumeSeq | None = None,
) -> VolumeArray:
    """Optimal extras for per-job quality functions (EDF prefixes).

    Mirrors :func:`repro.core.quality_opt.quality_opt`; see the module
    docstring for the KKT argument.  O(n² · bisection) — fine for the
    per-core batch sizes the scheduler produces.
    """
    bounds_arr = np.asarray(bounds, dtype=float)
    dls = np.asarray(deadlines, dtype=float)
    n = bounds_arr.size
    if len(functions) != n or dls.size != n:
        raise ValueError("functions, bounds and deadlines must have equal length")
    if n == 0:
        return np.zeros(0)
    if np.any(bounds_arr < 0):
        raise ValueError("bounds must be non-negative")
    if np.any(np.diff(dls) < 0):
        raise ValueError("deadlines must be non-decreasing (EDF order)")
    if capacity_per_second < 0:
        raise InfeasibleError(f"negative capacity {capacity_per_second!r}")
    offs = np.zeros(n) if offsets is None else np.asarray(offsets, dtype=float)
    if offs.shape != bounds_arr.shape or np.any(offs < 0):
        raise ValueError("offsets must be non-negative and match bounds")

    capacities = capacity_per_second * (dls - now)
    if np.any(capacities < -_EPS):
        raise InfeasibleError("a deadline lies in the past")
    capacities = np.maximum(capacities, 0.0)

    result = np.zeros(n)
    start = 0
    consumed = 0.0
    while start < n:
        # The binding prefix is the one whose exhausting λ is largest.
        best_k = None
        best_lam = -1.0
        for k in range(n - start):
            budget = capacities[start + k] - consumed
            block_f = functions[start : start + k + 1]
            block_o = offs[start : start + k + 1]
            block_b = bounds_arr[start : start + k + 1]
            if budget <= _EPS:
                lam = float("inf") if np.any(block_b > _EPS) else 0.0
            else:
                lam = _lambda_for_budget(block_f, block_o, block_b, budget)
            if lam > best_lam + _EPS:
                best_lam = lam
                best_k = k
        assert best_k is not None
        block = slice(start, start + best_k + 1)
        if best_lam == float("inf"):
            alloc = np.zeros(best_k + 1)
        elif best_lam <= 0.0:
            alloc = bounds_arr[block].copy()
        else:
            alloc = np.array(
                _alloc_at(
                    best_lam,
                    *group_by_function(functions[block]),
                    offs[block].tolist(),
                    bounds_arr[block].tolist(),
                )
            )
            # λ is bisected from above, so the allocation may overshoot
            # the budget by a sliver; scale it back under the block
            # budget (interior prefixes stay safe — see module notes).
            budget = capacities[start + best_k] - consumed
            total = float(np.sum(alloc))
            if total > budget > 0:
                alloc = alloc * (budget / total)
        result[block] = np.minimum(alloc, bounds_arr[block])
        consumed += float(np.sum(result[block]))
        start = start + best_k + 1
    return result
