"""Quality-OPT: best quality under a per-core capacity limit.

The paper (§III-E) applies "the existing Quality-OPT algorithm [14] ...
to calculate the most efficient part of the jobs to achieve the highest
possible quality with limited power (a second cut)".  [14] is Tians
scheduling (He, Elnikety, Sun — ICDCS'11): given jobs that may be
partially processed and a limited processing capacity, choose per-job
volumes maximizing total quality.

Formally, for one core at time ``now`` with speed cap ``s`` running its
jobs sequentially in EDF order, a volume vector ``(x_1..x_n)`` is
feasible iff every prefix fits the capacity available before its
deadline:

    Σ_{i≤k} x_i ≤ C_k := s·(d_k − now)        for all k,
    0 ≤ x_i ≤ bound_i.

Maximizing ``Σ f(offset_i + x_i)`` for one shared concave ``f`` (where
``offset_i`` is volume already processed) is solved exactly by a
*nested water-filling*: the binding prefix is the one whose waterline
is lowest; its jobs are levelled at that waterline and the procedure
recurses on the suffix with the consumed capacity subtracted.  This is
the quality-domain mirror of YDS's critical-interval argument and runs
in O(n² log n) worst case (batches per core are small).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import InfeasibleError
from repro.units import Seconds, SecondsSeq, Speed, Volume, VolumeArray, VolumeSeq

__all__ = ["quality_opt", "prefix_feasible"]

_EPS = 1e-12


def prefix_feasible(
    volumes: VolumeArray, capacities: VolumeArray, rel_tol: float = 1e-9
) -> bool:
    """Check ``Σ_{i≤k} volumes_i ≤ capacities_k`` for every prefix k."""
    prefix = np.cumsum(volumes)
    slack = capacities - prefix
    return bool(np.all(slack >= -rel_tol * np.maximum(1.0, capacities)))


def _np_sum(values: VolumeSeq) -> Volume:
    """``np.sum`` of a list: the exact value a decision or result needs.

    numpy's summation order is its own (pairwise and vectorized for
    n ≥ 8), so it is never re-implemented here; this is one reduction
    over a fresh array, bitwise equal to ``np.sum`` over any slice
    holding the same values.
    """
    return float(np.add.reduce(np.array(values, dtype=float)))


def _sum_exceeds(values: VolumeSeq, threshold: Volume) -> bool:
    """``np.sum(values) > threshold``, decided from a Python-level sum.

    ``sum`` accumulates left to right (compensated on Python ≥ 3.12).
    For non-negative terms either way it differs from numpy's
    ``np.sum`` by far less than ``(n+1)·1e-14·sum``, so only
    comparisons landing inside that band pay for the exact reduction.
    """
    running = sum(values)
    gap = running - threshold
    tol = (len(values) + 1) * 1e-14 * running
    if gap > tol:
        return True
    if gap < -tol:
        return False
    return _np_sum(values) > threshold


def _clip_row(w: Volume, offsets: VolumeSeq, bounds: VolumeSeq) -> list:
    """``np.clip(w − offsets, 0, bounds)`` elementwise on Python floats.

    The conditional expressions mirror numpy's float clip
    (``max`` as ``x > lo ? x : lo``, then ``min`` as ``y < hi ? y : hi``),
    signed zeros included.
    """
    row = []
    for o, b in zip(offsets, bounds):
        x = w - o
        if not x > 0.0:
            x = 0.0
        row.append(x if x < b else b)
    return row


def _waterline_for_budget(
    offsets: VolumeSeq, bounds: VolumeSeq, budget: Volume
) -> Volume:
    """Water level ``w`` with ``Σ clip(w − offset_i, 0, bound_i) = budget``.

    Returns ``inf`` when even ``w = max(offset+bound)`` does not exhaust
    the budget (i.e. every job can be fully processed).  Inputs are
    Python lists of floats.
    """
    if not _sum_exceeds(bounds, budget + _EPS):
        return float("inf")
    # The allocation Σ clip(w − o_i, 0, b_i) is piecewise linear and
    # non-decreasing in w with breakpoints at offsets and tops (the
    # same values ``np.unique`` would give: inputs are non-negative, so
    # there is no −0.0/+0.0 representative ambiguity).  Scan them in
    # ascending order and stop at the first whose ``np.sum`` allocation
    # reaches ``budget − _EPS``.  Each test is decided on a sequential
    # sum, with the exact ``np.sum`` only inside the error band (see
    # ``_sum_exceeds``).
    tops = [o + b for o, b in zip(offsets, bounds)]
    points = sorted(set(offsets) | set(tops))
    target = budget - _EPS
    band = (len(bounds) + 1) * 1e-14
    lo = points[0]
    for p in points:
        alloc = 0.0
        for o, b in zip(offsets, bounds):
            x = p - o
            if x > 0.0:
                alloc += x if x < b else b
        gap = alloc - target
        tol = band * alloc
        if gap > tol or (
            gap >= -tol and _np_sum(_clip_row(p, offsets, bounds)) >= target
        ):
            break
        lo = p
    hi = p  # the last point when none reaches (Σ bounds > budget rules that out)
    alloc_lo = _np_sum(_clip_row(lo, offsets, bounds))
    # On (lo, hi] the slope is the number of jobs with offset <= lo < top.
    lo_eps = lo + _EPS
    active = 0
    for o, tp in zip(offsets, tops):
        if o <= lo_eps and tp > lo_eps:
            active += 1
    if active <= 0:
        return hi
    return lo + (budget - alloc_lo) / float(active)


def quality_opt(
    bounds: VolumeSeq,
    deadlines: SecondsSeq,
    now: Seconds,
    capacity_per_second: Speed,
    offsets: Optional[VolumeSeq] = None,
) -> VolumeArray:
    """Optimal extra volumes under prefix capacity constraints.

    Parameters
    ----------
    bounds:
        Maximum extra volume each job may receive (remaining demand, or
        the AES cut target minus already-processed volume), EDF order.
    deadlines:
        Absolute deadlines, non-decreasing.
    now:
        Current time; capacity before deadline k is
        ``capacity_per_second · (deadlines[k] − now)``.
    capacity_per_second:
        The core's throughput at its power cap (units/second).
    offsets:
        Volume already processed per job (shifts the marginal quality);
        defaults to zero.

    Returns
    -------
    Extra-volume vector ``x`` with ``0 ≤ x ≤ bounds``, prefix-feasible,
    maximizing ``Σ f(offset + x)`` for any common concave ``f``.

    Notes
    -----
    The returned allocation is *f-independent*: levelling total volumes
    is optimal simultaneously for every shared non-decreasing concave
    quality function, so the caller does not pass ``f`` at all.  (With
    per-job quality functions this would no longer hold.)
    """
    # Validation and the per-deadline capacities run on Python lists:
    # scalar compare/multiply/subtract are bitwise equal to the
    # elementwise numpy expressions they replaced, the interpreter beats
    # numpy's per-call overhead on these small batches, and list inputs
    # from the planner skip array construction entirely.
    if isinstance(bounds, np.ndarray):
        blist = bounds.tolist()
    else:
        blist = [float(b) for b in bounds]
    if isinstance(deadlines, np.ndarray):
        dlist = deadlines.tolist()
    else:
        dlist = [float(d) for d in deadlines]
    n = len(blist)
    if n != len(dlist):
        raise ValueError("bounds and deadlines must have equal length")
    if n == 0:
        return np.zeros(0)
    if n == 1:
        # Single-job scalar path (the common case on lightly loaded
        # cores): the objective is monotone, so grant everything that
        # fits.  Checks and arithmetic mirror the general path below.
        b0 = blist[0]
        if b0 < 0:
            raise ValueError("bounds must be non-negative")
        if capacity_per_second < 0:
            raise InfeasibleError(f"negative capacity {capacity_per_second!r}")
        if offsets is not None:
            if len(offsets) != 1 or float(offsets[0]) < 0:
                raise ValueError("offsets must be non-negative and match bounds")
        cap0 = capacity_per_second * (dlist[0] - now)
        if cap0 < -_EPS:
            raise InfeasibleError("a deadline lies in the past")
        if not cap0 > 0.0:  # matches np.maximum(cap0, 0.0), -0.0 included
            cap0 = 0.0
        return np.array([min(b0, cap0)])
    for b in blist:
        if b < 0:
            raise ValueError("bounds must be non-negative")
    for i in range(n - 1):
        if dlist[i + 1] - dlist[i] < 0:
            raise ValueError("deadlines must be non-decreasing (EDF order)")
    if capacity_per_second < 0:
        raise InfeasibleError(f"negative capacity {capacity_per_second!r}")
    if offsets is None:
        olist = [0.0] * n
    else:
        if isinstance(offsets, np.ndarray):
            olist = offsets.tolist()
        else:
            olist = [float(o) for o in offsets]
        if len(olist) != n:
            raise ValueError("offsets must be non-negative and match bounds")
        for o in olist:
            if o < 0:
                raise ValueError("offsets must be non-negative and match bounds")

    clist = []
    for d in dlist:
        c = capacity_per_second * (d - now)
        if c < -_EPS:
            raise InfeasibleError("a deadline lies in the past")
        clist.append(c if c > 0.0 else 0.0)  # == np.maximum(c, 0.0)

    # All-fits fast path: when every EDF prefix fits its capacity, no
    # prefix binds and the nested water-filling below grants every bound
    # in full (its ``best_w == inf`` exit).  Prefix sums are tracked
    # with a cheap sequential running sum; numpy's ``np.sum`` (which
    # the waterline's exit compares against) can differ from it by at
    # most ~(k+1)·eps relative, so comparisons landing inside a
    # conservative error band are re-decided with the exact ``np.sum``
    # (the same rule as ``_sum_exceeds``).  Taking this path therefore
    # cannot change the result by even an ulp.
    all_fit = True
    running = 0.0
    for k in range(n):
        cap_k = clist[k]
        if cap_k <= _EPS:
            all_fit = False
            break
        running += blist[k]
        gap = running - (cap_k + _EPS)
        tol = (k + 1) * 1e-14 * running  # >> (k+1)·eps·Σ summation error
        if gap > tol:
            all_fit = False
            break
        if gap > -tol and _np_sum(blist[: k + 1]) > cap_k + _EPS:
            all_fit = False
            break
    if all_fit:
        return np.array(blist)

    # The nested water-filling stays on Python lists as well; the
    # result becomes an ndarray only on return.
    result: list = []
    start = 0
    consumed = 0.0
    pos_idx = 0  # first index >= start holding a bound > _EPS (lazily advanced)
    while start < n:
        # Waterline for every candidate prefix of the remaining jobs.
        best_k = None
        best_w = float("inf")
        if pos_idx < start:
            pos_idx = start
        while pos_idx < n and not blist[pos_idx] > _EPS:
            pos_idx += 1
        for k in range(n - start):
            budget = clist[start + k] - consumed
            if budget <= _EPS:
                # No capacity before this deadline: its prefix gets 0.
                # (The prefix holds positive work iff the first positive
                # bound at or past ``start`` falls inside it.)
                w = -float("inf") if pos_idx <= start + k else float("inf")
                if w < best_w:
                    best_w = w
                    best_k = k
                continue
            end = start + k + 1
            w = _waterline_for_budget(olist[start:end], blist[start:end], budget)
            if w < best_w - _EPS:
                best_w = w
                best_k = k
        if best_k is None or best_w == float("inf"):
            # No prefix binds: every remaining job is fully served.
            result.extend(blist[start:])
            break
        end = start + best_k + 1
        if best_w == -float("inf"):
            alloc = [0.0] * (best_k + 1)
        else:
            alloc = _clip_row(best_w, olist[start:end], blist[start:end])
        result.extend(alloc)
        consumed += _np_sum(alloc)
        start = end
    return np.array(result)
