"""Longest-First (LF) job cutting (paper §III-B).

In AES mode, GE discards the tail of the longest jobs first: by the law
of diminishing returns (concave quality), a job's head contributes more
quality per unit of work than its tail, and the *longest* job has the
cheapest tail.  The procedure levels the longest jobs down to a common
value until the aggregate quality would drop to the user target
``Q_GE``, then binary-searches the final common level so the target is
hit exactly.

Two equivalent implementations are provided:

* :func:`lf_cut_waterline` — observes that the paper's loop produces
  targets of the form ``min(p_j, L)`` for a single level ``L``, and
  binary-searches ``L`` directly on the (monotone) aggregate quality.
  This is the fast path used by the scheduler.
* :func:`lf_cut_stepwise` — follows the paper's five steps literally
  (iterative levelling, then the ``f(c) = (Q_GE(F_U + F_C) − F_U)/|C|``
  fractional step solved by binary search on ``f``).  Used to
  cross-validate the waterline form in tests.

Both accept ``base_achieved``/``base_potential`` so the target applies
to the *cumulative* quality the monitor tracks, not just the batch.
"""

from __future__ import annotations

import numpy as np

from repro.quality.aggregate import quality_ratio
from repro.quality.functions import QualityFunction
from repro.units import Dimensionless, QualityFrac, VolumeArray, VolumeSeq

__all__ = ["lf_cut_waterline", "lf_cut_stepwise"]


def _batch_quality(
    f: QualityFunction,
    targets: VolumeArray,
    demands: VolumeArray,
    base_achieved: Dimensionless,
    base_potential: Dimensionless,
) -> QualityFrac:
    """Aggregate quality of a batch cut to ``targets``, on top of history.

    An empty batch with zero history has ``potential == 0``; the ratio
    is then defined as 1.0 — the cut is vacuously satisfied, matching
    :func:`repro.quality.aggregate.quality_ratio` and the monitor's
    start-up convention (GE begins in AES mode).  The BQ compensation
    switch is driven by the *monitor's* cumulative quality, which only
    reports 1.0 while nothing has settled, so the convention cannot
    mask a genuine quality deficit.
    """
    achieved = base_achieved + float(np.sum(f(targets)))
    potential = base_potential + float(np.sum(f(demands)))
    return quality_ratio(achieved, potential)


def lf_cut_waterline(
    f: QualityFunction,
    demands: VolumeSeq,
    q_target: QualityFrac,
    *,
    base_achieved: Dimensionless = 0.0,
    base_potential: Dimensionless = 0.0,
    tol: Dimensionless = 1e-6,
    max_iter: int = 60,
) -> VolumeArray:
    """LF cut as a waterline: targets are ``min(p_j, L)``.

    Finds the smallest level ``L`` such that the aggregate quality of
    the batch (on top of the monitor history) is at least ``q_target``.
    The aggregate quality is non-decreasing in ``L``, so binary search
    applies.  Returns per-job target volumes in the input order.

    If even full processing cannot reach the target (the history is too
    far underwater), no cutting is performed (targets = demands); the
    mode controller will be in BQ mode in that situation anyway.

    Feasibility guarantee: whenever cutting happens (full processing
    would exceed the target), the returned targets satisfy
    ``_batch_quality(f, targets, demands, ...) >= q_target`` — the
    binary search keeps ``hi`` on the feasible side of the bracket at
    every step, so the returned level is never the infeasible ``lo``.
    """
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.size == 0:
        return demands_arr.copy()
    if np.any(demands_arr <= 0):
        raise ValueError("demands must be positive")
    if not 0.0 < q_target <= 1.0:
        raise ValueError(f"q_target must be in (0, 1], got {q_target!r}")

    top = float(np.max(demands_arr))
    # Evaluate f over the demand vector once; every bisection step below
    # reuses these per-job values instead of recomputing the whole batch.
    f_demands = np.asarray(f(demands_arr), dtype=float)
    sum_f_demands = float(np.sum(f_demands))
    potential = base_potential + sum_f_demands
    full_q = quality_ratio(base_achieved + sum_f_demands, potential)
    if full_q <= q_target:
        return demands_arr.copy()  # cannot afford any cutting
    zero_q = quality_ratio(
        base_achieved + float(np.sum(f(np.zeros_like(demands_arr)))), potential
    )
    if zero_q >= q_target:
        return np.zeros_like(demands_arr)  # history surplus covers the batch

    lo, hi = 0.0, top
    q_hi = full_q  # quality at the feasible (hi) end of the bracket
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        # min(d_j, mid) maps each job to either its own f(d_j) — already
        # in f_demands — or to f(mid); the shape-preserving select keeps
        # the summation order identical to evaluating f on the clipped
        # vector, so the search trajectory is bit-for-bit unchanged.
        f_mid = float(f(np.float64(mid)))
        achieved = base_achieved + float(
            np.sum(np.where(demands_arr <= mid, f_demands, f_mid))
        )
        q = quality_ratio(achieved, potential)
        if q < q_target:
            lo = mid
        else:
            hi = mid
            q_hi = q
        if hi - lo <= tol * max(1.0, top):
            break
    if q_hi < q_target:  # pragma: no cover - the invariant above forbids this
        hi, q_hi = top, full_q  # defensive: fall back to the known-feasible end
    return np.minimum(demands_arr, hi)


def lf_cut_stepwise(
    f: QualityFunction,
    demands: VolumeSeq,
    q_target: QualityFrac,
    *,
    base_achieved: Dimensionless = 0.0,
    base_potential: Dimensionless = 0.0,
) -> VolumeArray:
    """The paper's §III-B procedure, step by step.

    1. Sort jobs by demand (descending).
    2. Level the longest job(s) down to the second-longest; recompute Q.
    3. Repeat while ``Q > Q_GE``.
    4. Stop if ``Q = Q_GE`` exactly.
    5. Otherwise (overshot): with ``U`` the uncut and ``C`` the cut set,
       give every cut job the volume ``c`` solving
       ``f(c) = (Q_GE·(F_U + F_C + F_base) − F_U − A_base)/|C|``
       via binary search on the concave quality function.

    Returns per-job target volumes in the *input* order.
    """
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.size == 0:
        return demands_arr.copy()
    if np.any(demands_arr <= 0):
        raise ValueError("demands must be positive")
    if not 0.0 < q_target <= 1.0:
        raise ValueError(f"q_target must be in (0, 1], got {q_target!r}")

    potential = base_potential + float(np.sum(f(demands_arr)))
    full_q = (base_achieved + float(np.sum(f(demands_arr)))) / potential
    if full_q <= q_target:
        return demands_arr.copy()

    order = np.argsort(-demands_arr, kind="stable")
    sorted_d = demands_arr[order]
    levels = np.unique(sorted_d)[::-1]  # distinct demands, descending
    targets_sorted = sorted_d.copy()

    chosen_cut = 0  # number of leading (longest) jobs in the cut set
    for level_idx in range(1, levels.size + 1):
        # Level everything above `next_level` down to it (step 2); after
        # the last distinct level, the floor is 0 (cut everything).
        next_level = levels[level_idx] if level_idx < levels.size else 0.0
        candidate = np.minimum(sorted_d, next_level)
        q = _batch_quality(f, candidate, sorted_d, base_achieved, base_potential)
        cut_count = int(np.sum(sorted_d > next_level))
        if q > q_target:  # step 3: keep cutting
            targets_sorted = candidate
            chosen_cut = cut_count
            continue
        if q == q_target:  # step 4: exact hit
            targets_sorted = candidate
            chosen_cut = cut_count
            break
        # Step 5: this iteration overshot — solve the fractional level
        # for the current cut set.
        chosen_cut = cut_count
        cut_mask = np.zeros(sorted_d.size, dtype=bool)
        cut_mask[:chosen_cut] = True
        f_uncut = float(np.sum(f(sorted_d[~cut_mask]))) if np.any(~cut_mask) else 0.0
        desired_fc = (
            q_target * potential - f_uncut - base_achieved
        ) / float(chosen_cut)
        desired_fc = min(max(desired_fc, 0.0), 1.0)
        c = f.inverse(desired_fc)
        targets_sorted = sorted_d.copy()
        targets_sorted[cut_mask] = np.minimum(sorted_d[cut_mask], c)
        break

    targets = np.empty_like(targets_sorted)
    targets[order] = targets_sorted
    return targets
