"""Generalized LF cutting for *mixed* application classes.

The paper's cut assumes one shared quality function.  When a server
hosts several job classes (e.g. web search at c=0.003 next to video
refinement at c=0.0009), "cut the longest job" is no longer the right
rule — the cheapest quality lives wherever the *marginal quality per
unit of work* is lowest, which differs across classes.

Formally: minimize total kept volume ``Σ c_j`` subject to the aggregate
quality constraint ``Σ f_j(c_j) ≥ Q_GE · Σ f_j(p_j)``.  With concave
``f_j``, KKT gives a single multiplier λ such that every job is kept
exactly up to the point where its marginal quality falls to λ:

    c_j(λ) = min(p_j, (f_j')^{-1}(λ)),

and λ is chosen (by bisection — each ``c_j(λ)`` is monotone in λ, hence
so is the aggregate quality) to hit the target exactly.  With identical
``f_j`` this reduces to the paper's common waterline, which is the
regression test anchoring the implementation.

This module is the *kernel* for class-aware cutting; the full
simulator pipeline keeps the paper's shared-``f`` model (Quality-OPT's
levelling argument requires it — see docs/algorithms.md §4).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.quality.functions import QualityFunction
from repro.units import Dimensionless, PerVolume, QualityFrac, Volume, VolumeArray, VolumeSeq

__all__ = ["group_by_function", "inverse_marginal", "lf_cut_mixed"]


def inverse_marginal(
    f: QualityFunction, slope: PerVolume, *, tol: Dimensionless = 1e-9, max_iter: int = 200
) -> Volume:
    """Largest volume whose marginal quality is at least ``slope``.

    I.e. ``(f')^{-1}(slope)`` for concave ``f`` (so ``f'`` is
    non-increasing), clamped to ``[0, x_max]``.  Uses the function's
    closed form (:meth:`QualityFunction.inverse_derivative`); a custom
    ``f`` without one falls back to :func:`_bisect_inverse_marginal`.
    """
    x = f.inverse_derivative(slope)
    if x is not None:
        return x
    return _bisect_inverse_marginal(f, slope, tol=tol, max_iter=max_iter)


def _bisect_inverse_marginal(
    f: QualityFunction, slope: PerVolume, *, tol: Dimensionless = 1e-9, max_iter: int = 200
) -> Volume:
    """:func:`inverse_marginal` by bisection on ``f.derivative``.

    Works for any :class:`QualityFunction`; it is the fallback for
    functions without a closed form and the reference the closed forms
    are tested against.  Ties (``f'(0) == slope``) keep nothing.
    """
    if slope <= 0:
        return f.x_max
    if float(f.derivative(0.0)) <= slope:
        return 0.0
    if float(f.derivative(f.x_max * (1 - 1e-12))) >= slope:
        return f.x_max
    lo, hi = 0.0, f.x_max
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if float(f.derivative(mid)) > slope:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, f.x_max):
            break
    return 0.5 * (lo + hi)


def group_by_function(
    functions: Sequence[QualityFunction],
) -> Tuple[List[QualityFunction], List[int]]:
    """The distinct function objects, and each job's index into them.

    Jobs of one class share their class's function object, so a
    per-λ quantity of ``f`` alone (its marginal inverse) is computed
    once per class and read by index for every job of that class.
    """
    distinct: List[QualityFunction] = []
    slot: Dict[int, int] = {}
    index = []
    for f in functions:
        k = slot.get(id(f))
        if k is None:
            k = slot[id(f)] = len(distinct)
            distinct.append(f)
        index.append(k)
    return distinct, index


def lf_cut_mixed(
    functions: Sequence[QualityFunction],
    demands: VolumeSeq,
    q_target: QualityFrac,
    *,
    tol: Dimensionless = 1e-6,
    max_iter: int = 80,
) -> VolumeArray:
    """Volume-minimal cut across jobs with *per-job* quality functions.

    Parameters
    ----------
    functions:
        Quality function of each job (may repeat objects across jobs).
    demands:
        Full demand of each job.
    q_target:
        Required aggregate quality ``Σ f_j(c_j) / Σ f_j(p_j)``.

    Returns
    -------
    Per-job target volumes, in input order.  Guarantees the aggregate
    quality lands within ``tol`` of ``q_target`` (from above) and each
    target is in ``[0, p_j]``.
    """
    if len(functions) != len(demands):
        raise ValueError("functions and demands must have equal length")
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.size == 0:
        return demands_arr.copy()
    if np.any(demands_arr <= 0):
        raise ValueError("demands must be positive")
    if not 0.0 < q_target <= 1.0:
        raise ValueError(f"q_target must be in (0, 1], got {q_target!r}")

    demand_list = demands_arr.tolist()
    potential = sum(f(p) for f, p in zip(functions, demand_list))
    if potential <= 0:
        return demands_arr.copy()
    distinct, index = group_by_function(functions)

    # Python floats throughout, so every f(c) takes the scalar fast path.
    def targets_at(lam: PerVolume) -> List[Volume]:
        caps = [inverse_marginal(f, lam) for f in distinct]
        return [min(p, caps[k]) for k, p in zip(index, demand_list)]

    def quality_at(lam: PerVolume) -> QualityFrac:
        return sum(f(c) for f, c in zip(functions, targets_at(lam))) / potential

    # λ = 0 keeps everything (quality 1); raising λ cuts deeper.  Find
    # an upper bracket where quality drops below the target.
    lo = 0.0
    hi = max(float(f.derivative(0.0)) for f in distinct)
    if not np.isfinite(hi):
        hi = 1.0  # PowerQuality has f'(0)=inf; expand below if needed
    while quality_at(hi) > q_target and hi < 1e12:
        hi *= 4.0
    if quality_at(hi) > q_target:  # pragma: no cover - pathological f
        return np.array(targets_at(hi))

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if quality_at(mid) < q_target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(hi, 1.0) * 1e-3:
            break
    return np.array(targets_at(lo))
