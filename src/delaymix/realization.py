"""From CP components to Markov parameter sequences to state-space models."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSequenceError,
    EmptyDatabaseError,
    HorizonError,
    RankError,
    ShapeError,
)
from .cpd import CPFactors
from .moments import MomentConfig
from .syslin import DelayFreeModel, MarkovSequence

logger = logging.getLogger(__name__)

SV_CUTOFF = 1e-10
# Cumulative squared singular-value energy the automatic order must reach.
ENERGY_THRESHOLD = 0.999
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ModelRecord:
    """One database entry: a realized model, the Markov estimate it was
    realized from, its CP component index, and the gain on its input map
    (1.0 as realize_components returns it; the engine fits it on a window,
    stabilizes the model and multiplies the input map by it)."""

    model: DelayFreeModel
    markov: MarkovSequence
    component_index: int
    b_scale: float = 1.0


def factor_to_markov(component, config: MomentConfig) -> MarkovSequence:
    """Read an impulse-response sequence out of one CP component.

    Entry a is q1[a] * ||q2|| * ||q3||: its magnitude is the Frobenius norm
    of the rank-one tensor's mode-1 slice at a, its sign q1's (whose sign
    convention the decomposition fixes). The vector is divided by its norm
    to the power 2/3 and split into k_max blocks of p entries, each unpacked
    from the vec(y u^T) layout back into a d x dc matrix.
    """
    q1, q2, q3 = (np.asarray(q, dtype=np.float64).ravel() for q in component)
    dim = config.mode_dim
    for name, vec in (("q1", q1), ("q2", q2), ("q3", q3)):
        if vec.shape[0] != dim:
            raise ShapeError(f"{name} has length {vec.shape[0]}, expected {dim}")
    entries = q1 * np.linalg.norm(q2) * np.linalg.norm(q3)
    total = np.linalg.norm(entries)
    if total > 0.0:
        entries = entries / total ** (2.0 / 3.0)
    return MarkovSequence(entries.reshape(config.k_max, config.d, config.dc))


def ho_kalman(seq: MarkovSequence, s: int, order: int | None = None) -> DelayFreeModel:
    """Realize (A, B, C) from the leading 2s blocks of an impulse response.

    Builds the block Hankel with block (r, c) = g_{r+c-1} for r = 1..s,
    c = 1..s+1, splits off the left and shifted sub-Hankels, truncates the
    SVD of the left part to order n, and reads the model out of the balanced
    factors. order fixes n; when None, n is the smallest order whose
    cumulative squared singular-value energy reaches ENERGY_THRESHOLD. Only
    input-output behavior is pinned down; state coordinates are arbitrary.
    All-zero blocks raise DegenerateSequenceError.
    """
    if s < 1:
        raise ConfigError(f"s must be >= 1, got {s}")
    if order is not None and order < 1:
        raise RankError(f"order must be positive, got {order}")
    if seq.horizon < 2 * s:
        raise HorizonError(
            f"sequence horizon {seq.horizon} is too short for s={s}; need at least {2 * s}"
        )
    d, dc = seq.output_dim, seq.input_dim
    hankel = np.zeros((s * d, (s + 1) * dc))
    for r in range(s):
        for c in range(s + 1):
            hankel[r * d : (r + 1) * d, c * dc : (c + 1) * dc] = seq.blocks[r + c]
    left = hankel[:, : s * dc]
    shifted = hankel[:, dc:]
    if not np.any(np.abs(hankel) > DEGENERATE_TOL):
        raise DegenerateSequenceError("all-zero Markov sequence has no realizable dynamics")

    u_mat, sv, vt = np.linalg.svd(left, full_matrices=False)
    max_order = sv.shape[0]  # = s * min(d, dc)
    if order is not None:
        if order > max_order:
            raise RankError(
                f"requested order {order} exceeds the Hankel rank bound {max_order}"
            )
    else:
        energy = np.cumsum(sv**2)
        total = energy[-1]
        if total <= 0.0:
            raise DegenerateSequenceError("left Hankel block is numerically zero")
        order = int(np.searchsorted(energy, ENERGY_THRESHOLD * total) + 1)
        order = min(order, max_order)

    root = np.sqrt(sv[:order])
    observability = u_mat[:, :order] * root
    controllability = root[:, None] * vt[:order]
    c_mat = observability[:d]
    b_mat = controllability[:, :dc]
    cutoff = SV_CUTOFF * sv[0]
    inv_root = np.zeros(order)
    keep = sv[:order] > cutoff
    inv_root[keep] = 1.0 / root[keep]
    obs_pinv = inv_root[:, None] * u_mat[:, :order].T
    ctr_pinv = vt[:order].T * inv_root[None, :]
    a_mat = obs_pinv @ shifted @ ctr_pinv
    return DelayFreeModel(a_mat, b_mat, c_mat)


def realize_components(factors: CPFactors, config: MomentConfig) -> list[ModelRecord]:
    """Realize every non-degenerate component at Hankel size config.s,
    keeping its Markov estimate in the record."""
    realized = []
    for i in range(factors.rank):
        seq = factor_to_markov(factors.component(i), config)
        try:
            model = ho_kalman(seq, config.s)
        except DegenerateSequenceError as err:
            logger.warning("skipping component %d: %s", i, err)
            continue
        realized.append(ModelRecord(model, seq, i))
    if not realized:
        raise EmptyDatabaseError("every component was degenerate; no models realized")
    return realized
