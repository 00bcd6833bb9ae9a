"""Independence measures over contingency tables.

Three ways to quantify how exactly an independence condition holds:

  * mutual information (nats), zero iff the variables are independent;
  * Pearson chi-square with an upper-tail p-value (scipy's chdtrc);
  * balanced error ratio of the best deterministic predictor of the
    column variable from the row variable (maximal iff independent).

Each measure, and the rate gap reported beside it, has one vectorized
kernel over tables of shape (..., R, C), so a single table and the (G, R, C)
stack of every stratum are scored by the same code (the soft path feeds its
(m, R, C) neighborhood tables to the same kernels).  Entries a measure
leaves out (empty rows or columns) are summed as if deleted, and the
conditional variants add the weighted per-stratum values in stratum order,
so every value equals the one a per-table loop gives, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DegenerateTable, MissingClass
from .tables import ContingencyTable, JointTable, StratifiedTables, normalize

_NEG_FLOOR = -1e-12  # tolerated numerical undershoot before clamping MI to 0


@dataclass
class MeasureValue:
    kind: str   # mutual_information | chi_square | balanced_error_ratio
    value: float
    aux: dict = field(default_factory=dict)


# -- shared helpers ----------------------------------------------------------------

def _masked_sum(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Sum over the last axis of the entries where `valid` holds.

    numpy sums long rows pairwise, grouping terms by position, so zeros left
    in place of the invalid entries could move the last bits.  The valid
    entries are packed to the front instead and each row is summed over
    exactly its valid width, as if the others had been deleted.
    """
    lead = values.shape[:-1]
    valid = valid.reshape(-1, values.shape[-1])
    order = np.argsort(~valid, axis=-1, kind="stable")
    packed = np.take_along_axis(np.where(valid, values.reshape(valid.shape), 0.0), order, -1)
    width = valid.sum(axis=-1)
    out = np.zeros(len(width))
    for w in np.flatnonzero(np.bincount(width)):
        rows = width == w
        out[rows] = packed[rows, :w].sum(axis=-1)
    return out.reshape(lead)


def _in_stratum_order(terms: np.ndarray) -> float:
    """Total of per-stratum terms, added left to right like `total += term`."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


class StratumValues(Sequence):
    """(key, MeasureValue, weight) per stratum, built on access from columns.

    keys is the (G, m) int64 code array; values, weights and each aux entry
    are (G,) columns.  Vacuous strata read as value 0 with vacuous_aux.
    `rendered` maps a writer's layout to its text pieces, shared by isp and ftu.
    """

    def __init__(self, kind: str, keys: np.ndarray, values: np.ndarray, weights: np.ndarray,
                 aux: dict, vacuous: np.ndarray | None = None, vacuous_aux: dict | None = None):
        self.vacuous = np.zeros(len(values), dtype=bool) if vacuous is None else vacuous
        self.kind, self.keys, self.weights, self.aux = kind, keys, weights, aux
        self.values = np.where(self.vacuous, 0.0, values)
        self.vacuous_aux = dict(vacuous_aux or {})
        self.rendered: dict = {}

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int):
        if self.vacuous[i]:
            mv = MeasureValue(self.kind, 0.0, dict(self.vacuous_aux))
        else:
            mv = MeasureValue(self.kind, self.values[i].item(),
                              {name: col[i].item() for name, col in self.aux.items()})
        return tuple(self.keys[i].tolist()), mv, self.weights[i].item()


def rate_gap(counts: np.ndarray) -> np.ndarray:
    """Largest spread of P(row = v | col group) across column groups with members.

    counts (non-negative) has shape (..., R, C); the result has shape (...)
    and is 0 for tables with fewer than two groups.  For binary rows this is
    the familiar absolute rate difference between groups; it is reported as
    diagnostic context, not a pass/fail measure.
    """
    counts = np.asarray(counts, dtype=np.float64)
    rows = [[counts[..., r, c] for c in range(counts.shape[-1])]
            for r in range(counts.shape[-2])]
    totals = [reduce(np.add, col) for col in zip(*rows)]    # in row order, as sum(axis=-2)
    gap = np.zeros(counts.shape[:-2])
    with np.errstate(invalid="ignore", divide="ignore"):
        for row in rows:     # an empty group's rate is 0 / 0, which fmax and fmin skip
            rates = [x / t for x, t in zip(row, totals)]
            gap = np.maximum(gap, reduce(np.fmax, rates) - reduce(np.fmin, rates))
    return np.where(sum(t > 0 for t in totals) >= 2, gap, 0.0)


# -- mutual information -------------------------------------------------------

def mi_nats(probs: np.ndarray) -> np.ndarray:
    """Mutual information in nats for a batch of joint tables.

    probs has shape (..., R, C), each trailing table summing to 1.
    Cells with p = 0 contribute 0 (the 0 * log 0 convention).
    """
    p = np.asarray(probs, dtype=np.float64)
    pr = p.sum(axis=-1, keepdims=True)
    pc = p.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / (pr * pc))
    terms = np.where(p > 0.0, terms, 0.0)
    value = terms.sum(axis=(-2, -1))
    return np.where((value < 0.0) & (value > _NEG_FLOOR), 0.0, value)


def _entropy(marginal: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return -_masked_sum(marginal * np.log(marginal), marginal > 0.0)


def _mi_parts(probs: np.ndarray) -> dict:
    """MI value plus aux (normalized = I / min(H(row), H(col)), the entropies)."""
    value = mi_nats(probs)
    if (value < 0.0).any():
        raise ValueError(f"mutual information came out negative: {float(value.min())!r}")
    h_row = _entropy(probs.sum(axis=-1))
    h_col = _entropy(probs.sum(axis=-2))
    h_min = np.minimum(h_row, h_col)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(h_min > 0.0, value / h_min, 0.0)
    return {"value": value, "normalized": normalized,
            "entropy_row": h_row, "entropy_col": h_col}


def mutual_information(joint: JointTable) -> MeasureValue:
    """I(row; col) in nats, with aux.normalized = I / min(H(row), H(col))."""
    parts = {name: float(v) for name, v in _mi_parts(joint.probs).items()}
    return MeasureValue(kind="mutual_information", value=parts.pop("value"), aux=parts)


def conditional_mutual_information(strata: StratifiedTables, alpha: float = 0.0) -> MeasureValue:
    """I(row; col | strata) = sum over strata of weight * MI(stratum table).

    Weights are record fractions of the whole dataset, so dropped strata
    simply contribute nothing; the dropped fraction is surfaced in aux.
    """
    aux = _mi_parts(normalize(strata.table, alpha).probs)
    values = aux.pop("value")
    aux["rate_gap"] = rate_gap(strata.table.counts)
    return MeasureValue(
        kind="mutual_information",
        value=_in_stratum_order(strata.weights * values),
        aux={"per_stratum": StratumValues("mutual_information", strata.keys, values,
                                          strata.weights, aux),
             "dropped_mass": strata.dropped_mass},
    )


# -- chi-square ----------------------------------------------------------------

def chi2_sf(statistic, dof):
    """Upper-tail probability of the chi-square distribution (elementwise on arrays)."""
    if np.any(np.asarray(dof) < 1):
        raise ValueError("dof must be >= 1")
    from scipy.special import chdtrc     # here, so that no other audit loads scipy
    return chdtrc(dof, statistic)


def _chi_square_core(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson statistics and dof over each table's non-empty rows and columns.

    dof is 0 for tables with fewer than two non-empty rows or columns,
    whose statistic is then meaningless.
    """
    counts = np.asarray(counts, dtype=np.float64)
    rows = counts.sum(axis=-1)
    cols = counts.sum(axis=-2)
    total = rows.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows[..., :, None] * cols[..., None, :] / total[..., None, None]
        terms = (counts - expected) ** 2 / expected
    r_ok, c_ok = rows > 0, cols > 0
    valid = r_ok[..., :, None] & c_ok[..., None, :]
    flat = terms.shape[:-2] + (-1,)
    stat = _masked_sum(terms.reshape(flat), valid.reshape(flat))
    r_used, c_used = r_ok.sum(axis=-1), c_ok.sum(axis=-1)
    dof = np.where((r_used < 2) | (c_used < 2), 0, (r_used - 1) * (c_used - 1))
    return stat, dof


def chi_square(table: ContingencyTable) -> MeasureValue:
    """Pearson chi-square test of independence for a contingency table."""
    if table.total < 1:
        raise DegenerateTable("table has no observations")
    stat, dof = (x.item() for x in _chi_square_core(table.counts))
    if dof == 0:
        raise DegenerateTable("fewer than 2 non-empty rows or columns")
    return MeasureValue(
        kind="chi_square",
        value=stat,
        aux={"dof": dof, "p_value": float(chi2_sf(stat, dof))},
    )


def stratified_chi_square(strata: StratifiedTables, alpha: float = 0.0) -> MeasureValue:
    """Sum of per-stratum Pearson statistics with summed degrees of freedom.

    Strata where independence is vacuous (a single non-empty row or column)
    contribute nothing.  If every stratum is vacuous the condition holds
    trivially: statistic 0, dof 1, p-value 1.  The statistic is defined on
    raw counts, so alpha (accepted like the other measures') is unused.
    """
    stat, dof = _chi_square_core(strata.table.counts)
    vacuous = dof == 0
    per_stratum = StratumValues(
        "chi_square", strata.keys, stat, strata.weights,
        {"dof": dof, "p_value": chi2_sf(stat, np.maximum(dof, 1)),
         "rate_gap": rate_gap(strata.table.counts)},
        vacuous, {"dof": 0, "degenerate": True},
    )
    stat_total = _in_stratum_order(np.where(vacuous, 0.0, stat))
    dof_total = max(int(dof.sum()), 1)
    return MeasureValue(
        kind="chi_square",
        value=stat_total,
        aux={
            "dof": dof_total,
            "p_value": float(chi2_sf(stat_total, dof_total)),
            "per_stratum": per_stratum,
            "dropped_mass": strata.dropped_mass,
        },
    )


# -- balanced error ratio --------------------------------------------------------

def _ber_core(p: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced error ratio and its ceiling (k-1)/k over each table's present columns.

    The predictor maps each row value to a present column category (argmax
    of p(row | class), ties to the lower index); absent columns take no
    part.  Tables need at least one present column.
    """
    k = present.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = p / p.sum(axis=-2, keepdims=True)       # p(row | class)
    conditional = np.where(present[..., None, :], conditional, -1.0)
    best = np.argmax(conditional, axis=-1)                     # ties -> lower index
    picked = np.take_along_axis(conditional, best[..., None], axis=-1)
    hits = best[..., None] == np.arange(p.shape[-1])
    correct = np.where(hits, picked, 0.0).sum(axis=-2)         # added row by row, in order
    value = _masked_sum(1.0 - correct, present) / k
    return value, (k - 1) / k


def balanced_error_ratio(joint: JointTable) -> MeasureValue:
    """Mean per-class error of the best deterministic column-variable predictor.

    The predictor maps each row value to a column category (argmax of the
    class-conditional cell, ties to the lower index).  Value (k-1)/k means
    the column variable cannot be predicted at all, i.e. independence;
    aux.max_ber carries that ceiling so callers can use value / max_ber.
    """
    p = joint.probs
    class_marginals = p.sum(axis=0)
    if (class_marginals == 0.0).any():
        missing = int(np.argmin(class_marginals))
        raise MissingClass(f"column category {missing} has zero marginal")
    value, max_ber = (float(x) for x in _ber_core(p, class_marginals > 0.0))
    return MeasureValue(
        kind="balanced_error_ratio",
        value=value,
        aux={"max_ber": max_ber, "normalized": value / max_ber},
    )


def stratified_balanced_error_ratio(strata: StratifiedTables, alpha: float = 0.0) -> MeasureValue:
    """Weight-averaged per-stratum balanced error ratio.

    Within a stratum only the column categories actually present are scored;
    strata with fewer than two present categories are vacuous and skipped.
    aux.max_ber is the matching weighted ceiling, so value / max_ber stays a
    scale-free independence score.  All-vacuous stratifications count as
    independence (normalized 1.0).
    """
    counts = strata.table.counts
    present = counts.sum(axis=-2) > 0
    vacuous = present.sum(axis=-1) < 2
    # Laplace smoothing over the present columns only: cells = R * present
    cells = counts.shape[-2] * present.sum(axis=-1)
    denom = counts.sum(axis=(-2, -1)) + alpha * cells
    value, max_ber = _ber_core((counts + alpha) / denom[:, None, None], present)
    value = np.where(vacuous, 0.0, value)
    max_ber = np.where(vacuous, 0.0, max_ber)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = value / max_ber
    per_stratum = StratumValues(
        "balanced_error_ratio", strata.keys, value, strata.weights,
        {"max_ber": max_ber, "normalized": normalized, "rate_gap": rate_gap(counts)},
        vacuous, {"degenerate": True},
    )
    value_total = _in_stratum_order(strata.weights * value)
    max_total = _in_stratum_order(strata.weights * max_ber)
    normalized_total = value_total / max_total if max_total > 0.0 else 1.0
    return MeasureValue(
        kind="balanced_error_ratio",
        value=value_total,
        aux={
            "max_ber": max_total,
            "normalized": normalized_total,
            "per_stratum": per_stratum,
            "dropped_mass": strata.dropped_mass,
        },
    )
