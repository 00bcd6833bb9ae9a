"""The six-criteria engine.

Each criterion is a (conditional) independence statement between the
prediction or target and the sensitive attribute.  Group criteria condition
on nothing or on another outcome variable; individual criteria additionally
condition on the full non-sensitive feature vector, which is also how
fairness through unawareness and situation testing are evaluated.

    id     condition            unit        awareness
    sp     Yhat _||_ S          group       aware
    eo     Yhat _||_ S | Y      group       aware
    suff   Y    _||_ S | Yhat   group       aware
    isp    Yhat _||_ S | X      individual  unaware
    ieo    Yhat _||_ S | Y, X   individual  aware
    isuff  Y    _||_ S | Yhat, X  individual  aware
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import Dataset
from .errors import (
    ContinuousConditioning,
    DegenerateTable,
    EmptySelection,
    InvalidParams,
    MissingColumn,
    NumericConditioning,
    is_integral,
    is_real,
)
from .measures import (
    MeasureValue,
    StratumValues,
    conditional_mutual_information,
    stratified_balanced_error_ratio,
    stratified_chi_square,
)
from .tables import DEFAULT_MIN_COUNT, stratified_contingency


# kind -> (stratified measure, default threshold, pass rule).  The pass rule is
# advisory; the measure value itself is authoritative.
MEASURE_KINDS = {
    "mi": (conditional_mutual_information, 0.01, lambda m, t: m.value <= t),
    "chi2": (stratified_chi_square, 0.05, lambda m, t: m.aux["p_value"] >= t),
    "ber": (stratified_balanced_error_ratio, 0.05, lambda m, t: m.aux["normalized"] >= 1.0 - t),
}

_SYMBOLS = {"prediction": "Ŷ", "target": "Y", "sensitive": "S", "features": "X"}


@dataclass(frozen=True)
class CriterionSpec:
    """One independence condition plus its unit/awareness classification."""

    id: str
    name: str
    left: str                 # 'prediction' or 'target'
    right: str                # always 'sensitive'
    given: tuple[str, ...]    # subset of ('target', 'prediction', 'features')
    unit: str                 # 'group' or 'individual'
    awareness: str            # 'aware' or 'unaware'
    column_names: tuple[str, ...] | None = None  # explicit conditioning columns (situation testing)

    def condition(self) -> str:
        """Human-readable condition string, e.g. 'Ŷ ⊥ S | Y, X'."""
        head = f"{_SYMBOLS[self.left]} ⊥ {_SYMBOLS[self.right]}"
        if self.column_names is not None:
            return head + " | " + ", ".join(self.column_names)
        if not self.given:
            return head
        return head + " | " + ", ".join(_SYMBOLS[g] for g in self.given)


_REGISTRY = (
    CriterionSpec("sp", "statistical parity", "prediction", "sensitive",
                  (), "group", "aware"),
    CriterionSpec("eo", "equalized odds", "prediction", "sensitive",
                  ("target",), "group", "aware"),
    CriterionSpec("suff", "sufficiency", "target", "sensitive",
                  ("prediction",), "group", "aware"),
    CriterionSpec("isp", "individual statistical parity", "prediction", "sensitive",
                  ("features",), "individual", "unaware"),
    CriterionSpec("ieo", "individual equalized odds", "prediction", "sensitive",
                  ("target", "features"), "individual", "aware"),
    CriterionSpec("isuff", "individual sufficiency", "target", "sensitive",
                  ("prediction", "features"), "individual", "aware"),
)

# Omitting the sensitive column from the model and conditioning the parity
# check on everything else are the same formal condition: isp under its other name.
FTU = CriterionSpec("ftu", "fairness through unawareness", "prediction", "sensitive",
                    ("features",), "individual", "unaware")

_BY_ID = {spec.id: spec for spec in _REGISTRY + (FTU,)}


def list_criteria() -> list[CriterionSpec]:
    """The six built-in criteria in registry order."""
    return list(_REGISTRY)


def get_criterion(criterion_id: str) -> CriterionSpec:
    if criterion_id not in _BY_ID:
        raise KeyError(f"unknown criterion id {criterion_id!r}")
    return _BY_ID[criterion_id]


@dataclass
class CriterionResult:
    criterion: CriterionSpec
    measure: MeasureValue
    measure_kind: str
    passed: bool
    threshold: float
    per_stratum: StratumValues | None
    dropped_mass: float


def _conditioning_columns(dataset: Dataset, spec: CriterionSpec) -> list[str]:
    if spec.column_names is not None:
        feature_names = set(dataset.feature_names())
        for c in spec.column_names:
            if c not in feature_names:
                raise MissingColumn(f"{c!r} is not a feature column")
            if dataset.column(c).kind != "categorical":
                raise NumericConditioning(f"situation-testing column {c!r} is numeric")
        return list(spec.column_names)
    cols: list[str] = []
    for token in spec.given:
        if token == "features":
            names = dataset.feature_names()
            numeric = [c.name for c in dataset.features if c.kind == "numeric"]
            if numeric:
                raise ContinuousConditioning(
                    f"features {numeric} are numeric; exact conditioning needs "
                    "all-categorical features (use soft evaluation)"
                )
            cols.extend(names)
        else:
            cols.append(token)
    return cols


def check_exact_params(measure_kind: str, threshold: float | None, min_count: int,
                       alpha: float) -> float:
    """Raise InvalidParams unless these exact-evaluation parameters are valid.

    The measure kind must be in MEASURE_KINDS, the threshold a finite positive
    number, alpha a finite number >= 0 and min_count an integer >= 1, bools
    refused.  Returns the threshold to apply: the kind's default when None.
    """
    if measure_kind not in MEASURE_KINDS:
        raise InvalidParams(f"unknown measure kind {measure_kind!r}")
    if threshold is None:
        threshold = MEASURE_KINDS[measure_kind][1]
    if not (is_real(threshold) and math.isfinite(threshold) and threshold > 0):
        raise InvalidParams(f"threshold must be a finite positive number, not {threshold!r}")
    if not (is_real(alpha) and math.isfinite(alpha) and alpha >= 0):
        raise InvalidParams(f"alpha must be a finite number >= 0, not {alpha!r}")
    if not (is_integral(min_count) and min_count >= 1):
        raise InvalidParams(f"min_count must be an integer >= 1, not {min_count!r}")
    return threshold


def evaluate(
    dataset: Dataset,
    spec: CriterionSpec,
    measure_kind: str = "mi",
    threshold: float | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    alpha: float = 0.0,
) -> CriterionResult:
    """Evaluate one criterion exactly (stratified when the condition is non-empty).

    The condition is spec.column_names when set (situation testing), else
    the columns spec.given names.  Feature conditioning requires
    all-categorical features; numeric features raise ContinuousConditioning
    and should be routed to soft evaluation.  The parameters are checked by
    check_exact_params up front, whether or not the condition is empty.
    """
    threshold = check_exact_params(measure_kind, threshold, min_count, alpha)
    stratified_measure, _, passes = MEASURE_KINDS[measure_kind]
    cols = _conditioning_columns(dataset, spec)
    strata = stratified_contingency(dataset, spec.left, spec.right, cols,
                                    min_count if cols else 1)
    measure = stratified_measure(strata, alpha)
    per_stratum = measure.aux["per_stratum"]
    if not cols:
        # one table: its own measure (with MI's normalized value) is the criterion's
        ((_, measure, _),) = per_stratum
        if measure.aux.get("degenerate"):
            raise DegenerateTable("fewer than 2 non-empty rows or columns")
        per_stratum = None

    return CriterionResult(
        criterion=spec,
        measure=measure,
        measure_kind=measure_kind,
        passed=passes(measure, threshold),
        threshold=threshold,
        per_stratum=per_stratum,
        dropped_mass=strata.dropped_mass,
    )


def evaluate_ftu(
    dataset: Dataset,
    measure_kind: str = "mi",
    threshold: float | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    alpha: float = 0.0,
) -> CriterionResult:
    """Fairness through unawareness: bit-identical to evaluate(isp) under its own name."""
    return evaluate(dataset, FTU, measure_kind, threshold, min_count, alpha)


def check_situation_columns(columns) -> tuple[str, ...]:
    """The situation-testing columns as a tuple, once they are checked.

    At least one column must be named (else EmptySelection), and no name may
    be empty or repeated (else InvalidParams).
    """
    cols = tuple(columns or ())
    if not cols:
        raise EmptySelection("situation testing without columns: name at least one feature")
    if "" in cols:
        raise InvalidParams("situation testing column names must not be empty")
    repeated = sorted({c for c in cols if cols.count(c) > 1})
    if repeated:
        raise InvalidParams(f"situation testing columns repeated: {', '.join(repeated)}")
    return cols


def situation_testing_evaluate(
    dataset: Dataset,
    legally_grounded_columns,
    measure_kind: str = "mi",
    threshold: float | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    alpha: float = 0.0,
) -> CriterionResult:
    """Parity of the prediction conditioned on a chosen subset of feature columns.

    The subset plays the role of the legally grounded attributes a court
    would match on; selecting every feature column reproduces individual
    statistical parity exactly.
    """
    cols = check_situation_columns(legally_grounded_columns)
    spec = CriterionSpec(
        "situation_testing", "situation testing", "prediction", "sensitive",
        ("features",), "individual", "aware", column_names=cols,
    )
    return evaluate(dataset, spec, measure_kind, threshold, min_count, alpha)
