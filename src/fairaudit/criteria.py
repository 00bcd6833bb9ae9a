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

from dataclasses import dataclass

from .dataset import Dataset
from .errors import (
    ContinuousConditioning,
    DegenerateTable,
    EmptySelection,
    MissingColumn,
    NumericConditioning,
)
from .measures import (
    MeasureValue,
    StratumValues,
    conditional_mutual_information,
    stratified_balanced_error_ratio,
    stratified_chi_square,
)
from .tables import DEFAULT_MIN_COUNT, stratified_contingency

MEASURE_KINDS = ("mi", "chi2", "ber")

_STRATIFIED_MEASURES = {"mi": conditional_mutual_information, "chi2": stratified_chi_square,
                        "ber": stratified_balanced_error_ratio}

# decision thresholds when the caller does not override:
# mi: value <= t, chi2: p_value >= t, ber: value/max_ber >= 1 - t
DEFAULT_THRESHOLDS = {"mi": 0.01, "chi2": 0.05, "ber": 0.05}

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

FTU = CriterionSpec("ftu", "fairness through unawareness", "prediction", "sensitive",
                    ("features",), "individual", "unaware")


def list_criteria() -> list[CriterionSpec]:
    """The six built-in criteria in registry order."""
    return list(_REGISTRY)


def get_criterion(criterion_id: str) -> CriterionSpec:
    for spec in _REGISTRY:
        if spec.id == criterion_id:
            return spec
    if criterion_id == "ftu":
        return FTU
    raise KeyError(f"unknown criterion id {criterion_id!r}")


@dataclass
class CriterionResult:
    criterion: CriterionSpec
    measure: MeasureValue
    measure_kind: str
    passed: bool
    threshold: float
    per_stratum: StratumValues | None
    dropped_mass: float
    mode: str = "exact"


def decide(measure_kind: str, measure: MeasureValue, threshold: float) -> bool:
    """Pass/fail rule per measure kind (advisory; the value itself is authoritative)."""
    if measure_kind == "mi":
        return measure.value <= threshold
    if measure_kind == "chi2":
        return measure.aux["p_value"] >= threshold
    if measure_kind == "ber":
        max_ber = measure.aux["max_ber"]
        normalized = measure.value / max_ber if max_ber > 0.0 else 1.0
        return normalized >= 1.0 - threshold
    raise ValueError(f"unknown measure kind {measure_kind!r}")


def _conditioning_columns(dataset: Dataset, given: tuple[str, ...]) -> list[str]:
    cols: list[str] = []
    for token in given:
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


def _evaluate_on(
    dataset: Dataset,
    spec: CriterionSpec,
    condition_cols: list[str],
    measure_kind: str,
    threshold: float | None,
    min_count: int,
    alpha: float,
) -> CriterionResult:
    if measure_kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {measure_kind!r}")
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS[measure_kind]
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    unconditioned = not condition_cols
    strata = stratified_contingency(
        dataset, spec.left, spec.right, condition_cols, 1 if unconditioned else min_count
    )
    measure = _STRATIFIED_MEASURES[measure_kind](strata, alpha)
    per_stratum = measure.aux["per_stratum"]
    if unconditioned:
        # one table: its own measure (with MI's normalized value) is the criterion's
        ((_, measure, _),) = per_stratum
        if measure.aux.get("degenerate"):
            raise DegenerateTable("fewer than 2 non-empty rows or columns")
        per_stratum = None

    return CriterionResult(
        criterion=spec,
        measure=measure,
        measure_kind=measure_kind,
        passed=decide(measure_kind, measure, threshold),
        threshold=threshold,
        per_stratum=per_stratum,
        dropped_mass=strata.dropped_mass,
    )


def evaluate(
    dataset: Dataset,
    spec: CriterionSpec,
    measure_kind: str = "mi",
    threshold: float | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    alpha: float = 0.0,
) -> CriterionResult:
    """Evaluate one criterion exactly (stratified when the condition is non-empty).

    Feature conditioning requires all-categorical features; numeric features
    raise ContinuousConditioning and should be routed to soft evaluation.
    """
    cols = _conditioning_columns(dataset, spec.given)
    return _evaluate_on(dataset, spec, cols, measure_kind, threshold, min_count, alpha)


def evaluate_ftu(
    dataset: Dataset,
    measure_kind: str = "mi",
    threshold: float | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    alpha: float = 0.0,
) -> CriterionResult:
    """Fairness through unawareness.

    Omitting the sensitive column from the model and conditioning the
    parity check on everything else are the same formal condition, so this
    is individual statistical parity surfaced under its other name; the
    measure value is bit-identical to evaluate(isp).
    """
    result = evaluate(dataset, get_criterion("isp"), measure_kind, threshold, min_count, alpha)
    result.criterion = FTU
    return result


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
    cols = list(legally_grounded_columns)
    if not cols:
        raise EmptySelection("situation testing needs at least one conditioning column")
    feature_names = set(dataset.feature_names())
    for c in cols:
        if c not in feature_names:
            raise MissingColumn(f"{c!r} is not a feature column")
        if dataset.column(c).kind != "categorical":
            raise NumericConditioning(f"situation-testing column {c!r} is numeric")
    spec = CriterionSpec(
        "situation_testing", "situation testing", "prediction", "sensitive",
        ("features",), "individual", "aware", column_names=tuple(cols),
    )
    return _evaluate_on(dataset, spec, cols, measure_kind, threshold, min_count, alpha)
