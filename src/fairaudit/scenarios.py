"""Seeded scenario datasets with ground truth known by construction.

Each discrete scenario is defined once, as a factorized law
P(S) P(X|S) P(Y|S,X) P(Yhat|S,X,Y) over small categorical variables.
The same law drives both the record sampler and an exact enumeration of
the population joint, from which the expected verdict of every criterion
is derived: a criterion whose population conditional mutual information is
exactly zero is 'satisfied', one at or above a decisive margin is
'violated', anything in between is 'unconstrained' (too close to call at
audit thresholds).  Sampling uses the counter-based generator, so a
(name, n, seed, params) tuple always produces the bit-identical dataset.

The planted-cluster scenario has continuous features and is the exception:
its ground truth is the planted membership list plus the soft verdict its
construction forces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import list_criteria
from .dataset import Column, Dataset, Provenance
from .errors import InvalidParams, UnknownScenario
from .measures import mi_nats
from .rng import CounterRng

# population CMI at or above this is decisively 'violated' (5x the default
# audit threshold of 0.01 nats); exactly zero is 'satisfied'
DECISIVE_CMI = 0.05

SCENARIO_NAMES = (
    "independent",
    "proxy_redlining",
    "direct_discrimination",
    "group_fair_individual_unfair",
    "planted_unfair_cluster",
    "suff_holds_eo_fails",
    "illegal_proxy",
)

@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GroundTruth:
    """Expected verdict per criterion id, plus planted records when applicable."""

    verdicts: dict        # criterion id -> 'satisfied' | 'violated' | 'unconstrained'
    planted_indices: np.ndarray | None = None
    notes: dict = field(default_factory=dict)


@dataclass
class _DiscreteLaw:
    """P(S) P(x_i|S) P(Y|S,X) P(Yhat|S,X,Y) as dense conditional tables."""

    s_probs: np.ndarray                     # (Ks,)
    features: list                          # [(name, cpt (Ks, Ki)), ...]
    y_cpt: np.ndarray                       # (Ks, K0, ..., Km-1, Ky)
    yhat_cpt: np.ndarray                    # (Ks, K0, ..., Km-1, Ky, Kyhat)

    def __post_init__(self):
        def check(p, what):
            if (np.asarray(p) < 0).any() or np.abs(np.asarray(p).sum(axis=-1) - 1.0).max() > 1e-9:
                raise InvalidParams(f"{what} rows must be probabilities summing to 1")
        check(self.s_probs, "P(S)")
        for name, cpt in self.features:
            check(cpt, f"P({name}|S)")
        check(self.y_cpt, "P(Y|S,X)")
        check(self.yhat_cpt, "P(Yhat|S,X,Y)")

    def joint(self) -> np.ndarray:
        """Population joint over axes (s, x_0..x_{m-1}, y, yhat)."""
        m = len(self.features)
        ndim = m + 3
        p = self.s_probs.reshape((-1,) + (1,) * (ndim - 1))
        for i, (_, cpt) in enumerate(self.features):
            shape = [1] * ndim
            shape[0] = cpt.shape[0]
            shape[1 + i] = cpt.shape[1]
            p = p * cpt.reshape(shape)
        p = p * self.y_cpt.reshape(self.y_cpt.shape + (1,))
        return p * self.yhat_cpt

    def sample(self, rng: CounterRng, n: int):
        """Draw n records; returns (s, [x_i...], y, yhat) as int arrays."""
        s = rng.categorical(self.s_probs, n)
        xs = [rng.categorical(cpt[s]) for _, cpt in self.features]
        y = rng.categorical(self.y_cpt[(s, *xs)])
        yhat = rng.categorical(self.yhat_cpt[(s, *xs, y)])
        return s, xs, y, yhat


def _population_cmi(joint: np.ndarray, left: int, right: int, given: tuple) -> float:
    """Exact I(left; right | given) of a dense joint distribution, in nats."""
    keep = list(given) + [left, right]
    drop = tuple(ax for ax in range(joint.ndim) if ax not in keep)
    p = joint.sum(axis=drop, keepdims=True)
    p = np.moveaxis(p, keep, range(-len(keep), 0))
    p = p.reshape((-1,) + p.shape[-2:])
    weights = p.sum(axis=(1, 2))
    live = weights > 0.0
    values = weights[live] * mi_nats(p[live] / weights[live, None, None])
    # cumsum adds in stratum order, as a running total would
    return float(np.cumsum(values)[-1])


def _verdict_from_cmi(value: float) -> str:
    if value < 1e-12:
        return "satisfied"
    if value >= DECISIVE_CMI:
        return "violated"
    return "unconstrained"


def _verdicts_from_law(law: _DiscreteLaw) -> dict:
    joint = law.joint()
    m = len(law.features)
    axes = {"sensitive": (0,), "target": (m + 1,), "prediction": (m + 2,),
            "features": tuple(range(1, m + 1))}
    verdicts = {}
    for spec in list_criteria():
        given = tuple(ax for token in spec.given for ax in axes[token])
        value = _population_cmi(joint, *axes[spec.left], *axes[spec.right], given)
        verdicts[spec.id] = _verdict_from_cmi(value)
    verdicts["ftu"] = verdicts["isp"]  # same formal condition
    return verdicts


# -- scenario laws ---------------------------------------------------------------

def _uniform_feature(name: str, arity: int = 2):
    return (name, np.full((2, arity), 1.0 / arity))


def _broadcast_rates(rate_by: np.ndarray, shape: tuple) -> np.ndarray:
    """Expand per-cell P(V=1) into a CPT (..., 2)."""
    r = np.broadcast_to(rate_by, shape)
    return np.stack([1.0 - r, r], axis=-1)


def _check_unit(params: dict, key: str, lo=0.0, hi=1.0, open_lo=True):
    v = params[key]
    if not (lo < v <= hi if open_lo else lo <= v <= hi):
        raise InvalidParams(f"{key}={v} outside ({lo}, {hi}]")


def _law_independent(params: dict) -> _DiscreteLaw:
    # S, X, Y mutually independent; the prediction is driven by X alone
    q = np.array([[0.3, 0.5], [0.6, 0.8]])  # P(Yhat=1 | x0, x1)
    return _DiscreteLaw(
        s_probs=np.array([0.5, 0.5]),
        features=[_uniform_feature("x0"), _uniform_feature("x1")],
        y_cpt=_broadcast_rates(np.array(0.5), (2, 2, 2)),
        yhat_cpt=_broadcast_rates(q[None, :, :, None], (2, 2, 2, 2)),
    )


def _law_proxy_redlining(params: dict) -> _DiscreteLaw:
    # x0 is a strong proxy for S; prediction and target depend on X only,
    # so the feature-conditioned criteria hold while marginal parity fails
    _check_unit(params, "proxy_strength")
    a = params["proxy_strength"]
    x0 = np.array([[0.5 + a / 2, 0.5 - a / 2], [0.5 - a / 2, 0.5 + a / 2]])
    yhat_rate = np.array([0.2, 0.8])[None, :, None, None]       # by x0
    y_rate = np.array([0.3, 0.7])[None, :, None]
    return _DiscreteLaw(
        s_probs=np.array([0.5, 0.5]),
        features=[("x0", x0), _uniform_feature("x1")],
        y_cpt=_broadcast_rates(y_rate, (2, 2, 2)),
        yhat_cpt=_broadcast_rates(yhat_rate, (2, 2, 2, 2)),
    )


def _law_direct_discrimination(params: dict) -> _DiscreteLaw:
    # within every fixed X stratum the prediction is scrambled for S=1:
    # Yhat = base(X) XOR flip, flip ~ Bernoulli(flip_prob * S)
    _check_unit(params, "flip_prob")
    f = params["flip_prob"]
    base = np.array([0.15, 0.85])               # P(base=1 | x0)
    s1 = base + f * (1.0 - 2.0 * base)          # after XOR with Bern(f)
    rate = np.stack([base, s1], axis=0)[:, :, None, None]  # (s, x0, x1, y)
    y_rate = np.array([0.3, 0.7])[None, :, None]
    return _DiscreteLaw(
        s_probs=np.array([0.5, 0.5]),
        features=[_uniform_feature("x0"), _uniform_feature("x1")],
        y_cpt=_broadcast_rates(y_rate, (2, 2, 2)),
        yhat_cpt=_broadcast_rates(rate, (2, 2, 2, 2)),
    )


def _law_group_fair_individual_unfair(params: dict) -> _DiscreteLaw:
    # two feature strata with equal-size opposite-sign S-gaps: the gaps
    # cancel exactly in aggregate (parity holds) but each stratum is unfair
    _check_unit(params, "gap")
    g = params["gap"]
    rate = np.array([
        [0.5 + g / 2, 0.5 - g / 2],   # s=0: by x0
        [0.5 - g / 2, 0.5 + g / 2],   # s=1: by x0
    ])
    y_rate = np.array([0.4, 0.6])[None, :]
    return _DiscreteLaw(
        s_probs=np.array([0.5, 0.5]),
        features=[_uniform_feature("x0")],
        y_cpt=_broadcast_rates(y_rate, (2, 2)),
        yhat_cpt=_broadcast_rates(rate[:, :, None], (2, 2, 2)),
    )


def _law_suff_holds_eo_fails(params: dict) -> _DiscreteLaw:
    # score-bucket construction: bucket distributions differ by S, the
    # target is calibrated per bucket, and the prediction IS the bucket,
    # so sufficiency holds exactly while equalized odds fails
    _check_unit(params, "contrast")
    c = params["contrast"]
    uniform = np.full(3, 1.0 / 3.0)
    skew = np.array([0.7, 0.2, 0.1])             # low-score-heavy extreme
    low_heavy = (1.0 - c) * uniform + c * skew
    bucket = np.stack([low_heavy, low_heavy[::-1]])   # P(x0|s)
    y_rate = np.array([0.2, 0.5, 0.8])[None, :]
    yhat_cpt = np.zeros((2, 3, 2, 3))
    for b in range(3):
        yhat_cpt[:, b, :, b] = 1.0               # prediction equals the bucket
    return _DiscreteLaw(
        s_probs=np.array([0.5, 0.5]),
        features=[("x0", bucket)],
        y_cpt=_broadcast_rates(y_rate, (2, 3)),
        yhat_cpt=yhat_cpt,
    )


def _law_illegal_proxy(params: dict) -> _DiscreteLaw:
    # the dependence on S flows only through the designated proxy column x1;
    # conditioning on all features clears it, excluding x1 does not
    _check_unit(params, "proxy_strength")
    a = params["proxy_strength"]
    x1 = np.array([[0.5 + a / 2, 0.5 - a / 2], [0.5 - a / 2, 0.5 + a / 2]])
    rate = 0.15 + 0.1 * np.arange(2)[:, None] + 0.6 * np.arange(2)[None, :]  # (x0, x1)
    y_rate = (0.3 + 0.4 * np.arange(2))[None, None, :]
    return _DiscreteLaw(
        s_probs=np.array([0.5, 0.5]),
        features=[_uniform_feature("x0"), ("x1", x1)],
        y_cpt=_broadcast_rates(y_rate, (2, 2, 2)),
        yhat_cpt=_broadcast_rates(rate[None, :, :, None], (2, 2, 2, 2)),
    )


_DISCRETE_LAWS = {
    "independent": (_law_independent, {}),
    "proxy_redlining": (_law_proxy_redlining, {"proxy_strength": 0.6}),
    "direct_discrimination": (_law_direct_discrimination, {"flip_prob": 0.5}),
    "group_fair_individual_unfair": (_law_group_fair_individual_unfair, {"gap": 0.4}),
    "suff_holds_eo_fails": (_law_suff_holds_eo_fails, {"contrast": 0.75}),
    "illegal_proxy": (_law_illegal_proxy, {"proxy_strength": 0.6}),
}

_PLANTED_DEFAULTS = {"cluster_fraction": 0.1, "gap": 0.6}


def _merge_params(name: str, defaults: dict, params: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise InvalidParams(f"unknown params for {name!r}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(params)
    return merged


def _categorical_column(name: str, codes: np.ndarray) -> Column:
    # single-digit category names keep lexicographic order == numeric order,
    # so a CSV round trip reproduces the same encoding
    observed = np.unique(codes)
    if observed.size > 10:
        raise InvalidParams("scenario categorical arity above 10 is unsupported")
    remapped = np.searchsorted(observed, codes)
    categories = tuple(str(int(v)) for v in observed)
    return Column(name, "categorical", codes=remapped, categories=categories)


def _dataset(spec: ScenarioSpec, s, y, yhat, features) -> Dataset:
    return Dataset(
        s=_categorical_column("s", s),
        y=_categorical_column("y", y),
        y_hat=_categorical_column("yhat", yhat),
        features=tuple(features),
        score=None,
        provenance=Provenance(
            f"scenario:{spec.name}(n={spec.n},seed={spec.seed})", "error", None, 0
        ),
    )


def _generate_planted(spec: ScenarioSpec, params: dict):
    _check_unit(params, "gap")
    frac = params["cluster_fraction"]
    if not (0.0 < frac <= 0.5):
        raise InvalidParams(f"cluster_fraction={frac} outside (0, 0.5]")
    gap = params["gap"]
    n = spec.n
    rng = CounterRng(spec.seed)
    s = rng.bernoulli(0.5, n)
    x0 = rng.uniforms(n)
    x1 = rng.uniforms(n)
    y = rng.bernoulli(0.5, n)
    # planted region: L1 diamond around (0.5, 0.5) with area = cluster_fraction
    radius = np.sqrt(frac / 2.0)
    planted = (np.abs(x0 - 0.5) + np.abs(x1 - 0.5)) <= radius
    rate = 0.3 + 0.4 * x0                             # smooth, S-independent outside
    rate[planted] = 0.5 + gap * (s[planted] - 0.5)    # S-dependent inside
    yhat = rng.bernoulli(rate)
    dataset = _dataset(spec, s, y, yhat, (Column("x0", "numeric", values=x0),
                                          Column("x1", "numeric", values=x1)))
    verdicts = {c.id: "unconstrained" for c in list_criteria()}
    verdicts["isp"] = "violated"       # by construction, via soft conditioning
    verdicts["ftu"] = "violated"
    truth = GroundTruth(
        verdicts=verdicts,
        planted_indices=np.nonzero(planted)[0],
        notes={"cluster_fraction": frac, "gap": gap, "radius": radius},
    )
    return dataset, truth


def generate(spec: ScenarioSpec) -> tuple[Dataset, GroundTruth]:
    """Build the scenario dataset and its construction-time ground truth.

    Deterministic in (name, n, seed, params): generating twice gives
    bit-identical datasets.
    """
    if spec.n < 1:
        raise InvalidParams("n must be >= 1")
    if spec.name == "planted_unfair_cluster":
        params = _merge_params(spec.name, _PLANTED_DEFAULTS, spec.params)
        return _generate_planted(spec, params)
    if spec.name not in _DISCRETE_LAWS:
        raise UnknownScenario(f"unknown scenario {spec.name!r}")
    builder, defaults = _DISCRETE_LAWS[spec.name]
    params = _merge_params(spec.name, defaults, spec.params)
    law = builder(params)
    rng = CounterRng(spec.seed)
    s, xs, y, yhat = law.sample(rng, spec.n)
    dataset = _dataset(spec, s, y, yhat, (_categorical_column(name, vals)
                                          for (name, _), vals in zip(law.features, xs)))
    notes = dict(params)
    if spec.name == "illegal_proxy":
        notes["proxy_column"] = "x1"
        notes["legal_columns"] = ["x0"]
    truth = GroundTruth(verdicts=_verdicts_from_law(law), notes=notes)
    return dataset, truth


def schema_config_for(dataset: Dataset) -> dict:
    """Audit schema config matching a generated dataset's columns."""
    columns = [
        {"name": dataset.s.name, "role": "sensitive", "kind": "categorical"},
        {"name": dataset.y.name, "role": "target", "kind": "categorical"},
        {"name": dataset.y_hat.name, "role": "prediction", "kind": "categorical"},
    ]
    for c in dataset.features:
        columns.append({"name": c.name, "role": "feature", "kind": c.kind})
    return {"columns": columns, "missing": "error"}
