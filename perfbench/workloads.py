"""Workload table shared by the driver and the input generator.

`why` is the reason each workload exists; `seams` are the tracer seams the
traced run requires the workload to call.
"""

ALL_CRITERIA = ("sp", "eo", "suff", "isp", "ieo", "isuff", "ftu")

WORKLOADS = {
    "exact_strata": {
        "kind": "audit",
        "why": "all-categorical, three high-cardinality features: time goes to CSV "
               "parse, per-stratum tables/measures objects and report rows; "
               "neighborhood and distance do no work",
        "n": 50_000,
        "arities": (25, 20, 10),
        "gap": 0.4,
        "criteria": ALL_CRITERIA,
        "k": None,
        "weights": None,
        "seams": ("dataset.load_dataset", "dataset.stratify", "tables.stratified_contingency",
                  "tables.normalize", "measures", "criteria.evaluate", "report.run_audit",
                  "report.render"),
    },
    "soft_knn": {
        "kind": "audit",
        "why": "planted unfair cluster on two numeric features: the soft criteria "
               "take the KD-tree path, one pair_distances call per record",
        "n": 10_000,
        "cluster_fraction": 0.1,
        "gap": 0.8,
        "categorical_arity": None,
        "criteria": ALL_CRITERIA,
        "k": 100,
        "weights": None,
        "seams": ("dataset.load_dataset", "criteria.evaluate", "distance.feature_space",
                  "distance.pair_distances", "neighborhood.build_index", "neighborhood.query",
                  "neighborhood.soft_evaluate", "measures", "report.run_audit", "report.render"),
    },
    "soft_mixed": {
        "kind": "audit",
        "why": "the planted cluster plus one categorical feature: mixed kinds force "
               "the O(n^2) block_distances scan and a per-row lexsort",
        "n": 4_000,
        "cluster_fraction": 0.1,
        "gap": 0.8,
        "categorical_arity": 4,
        "criteria": ALL_CRITERIA,
        "k": 100,
        # a light categorical weight lets neighborhoods cross categories, so
        # k=100 stays local at n=4000; the mixed kinds still force the scan
        "weights": {"c": 0.02},
        "seams": ("dataset.load_dataset", "criteria.evaluate", "distance.feature_space",
                  "distance.block_distances", "neighborhood.build_index", "neighborhood.query",
                  "neighborhood.soft_evaluate", "measures", "report.run_audit", "report.render"),
    },
    "lipschitz": {
        "kind": "lipschitz",
        "why": "representation-map audit, Gower original vs total-variation mapped, "
               "exhaustive and sampled: the only consumer of the lipschitz layer "
               "and the condensed Gower copies",
        "n_exhaustive": 2_000,
        "n_sampled": 100_000,
        "sample_count": 2_000_000,
        "dims": 4,
        "planted_fraction": 0.01,
        "contraction": 0.5,
        "k": None,
        "seams": ("lipschitz.load_mapped_csv", "lipschitz.audit_map",
                  "distance.gower_matrix_condensed"),
    },
}
