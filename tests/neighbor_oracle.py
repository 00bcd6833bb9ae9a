"""Single-record neighbor queries for the tests, built on an index's bulk queries."""

import numpy as np


def by_distance_then_index(members, dists):
    """Rows reordered by (distance, record index): the order `neighbors` promises.

    Bulk selection keeps an untied row's k nearest in engine order, so rows
    compare against the oracle as sets, made exact by this canonical order.
    """
    order = np.lexsort((members, dists), axis=-1)
    return np.take_along_axis(members, order, axis=1), np.take_along_axis(dists, order, axis=1)


def neighbors(index, i, *, k=None, radius=None):
    """Record i's k nearest as (members, distances) in (distance, index) order,
    or, given a radius, the members of its ball in ascending index order."""
    queries = np.array([i])
    if radius is None:
        members, dists = by_distance_then_index(*index._knn_block(queries, k))
        return members[0], dists[0]
    return index._ball_block(queries, radius)[1]
