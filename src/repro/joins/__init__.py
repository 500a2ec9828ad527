"""Similarity-join algorithms over top-k rankings (the paper's core)."""

from .api import ALGORITHMS, similarity_join
from .bruteforce import bruteforce_join
from .clustered import cl_join, clp_join
from .compact import compact_ordering, first_common
from .grouping import distinct_pairs, grouped_join
from .jaccard import jaccard_bruteforce, jaccard_join, jaccard_join_local
from .kernels import (
    KERNELS,
    GroupColumns,
    batch_filter_verify,
    store_batch_verify,
    validate_kernel,
)
from .metric_partition import metric_partition_join
from .local import (
    PrefixFilterJoin,
    join_group_indexed,
    join_group_nested_loop,
    join_groups_rs,
    prefix_size_for,
)
from .types import JoinResult, JoinStats, canonical_pair
from .verification import (
    check_pair,
    triangle_bounds,
    verify,
    violates_position_filter,
)
from .vj import vj_join, vj_nl_join

__all__ = [
    "ALGORITHMS",
    "GroupColumns",
    "JoinResult",
    "JoinStats",
    "KERNELS",
    "PrefixFilterJoin",
    "batch_filter_verify",
    "bruteforce_join",
    "canonical_pair",
    "check_pair",
    "cl_join",
    "clp_join",
    "compact_ordering",
    "distinct_pairs",
    "first_common",
    "grouped_join",
    "jaccard_bruteforce",
    "jaccard_join",
    "jaccard_join_local",
    "join_group_indexed",
    "join_group_nested_loop",
    "join_groups_rs",
    "metric_partition_join",
    "prefix_size_for",
    "similarity_join",
    "store_batch_verify",
    "triangle_bounds",
    "validate_kernel",
    "verify",
    "violates_position_filter",
    "vj_join",
    "vj_nl_join",
]
