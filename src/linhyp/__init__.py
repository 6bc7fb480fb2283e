"""Exact enumeration, sampling, and estimation of linear partite hypergraphs."""

from .asymptotics import (
    EstimateResult,
    estimate_partite,
    estimate_refined_uniform,
    estimate_uniform,
    log_factorial,
)
from .census import (
    CensusResult,
    DEFAULT_WORK_CEILING,
    census_by_cluster,
    count_all,
    count_linear,
    count_linear_naive,
    exact_linear_probability,
)
from .errors import DomainError, WorkCeilingError
from .hypergraphs import (
    Classification,
    Edge,
    Hypergraph,
    classify,
    cluster_threshold,
    edge_space,
    from_text,
    hypergraph,
    is_linear,
    make_edge,
    to_text,
)
from .montecarlo import (
    EdgeSampler,
    OverlapExpectation,
    SampleReport,
    draw_subset_ids,
    edge_subset_probability,
    estimate_linear_probability,
    expected_overlap_pairs,
    linked_pair_count,
    make_rng,
    sample_hypergraph,
)
from .partitions import (
    PartitionVector,
    SigmaRatioCheck,
    falling_factorial,
    log_sigma,
    newton_gap,
    partition,
    sigma,
    sigma_ratio_check,
    sigmas,
    uniform_partition,
)
from .switching import (
    AuditReport,
    CountBrackets,
    ForwardMove,
    RatioSeriesReport,
    ReverseMove,
    SeriesBounds,
    SeriesSpec,
    apply_forward,
    apply_reverse,
    bijection_audit,
    count_brackets,
    count_forward_moves,
    count_reverse_moves,
    enumerate_forward,
    enumerate_reverse,
    ratio_series,
    series_sum_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
