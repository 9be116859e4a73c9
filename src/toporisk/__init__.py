"""Historical VaR/CVaR and a topological stress-distance for price series.

The package reads one ``date,close`` CSV per ticker, computes
historical-simulation VaR and CVaR on min-max normalized returns, and
compares the persistent homology of the baseline return series against a
seeded random subsample (the stress scenario). The Euclidean distance
between the vectorized persistence diagrams is reported as TVaRD.
"""

from .errors import (
    BadValueError,
    DegenerateSeriesError,
    DuplicateDateError,
    FormatError,
    InsufficientDataError,
    InternalInvariantError,
    ParameterError,
    PipelineError,
    RowError,
    TopoRiskError,
)
from .ingest import (
    NormalizedSeries,
    PriceSeries,
    ReturnSeries,
    clean_series,
    compute_returns,
    load_price_csv,
    normalize,
)
from .risk import TailRiskResult, conditional_var, tail_risk, value_at_risk
from .tda import (
    DistanceMatrix,
    Filtration,
    PersistenceDiagramSet,
    PointCloud,
    Simplex,
    betti_numbers_at,
    build_rips_filtration,
    collapse_edges,
    compute_persistence,
    delay_embed,
    distance_matrix,
    write_diagram_csv,
)
from .tvard import (
    AnalysisConfig,
    FeatureVector,
    RiskReport,
    SplitMix64,
    bottleneck_distance,
    preprocess,
    report_to_json,
    run_analysis,
    stress_sample,
    tvard_distance,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "BadValueError",
    "DegenerateSeriesError",
    "DistanceMatrix",
    "DuplicateDateError",
    "FeatureVector",
    "Filtration",
    "FormatError",
    "InsufficientDataError",
    "InternalInvariantError",
    "NormalizedSeries",
    "ParameterError",
    "PersistenceDiagramSet",
    "PipelineError",
    "PointCloud",
    "PriceSeries",
    "ReturnSeries",
    "RiskReport",
    "RowError",
    "Simplex",
    "SplitMix64",
    "TailRiskResult",
    "TopoRiskError",
    "betti_numbers_at",
    "bottleneck_distance",
    "build_rips_filtration",
    "clean_series",
    "collapse_edges",
    "compute_persistence",
    "compute_returns",
    "conditional_var",
    "delay_embed",
    "distance_matrix",
    "load_price_csv",
    "normalize",
    "preprocess",
    "report_to_json",
    "run_analysis",
    "stress_sample",
    "tail_risk",
    "tvard_distance",
    "value_at_risk",
    "vectorize",
    "write_diagram_csv",
]
