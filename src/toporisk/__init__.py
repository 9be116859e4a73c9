"""Historical VaR/CVaR and a topological stress-distance for price series.

The package reads one ``date,close`` CSV per ticker, computes
historical-simulation VaR and CVaR on min-max normalized returns, and
compares the persistent homology of the baseline return series against a
seeded random subsample (the stress scenario). The Euclidean distance
between the vectorized persistence diagrams is reported as TVaRD.

Each public name loads its module on first use (PEP 562), so
``import toporisk`` loads no numpy until a name needs it.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": """BadValueError DegenerateSeriesError DuplicateDateError FormatError
        InsufficientDataError InternalInvariantError ParameterError PipelineError RowError
        TopoRiskError""",
    "ingest": "PriceSeries clean_series compute_returns load_price_csv normalize",
    "risk": "tail_risk",
    "tda": """Filtration PersistenceDiagramSet PointCloud Simplex
        build_rips_filtration collapse_edges compute_persistence delay_embed distance_matrix""",
    "tvard": """AnalysisConfig RiskReport bottleneck_distance preprocess report_to_json
        run_analysis stress_sample tvard_distance vectorize""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
