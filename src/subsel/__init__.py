"""subsel: representative subset selection via monotone submodular maximization.

Pick low-redundancy subsets of large datasets with a greedy optimizer that
carries the classic (1 - 1/e) quality guarantee. Two objectives ship in the
box: facility location over a (dense or sparse) pairwise-similarity matrix,
and a feature-based objective that works directly on non-negative feature
values and scales to very large ground sets.

Typical use::

    from subsel import FeatureBasedSelector
    subset = FeatureBasedSelector(100, "sqrt").fit_transform(X)
"""

from .exceptions import (
    AlreadySelectedError,
    ApproximationFailure,
    ConstraintViolationError,
    DegenerateInputError,
    EnumerationBoundError,
    InputError,
    NegativeCosineError,
    TripleValidationError,
)
from .matrices import (
    FeatureMatrix,
    SimilarityMatrix,
    cosine_similarity,
    sparse_from_triples,
    squared_correlation_similarity,
)
from .objectives import (
    FacilityLocationObjective,
    FeatureBasedObjective,
    FunctionObjective,
    SubmodularObjective,
)
from .optimizer import ProgressRecord, SelectionResult, hybrid_maximize
from .oracle import facility_location_eval, feature_based_eval
from .selector import BaseSelector, FacilityLocationSelector, FeatureBasedSelector

__version__ = "0.3.0"

__all__ = [
    "FeatureMatrix",
    "SimilarityMatrix",
    "squared_correlation_similarity",
    "cosine_similarity",
    "sparse_from_triples",
    "SubmodularObjective",
    "FacilityLocationObjective",
    "FeatureBasedObjective",
    "FunctionObjective",
    "facility_location_eval",
    "feature_based_eval",
    "SelectionResult",
    "ProgressRecord",
    "hybrid_maximize",
    "BaseSelector",
    "FacilityLocationSelector",
    "FeatureBasedSelector",
    "InputError",
    "DegenerateInputError",
    "ConstraintViolationError",
    "NegativeCosineError",
    "TripleValidationError",
    "AlreadySelectedError",
    "EnumerationBoundError",
    "ApproximationFailure",
    "__version__",
]
