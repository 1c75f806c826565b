"""Divisor theory on finite vertex-weighted multigraphs.

Chip-firing equivalence, reduced divisors via the burning algorithm,
divisor class rank with an independent cross-checking oracle, and
distinguished representatives (semibalanced, uniform, certified Clifford)
on exact integer arithmetic throughout.
"""

from .divisors import (
    Divisor,
    DivisorClass,
    canonical_divisor,
    class_of,
    e_deg,
    effective_representatives,
    equivalent,
    intersection,
    residual,
    t_set,
)
from .enumeration import DEFAULT_BUDGET
from .errors import BudgetExceededError, DomainError, GraphError, InternalError, ParseError
from .graph import (
    EdgeCut,
    StabilityVerdict,
    WeightedMultigraph,
    bridges,
    bullet_model,
    contract_non_bridges,
    genus,
    is_chain_of_2ec,
    is_semistable,
    is_stable,
    valence,
)
from .rank import (
    RankReport,
    clifford_check,
    rank,
    rank_lower_bound_edeg,
    rank_oracle,
    riemann_roch_check,
)
from .reduction import (
    DharResult,
    dhar,
    effectivize,
    is_reduced,
    reduce_to,
    reduce_to_set,
)
from .reps import (
    CliffordCertificate,
    NotCovered,
    balance_bounds,
    clifford_representative,
    is_semibalanced,
    is_special_class,
    is_uniform,
    semibalanced_representative,
    uniform_representative,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CliffordCertificate",
    "DEFAULT_BUDGET",
    "DharResult",
    "Divisor",
    "DivisorClass",
    "DomainError",
    "EdgeCut",
    "GraphError",
    "InternalError",
    "NotCovered",
    "ParseError",
    "RankReport",
    "StabilityVerdict",
    "WeightedMultigraph",
    "balance_bounds",
    "bridges",
    "bullet_model",
    "canonical_divisor",
    "class_of",
    "clifford_check",
    "clifford_representative",
    "contract_non_bridges",
    "dhar",
    "e_deg",
    "effective_representatives",
    "effectivize",
    "equivalent",
    "genus",
    "intersection",
    "is_chain_of_2ec",
    "is_reduced",
    "is_semibalanced",
    "is_semistable",
    "is_special_class",
    "is_stable",
    "is_uniform",
    "rank",
    "rank_lower_bound_edeg",
    "rank_oracle",
    "reduce_to",
    "reduce_to_set",
    "residual",
    "riemann_roch_check",
    "semibalanced_representative",
    "t_set",
    "uniform_representative",
    "valence",
    "verify_certificate",
]
