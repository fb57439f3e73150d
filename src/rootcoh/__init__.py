"""Exact root-system combinatorics and cohomology-degree bookkeeping.

The library builds the positive-root catalogue of any simple type A1..G2 in
integer arithmetic, regularizes weights under the dot action of the Weyl
group, enumerates sums of p distinct roots, evaluates the dominance or
singularity hypothesis that forces twisted (p, q) cohomology of the complete
flag variety to vanish, and constructs certificates that the top-but-one
exterior degree carries nonvanishing first cohomology for an ample line
bundle in every rank >= 2 type.
"""

from .rootsys import (
    Root,
    RootSystem,
    RootSystemError,
    SimpleType,
    Weight,
    all_simple_types,
    build_root_system,
    column_classes,
    column_stats,
    root_system,
    to_weight_coords,
)
from .weyl import BwbOutcome, WeylError, bwb, pairing, pairings, weyl_dim
from .exterior import (
    BudgetExceededError,
    ExteriorError,
    WeightMultiset,
    lambda_p_weights,
    phi_sums,
)
from .vanishing import (
    VanishingError,
    VanishingReport,
    check_theorem1,
    corollary_bound,
    prop2_threshold,
)
from .nonvanishing import (
    CertificateError,
    E1Page,
    NonvanishingCertificate,
    build_certificate,
    classify_lemma11,
    e1_page,
    theorem12_lambda,
)

__all__ = [
    "BudgetExceededError",
    "BwbOutcome",
    "CertificateError",
    "E1Page",
    "ExteriorError",
    "NonvanishingCertificate",
    "Root",
    "RootSystem",
    "RootSystemError",
    "SimpleType",
    "VanishingError",
    "VanishingReport",
    "Weight",
    "WeightMultiset",
    "WeylError",
    "all_simple_types",
    "build_certificate",
    "build_root_system",
    "bwb",
    "check_theorem1",
    "classify_lemma11",
    "column_classes",
    "column_stats",
    "corollary_bound",
    "e1_page",
    "lambda_p_weights",
    "pairing",
    "pairings",
    "phi_sums",
    "prop2_threshold",
    "root_system",
    "theorem12_lambda",
    "to_weight_coords",
    "weyl_dim",
]

__version__ = "0.1.0"
