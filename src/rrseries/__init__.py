"""Exact truncated q-series engine and verification suite.

Core value type: :class:`~rrseries.series.Series`, dense integer
coefficients with explicit truncation order.  On top of it sit the
classical q-objects (Pochhammer products, theta functions, eta
quotients), the catalog of series built from the Rogers-Ramanujan
continued fraction, a small identity DSL with a file manifest format,
sign/congruence scanners, and an independent partition-counting oracle.
"""

from .catalog import f_mrs, linking_relations, named_series, np_dp_polynomials, parent_order
from .dsl import IdentityRecord, evaluate, load_manifest, parse, unparse
from .errors import (
    EvaluationError,
    InvalidModulus,
    InvalidTheta,
    ManifestError,
    NonUnitConstantTerm,
    ParseError,
    ResidueOutOfRange,
    RRSeriesError,
    SpecOutOfRange,
    UnknownSymbol,
)
from .partitions import PartConstraint, check_alpha_beta, count, count_tuples
from .qfunctions import (
    EtaQuotientSpec,
    ThetaSpec,
    chi,
    chi_neg,
    eta_quotient,
    euler_f,
    phi,
    pochhammer_fin,
    pochhammer_inf,
    psi,
    theta_general,
    theta_product,
)
from .report import VerificationReport, reports_to_json, reports_to_text
from .series import ModSeries, Series, reduce_mod
from .verify import ScanSpec, period_check, run_paper_suite, scan, verify_identity

__version__ = "0.1.0"
