"""Exact truncated q-series engine and verification suite.

Core value type: :class:`~rrseries.series.Series`, dense integer
coefficients with explicit truncation order.  On top of it sit the
classical q-objects (Pochhammer products, theta functions), the catalog
of series built from the Rogers-Ramanujan continued fraction, a small
identity DSL with a file manifest format whose products are evaluated
as sparse theta quotients, sign/congruence scanners, and an independent
partition-counting oracle.
"""

from .catalog import f_mrs, linking_relations, named_series
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
from .partitions import PartConstraint, check_alpha_beta
from .qfunctions import (
    ThetaSpec,
    euler_f,
    pochhammer_fin,
    pochhammer_inf,
    theta_general,
    theta_product,
)
from .report import VerificationReport, reports_to_json, reports_to_text
from .series import Series
from .verify import ScanSpec, period_check, run_paper_suite, scan, verify_identity

__version__ = "0.1.0"
