"""Exact symbolic construction and verification of the canonical Thom form
and the associated closed q-form of Schwartz functions on orthogonal
symmetric spaces of signature (p, q)."""

from .checks import CHECK_IDS, CheckResult, run_all, run_check
from .km import km_closed_form, km_form_at_e
from .liealg import LieElement, SignatureCtx, bracket, curvature_at_e
from .mq import fiber_transgression, fiber_umq, mq_phi0_at_e, mq_phi_at_e
from .scalars import PolyGauss, Scalar
from .superforms import FiberCtx, SuperForm
from .theta import LatticeSpec, diagonalize_gram, theta_partial_sum

__all__ = [
    "CHECK_IDS",
    "CheckResult",
    "FiberCtx",
    "LatticeSpec",
    "LieElement",
    "PolyGauss",
    "Scalar",
    "SignatureCtx",
    "SuperForm",
    "bracket",
    "curvature_at_e",
    "diagonalize_gram",
    "fiber_transgression",
    "fiber_umq",
    "km_closed_form",
    "km_form_at_e",
    "mq_phi0_at_e",
    "mq_phi_at_e",
    "run_all",
    "run_check",
    "theta_partial_sum",
]

__version__ = "0.1.0"
