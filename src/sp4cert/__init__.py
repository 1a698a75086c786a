"""Exact-arithmetic calculus for the congruence subgroups of Sp(4)
attached to (1,p)-polarised abelian surfaces: membership predicates,
constructive word decomposition over the standard generating set, and
machine-checkable normal-closure certificates over the seeds
{M0} + level p^2.
"""

from .certificates import (
    Certificate,
    CertNode,
    IdentityReport,
    VerificationReport,
    build_generator_certs,
    cert_verify,
    expand_j1,
    expand_j2,
    normal_closure_witness,
    parse,
    serialize,
    verify_identities,
)
from .decompose import (
    GeneratorWord,
    J1,
    J2,
    Named,
    decompose,
    reduce_first_row,
)
from .generators import GENERATOR_NAMES, generator
from .groups import (
    GroupLabel,
    SymplecticForm,
    VectorClass,
    j1_embed,
    j2_embed,
    member,
    r_conjugate,
    symplectic_check,
    vector_class,
)
from .matrices import Mat2, Mat4, ext_gcd
from .sampling import SampleSpec, sample
from .siegel import (
    BoundaryCoord,
    SiegelPoint,
    boundary_map,
    homotopy_h,
    section4_check,
    theta_path,
)
from .sl2 import (
    ConjugateList,
    Gamma1pSteps,
    Sl2Word,
    gamma1p_generate,
    normal_closure_decompose,
    sl2_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertNode",
    "IdentityReport",
    "VerificationReport",
    "build_generator_certs",
    "cert_verify",
    "expand_j1",
    "expand_j2",
    "normal_closure_witness",
    "parse",
    "serialize",
    "verify_identities",
    "GeneratorWord",
    "J1",
    "J2",
    "Named",
    "decompose",
    "reduce_first_row",
    "GENERATOR_NAMES",
    "generator",
    "GroupLabel",
    "SymplecticForm",
    "VectorClass",
    "j1_embed",
    "j2_embed",
    "member",
    "r_conjugate",
    "symplectic_check",
    "vector_class",
    "Mat2",
    "Mat4",
    "ext_gcd",
    "SampleSpec",
    "sample",
    "BoundaryCoord",
    "SiegelPoint",
    "boundary_map",
    "homotopy_h",
    "section4_check",
    "theta_path",
    "ConjugateList",
    "Gamma1pSteps",
    "Sl2Word",
    "gamma1p_generate",
    "normal_closure_decompose",
    "sl2_decompose",
]
