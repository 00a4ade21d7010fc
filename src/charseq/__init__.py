"""Characteristic-sequence calculus for ACM subschemes.

Exact integer arithmetic for the sequences attached to ACM projective
schemes (conversion with Hilbert functions, growth bounds, liaison,
linear-system bounds) together with a prime-field plane-geometry engine
that measures those sequences from evaluation-matrix ranks.
"""

from .errors import CharseqError, DomainError, GeometryError, NotConsistentError
from .macaulay import MacaulayRep, ZeroSeqCheck, is_zero_sequence, macaulay_next, macaulay_rep
from .seqcalc import (
    CharSeq,
    HilbertFn,
    ValidationReport,
    aligned_bound,
    bound_codim2,
    charseq_from_phi,
    ci_charseq,
    hilbert_function,
    is_gorenstein_symmetric,
    phi_from_charseq,
    plane_curve_charseq,
    separation_index,
    seq_included,
    validate_abs,
)
from .liaison import (
    GapSplit,
    LiaisonError,
    RelCharSeq,
    abs_from_rel,
    add_section,
    genus_acm_curve,
    halphen_bound,
    link,
    minimal_delta_seq,
    phi_rel,
    rel_degree,
    rel_from_abs,
    split_on_gap,
)
from .pointlab import (
    PlaneCurve,
    PointGroup,
    ProjPoint,
    dim_linear_system,
    measure_abs,
    measure_rcs,
    monomial_basis,
    phi_plane_curve,
    phi_points,
    plane_curve,
    point_group,
    proj_point,
    random_points_on_curve,
    section_points,
)
from .linsys import EqualPhiVerdict, MaxSysVerdict, classify_equal_phi, classify_maximal, r_alpha
from .realize import (
    add_case,
    addable_points,
    can_add_at_level,
    conjecture_scan,
    enumerate_admissible,
    filtration_points,
    is_admissible,
    realize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
