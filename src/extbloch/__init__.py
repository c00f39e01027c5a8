"""Evaluation of the degree-three characteristic value of SL(2,C) cycles.

The package turns a cycle in the bar complex of SL(2,C) into a value in
C/Z: the cycle is repaired to a representative without +-coincidences,
pushed to vector configurations in C^2 \\ {0}, flattened through
log-determinants into branch-decorated cross-ratios, and summed through the
lifted Rogers dilogarithm.  The imaginary part of the result is the
hyperbolic volume of the class.
"""

from .core import (INF, ExtComplex, GroupElement, ProjVector, cross_ratio,
                   cross_ratio_ext, det_pair, hopf, is_inf, moebius, rotation)
from .covering import (CoveringPoint, FlatteningTriple, WedgeElement,
                       check_flattening_condition, chi_hat, five_tuple,
                       from_covering_point, mu, nu_hat, to_covering_point)
from .dilog import (CutSide, lhat, li2, lifted_rogers, plog, rogers,
                    rogers_real, vol)
from .chains import (BarChain, HomChain, bar_boundary, cone, conjugate_chain,
                     complex_conjugate_chain, hom_boundary, hom_to_inhom,
                     inhom_to_hom, is_cycle, is_good, is_v_good,
                     repair_to_good, repair_with_certificate, sample_generic_v)
from .fixtures import (five_term_boundary, random_boundary_cycle,
                       random_good_hom_chain, torsion_cycle)
from .pipeline import (CcsReport, ConfigTuple, ccs_value, lambda_hat, psi_v,
                       sigma_hat)
from .real_sl2 import (RealGroupElement, check_small_positive_agreement,
                       is_nonzero, is_positive, less, rogers_cocycle,
                       sort_tuple)
from .path_lift import (LiftedFiveTuple, ParamPath, five_term_sum_along,
                        lift_path, start_lift, verify_pq_pattern, winding_loop)
from .chainio import chain_from_obj, chain_to_obj, emit_report, parse_cycle_file

__version__ = "0.1.0"
