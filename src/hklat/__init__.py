"""Exact-arithmetic toolkit for hyperkahler-type lattices: isometry
factorization with certificates, the extended-lattice operator calculus,
symmetric-power functors, and Pontryagin products."""

from .lattice import (Lattice, LatVec, QIsometry, DiscGroup, preset, pair,
                      divisibility, disc_action, characters, in_group,
                      membership, nu_character)
from .transvect import (eichler_transvection, eichler_move, move_into_L,
                        reduce_to_canonical, canonical_vector, TransvectionWord)
from .factor import (reflect, witt_map, cartan_dieudonne, decompose,
                     verify_normal_form, positive_reflection_rewrite,
                     NormalForm)
from .llv import (LLVSpace, e_op, b_field, tau, mu, grading, fm_beta_image,
                  normalize_fm, dual_lefschetz_check, theta_tilde, iota_tilde,
                  hilb_lift, kernel_c1_solve, extend_to_llv)
from .snrep import (SymSpace, s_n_subspace, restrict_sym, recover, psi,
                    compose_rule_check, grading_correspondence)
from .pontryagin import (SHModel, SHElt, conjugation_check, star_via, eta,
                         proportionality_check_degree2)
from .mukai import (MukaiVector, mukai_pair, mukai_v, kappa,
                    structure_sheaf_reflection, k3_cup, k3_star, make_cyclic,
                    verify_cyclic, double_orbit_connect, kernel_rank)

__version__ = "0.1.0"
