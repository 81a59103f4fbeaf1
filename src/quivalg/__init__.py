"""Workbench for finite-dimensional bound quiver algebras over prime fields.

Core objects: BoundAlgebra (quiver + admissible relations, normal-path basis),
Rep (bound representation), the class registry, syzygy/pd machinery, the
Igusa-Todorov phi function with certificates, Morita-context gluings, and
whole-algebra probes.  See the README for the CLI and the acceptance runner.
"""

__version__ = "0.1.0"

from .budgets import DEFAULT, BudgetExceeded, Budgets, RegistryAmbiguity
from .pathalgebra import (Arrow, BoundAlgebra, MalformedRelation, NotAdmissible,
                          Quiver, Relation, build_algebra)
from .repmod import (NotASubmodule, Rep, RepMap, direct_sum, dualize, hom_basis,
                     kernel, loewy_length, quotient, radical, random_module,
                     simple, socle, submodule, top, validate)
from .decomp import (DecomposeResult, EndAlgebra, IsoRegistry, IsoResult, decompose,
                     fingerprint, is_isomorphic)
from .homology import (OrbitResult, PdResult, omega_orbit, omega_power, pd,
                       projective_cover, syzygy, syzygy_class,
                       syzygy_finite_probe)
from .grothendieck import (EtaCheck, PhiResult, class_vector, eta_bound_check,
                           omega_bar, phi, phi_dim_over, rank_trace,
                           subgroup_add)
from .morita import (GluedAlgebra, GluingSpec, H3Violation, ModeError,
                     check_h4, classify_gluing, f_map, g_a, g_b, glue, pi_a,
                     pi_b, verify_syzygy_split)
from .analysis import (AdditivityVerdict, AlgebraProfile, GldimResult,
                       findim_zero_probe, global_dimension, is_selfinjective,
                       phi_zero_probe, profile, q_infinity, simple_socle_check,
                       successors_closed, zero_it_check)
