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
from .repmod import (NotASubmodule, Rep, RepMap, direct_sum, hom_basis, quotient,
                     radical, random_module, simple, socle, submodule, top,
                     validate)
from .decomp import (DecomposeResult, EndAlgebra, IsoRegistry, IsoResult, decompose,
                     fingerprint, is_isomorphic)
from .homology import (OrbitResult, PdResult, omega_orbit, omega_power, pd,
                       projective_cover, syzygy, syzygy_class,
                       syzygy_finite_probe)
from .grothendieck import (PhiResult, class_vector, omega_bar, phi, phi_dim_over,
                           subgroup_add)
from .morita import (GluedAlgebra, GluingSpec, H3Violation, check_h4,
                     classify_gluing, g_a, g_b, glue, pi_a, pi_b,
                     verify_syzygy_split)
from .analysis import (AdditivityVerdict, AlgebraProfile, GldimResult,
                       global_dimension, phi_zero_probe, profile, q_infinity,
                       simple_socle_check, successors_closed, zero_it_check)
