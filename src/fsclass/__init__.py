"""Frobenius-Schur indicators and real/complex/quaternionic classification
for finite-dimensional *-algebras and their dual coalgebras."""

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      RealForm, SeparabilityIdempotent, build_algebra,
                      check_cstar, is_positive_element,
                      real_form_from_conjugation, real_form_from_S,
                      separability_idempotent)
from .coalgebra import (CoseparabilityIdempotent, FDStarCoalgebra,
                        compact_decompose, corep_indicator, dualize,
                        dualize_co)
from .constructors import (GroupTable, GroupoidData, TableAlgebraData,
                           WeakHopfData, check_involution_perm, cqg_indicator,
                           cyclic_group, disjoint_union_groupoid,
                           drinfeld_double, group_algebra,
                           group_from_permutations, group_weak_hopf,
                           groupoid_weak_hopf, pair_groupoid,
                           scheme_from_matrices, table_algebra,
                           table_indicator, twisted_indicator)
from .errors import AgreementFailure, FSClassError
from .indicators import (IndicatorReport, canonical_g, classify_sigma,
                         fs_indicator_formula, fs_indicator_trace,
                         full_report)
from .linalg import DEFAULT_TOL, Tolerance
from .reps import (Representation, conjugate_representation, decompose,
                   dual_representation, intertwiners, regular_representation)
# the command path (cli and its loaders in io) loads with the package, so a
# process that imports fsclass runs a command on modules already compiled
from . import cli

__version__ = "0.1.0"
