"""Compatible actions, Peiffer products and crossed modules for finite
groups, with a parallel instantiation for rational Lie algebras."""

from .groups import (
    Diagnosis,
    FiniteGroup,
    GroupError,
    Hom,
    direct_product,
    identity_hom,
    is_isomorphic,
    normal_closure,
    quotient,
    validate_table,
)
from .actions import (
    Action,
    check_action_table,
    conjugation_action,
    enumerate_actions,
    pullback_action,
    semidirect,
    trivial_action,
)
from .compat import CompatVerdict, MutualActions, check_compatible, coproduct_eval
from .xmod import CrossedModule, check_xmod, induced_mutual_actions
from .product import (
    PeifferProduct,
    induced_actions,
    peiffer_product,
    peiffer_relators,
    peiffer_xmods,
    strong_relation_check,
    universal_map,
)
from .lie import (
    LieAction,
    LieAlgebra,
    LieError,
    LieMap,
    check_lie_action,
    check_lie_xmod,
    lie_compatible,
    lie_induced_actions,
    lie_peiffer,
    lie_semidirect,
    lie_universal_map,
    validate_lie,
)
from .catalog import cyclic, enumerate_family, enumerate_mutual_actions, klein_four, symmetric_3

__version__ = "0.1.0"
