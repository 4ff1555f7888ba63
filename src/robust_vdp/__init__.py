"""Robust multi-objective dynamic programming on finite scenario trees.

Exact rational arithmetic throughout: set-valued value functions under a
polyhedral cone order, ideal-point suprema with existence/uniqueness
certificates, rectangularity checks for model families, and verification
of the weak and strong set-valued Bellman relations.
"""

from .cones import (
    COMPONENTWISE,
    DUAL,
    GENERATORS,
    HALFSPACE,
    Cone,
    minimal_elements,
)
from .engine import (
    DEFAULT_BUDGET,
    DYNAMICS,
    TABULATED,
    BellmanReport,
    BellmanRow,
    ControlledProblem,
    DynamicsSpec,
    UpperImageReport,
    backward_value,
    check_bellman,
    check_upper_image_recursion,
    enumerate_strategies,
    one_step_R,
    upper_image,
    value_sets,
)
from .errors import (
    DeskScaleExceededError,
    DimensionMismatchError,
    DualNotLIError,
    InstanceError,
    RepresentationError,
    SupNotExistsError,
    UnsupportedConeError,
)
from .instance import (
    Options,
    ParsedInstance,
    parse_document,
    serialize_instance,
)
from .rectangularity import (
    RectReport,
    check_preorder_rectangularity,
    extract_marginals,
    is_m_rectangular,
    random_terminal_vectors,
    rectangularize,
)
from .render import compute_results, emit_bellman, emit_tables
from .suprema import (
    NON_UNIQUE,
    NOT_EXISTS,
    UNIQUE,
    SupResult,
    vsup,
    vsup_dual_li,
    vsup_general,
)
from .trees import (
    AdaptedSupResult,
    AdaptedVector,
    Model,
    ModelFamily,
    ScenarioTree,
    cond_expect,
    vsup_adapted,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedSupResult",
    "AdaptedVector",
    "BellmanReport",
    "BellmanRow",
    "COMPONENTWISE",
    "Cone",
    "ControlledProblem",
    "DEFAULT_BUDGET",
    "DUAL",
    "DYNAMICS",
    "DeskScaleExceededError",
    "DimensionMismatchError",
    "DualNotLIError",
    "DynamicsSpec",
    "GENERATORS",
    "HALFSPACE",
    "InstanceError",
    "Model",
    "ModelFamily",
    "NON_UNIQUE",
    "NOT_EXISTS",
    "Options",
    "ParsedInstance",
    "RectReport",
    "RepresentationError",
    "ScenarioTree",
    "SupNotExistsError",
    "SupResult",
    "TABULATED",
    "UNIQUE",
    "UnsupportedConeError",
    "UpperImageReport",
    "backward_value",
    "check_bellman",
    "check_preorder_rectangularity",
    "check_upper_image_recursion",
    "compute_results",
    "cond_expect",
    "emit_bellman",
    "emit_tables",
    "enumerate_strategies",
    "extract_marginals",
    "is_m_rectangular",
    "minimal_elements",
    "one_step_R",
    "parse_document",
    "random_terminal_vectors",
    "rectangularize",
    "serialize_instance",
    "upper_image",
    "value_sets",
    "vsup",
    "vsup_adapted",
    "vsup_dual_li",
    "vsup_general",
]
