"""Homological fillings, surface diagrams and push-down bounds in bounded
pieces of Cayley complexes."""

__version__ = "0.1.0"

from .backends import (
    ExtensionBackend,
    ExtensionNormalForm,
    FreeAbelianBackend,
    FreeBackend,
    GroupBackend,
    equal_in_group,
)
from .cayley import (
    CayleyBall,
    OneCycle,
    TwoChain,
    boundary_2,
    build_ball,
    loop_to_cycle,
)
from .errors import DomainError, HomfillError, InvariantError, ParseError, ResourceError
from .extension import (
    PushdownTrace,
    TCycle,
    TransferConstants,
    compute_constants,
    detect_t_cycles,
    pull_back_filling,
    push_down,
    push_forward_filling,
    route_filling,
    verify_theorem_bound,
)
from .experiments import (
    ARPairReport,
    HyperbolicARPair,
    compare_presentations,
    hyperbolic_ar_pair,
    measure_ar_pair,
    polynomial_degree_report,
)
from .filling import (
    FATable,
    FillingResult,
    check_preceq,
    fa_estimate,
    harea_fill,
    superadditive_closure,
)
from .presentation import (
    AutLift,
    HomPresentation,
    Presentation,
    apply_lift,
    build_extension_presentation,
    parse_presentation_file,
)
from .surface import (
    SurfaceDiagram,
    SurfaceMetrics,
    assemble_surface,
    diagram_radius,
    measure,
    project_boundary,
    verify_surface,
)
from .words import cyclic_reduce, free_reduce, inverse_word
