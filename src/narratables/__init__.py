"""Frame-dependent spin histories of colliding particles.

The package builds the pieces of a small relativistic thought experiment:
exact Minkowski kinematics (`geometry`), dense spin-1/2 states with contact
unitaries (`quantum`), leaf-by-leaf histories and their frame comparison
(`narrative`), a momentum-delta compliance linter (`clusterkit`), and
finite-dimensional boost-generator diagnostics (`algebra`).
"""

from .errors import (
    CoincidentWorldlines,
    DimensionMismatch,
    EqualSlots,
    ExactnessWarning,
    FoliationMismatch,
    IndexOutOfRange,
    InvalidPairing,
    LittleGroupWarning,
    NarratablesError,
    NonHermitianInput,
    NonUnitaryMatrix,
    NotConserving,
    NotNormalized,
    OverlappingPairs,
    OverlappingSimultaneousPairs,
    ParseError,
    SlotOutOfRange,
    SuperluminalVelocity,
    TooManySlots,
    UnknownRule,
)
from .geometry import (
    CollisionGroup,
    Event,
    Foliation,
    Worldline,
    boost_matrix,
    collide,
    collision_events,
    collision_schedule,
    group_by_leaf,
    lorentz_gamma,
    rest_foliation,
)
from .quantum import (
    PairingSpec,
    SpinState,
    TwoSlotUnitary,
    angular_momentum_norms,
    apply_contact,
    apply_group,
    equal_up_to_phase,
    identity_unitary,
    overlap,
    singlet_product,
    swap_unitary,
)
from .narrative import (
    History,
    InteractionRule,
    NarratabilityReport,
    Scenario,
    compare_histories,
    evolve,
    flip_rule,
    free_rule,
    narratability_report,
    render_report,
)
from .clusterkit import (
    ClusterVerdict,
    MomentumKernel,
    analyze,
    canonicalize,
    conservation_vector,
    format_constraint,
)
from .algebra import (
    GeneratorSet,
    SplitSystem,
    WSolution,
    boost_nontriviality_check,
    boost_residual,
    bracket_residuals,
    same_history_check,
    solve_W,
)

__version__ = "0.1.0"
