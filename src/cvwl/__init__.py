"""cvwl: multimode Gaussian-state builders and entanglement/steering witnesses.

The package is organized as:

- :mod:`cvwl.states` — covariance-matrix algebra (states, beam splitters,
  loss channels, mixtures, quadrature-combination variances);
- :mod:`cvwl.networks` — declarative network specs and the named state
  builders (GHZ, asymmetric/symmetric EPR-type, the biseparable
  counterexample mixture);
- :mod:`cvwl.partitions` — bipartitions and the separability bounds, the
  genuine bound taken over subset sums of the gain products;
- :mod:`cvwl.witnesses` — the criteria (b1..b3, s1..s3, c1..c10), one table
  row each, evaluated in batches and reported as normalized witnesses;
- :mod:`cvwl.optimizer` — closed-form and numerical gain optimization plus
  parameter sweeps;
- :mod:`cvwl.cli` — the ``cvwl`` command-line front end (CSV output).
"""

from .states import (
    SQUEEZE_P,
    SQUEEZE_X,
    GainVector,
    GaussianState,
    MixedState,
    PhysicalityError,
    SqueezeSpec,
    apply_beam_splitter,
    apply_loss,
    mix,
    permute_modes,
    quadrature_variances,
    second_moments,
    squeezed_vacuum,
    tensor,
    vacuum_state,
)
from .networks import (
    BeamSplitter,
    LossChannel,
    NetworkSpec,
    build_counterexample,
    build_epr_type_i,
    build_epr_type_ii,
    build_ghz,
    execute,
    two_mode_squeezed,
)
from .partitions import (
    Bipartition,
    biseparable_bound,
    enumerate_bipartitions,
    genuine_bound,
    steering_bound,
)
from .witnesses import WitnessReport, equal_split_gains, evaluate
from .optimizer import (
    GainStructure,
    OptimizationResult,
    analytic_gains_epr1,
    analytic_gains_ghz,
    build_state,
    optimize_gains,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "SQUEEZE_P",
    "SQUEEZE_X",
    "GainVector",
    "GaussianState",
    "MixedState",
    "PhysicalityError",
    "SqueezeSpec",
    "apply_beam_splitter",
    "apply_loss",
    "mix",
    "permute_modes",
    "quadrature_variances",
    "second_moments",
    "squeezed_vacuum",
    "tensor",
    "vacuum_state",
    "BeamSplitter",
    "LossChannel",
    "NetworkSpec",
    "build_counterexample",
    "build_epr_type_i",
    "build_epr_type_ii",
    "build_ghz",
    "execute",
    "two_mode_squeezed",
    "Bipartition",
    "biseparable_bound",
    "enumerate_bipartitions",
    "genuine_bound",
    "steering_bound",
    "WitnessReport",
    "equal_split_gains",
    "evaluate",
    "GainStructure",
    "OptimizationResult",
    "analytic_gains_epr1",
    "analytic_gains_ghz",
    "build_state",
    "optimize_gains",
    "sweep",
]
