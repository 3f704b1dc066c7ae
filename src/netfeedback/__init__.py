"""Simulation laboratory for feedback stabilization over directed networks
with an unknown plant nonlinearity: graph capacity metrics, flow records and
consensus views, nearest-neighbour feedback laws, the online adversarial
construction, and critical-gain experiment drivers.
"""

from .adversary import (DivergenceCertificate, InvariantError, OnlineAdversary,
                        PinnedPiecewiseLinear)
from .capacity import (DaggerEstimate, RecursionResult, estimate_dagger,
                       simulate_dagger_recursion, simulate_scalar_recursion,
                       threshold_sweep, xie_guo_constant)
from .config import ConfigError, ExperimentConfig
from .controllers import (Controller, ControllerSpec, WitnessRecord,
                          WitnessSet, control_cycle, control_local_flow,
                          control_max_enhanced, control_network_flow,
                          control_path_root, enhanced_witness,
                          global_witnesses, local_witness)
from .dynamics import (DisturbanceSpec, InverseObserver, ObservationSpec,
                       PlantModel, observe_direct, step)
from .flows import (EnhancedFlowView, FlowLog, LocalFlowView, WitnessIndex,
                    run_extreme_consensus)
from .functions import (BoundedPerturbedLinear, GrowthCertificate,
                        LinearFunction, PlantFunction, TabulatedFunction,
                        certificate_for, check_growth_bound, sampled_quasi_norm)
from .graphs import (WeightedDigraph, build_canonical, inf_norm,
                     is_strongly_connected, random_strongly_connected,
                     sharp_metric, sign_pattern)
from .runner import RunResult, run_experiment, theoretical_bound, write_outputs

__version__ = "0.1.0"
