"""Connected-vehicle platoon toolkit: lossy V2V links, string stability,
minimum time-headway selection, and peak spacing-error bounds."""

from .channel import (ChannelMode, GilbertParams, gamma_of, link_streams,
                      sample_links)
from .control import (Gains, Scheme, SpacingPolicy, min_headway_acc,
                      min_headway_cacc, min_headway_cacc_plus,
                      min_headway_cacc_plus_mu)
from .dynamics import Maneuver, TimeGrid, VehicleState, step_lag
from .expectation import (RandomMatrixSpec, check_multilinearity,
                          exact_expected_power, from_platoon)
from .maps import (MapFormatError, PedalMap, actuate, affine_maps, interp,
                   invert, step_empirical, synthetic_brake_map,
                   synthetic_throttle_map)
from .sim import (EnsembleStats, PlatoonConfig, SimOutput,
                  SimulationDivergedError, build_system_matrix,
                  empirical_string_stability, equilibrium_state, monte_carlo,
                  seed_peaks, simulate, simulate_deterministic, simulate_panels)
from .stability import (PeakBound, RationalTF, StateSpace,
                        UnstableTransferFunctionError, build_cacc_plus_tfs,
                        build_cacc_tf, build_error_system, hinf_norm,
                        impulse_l1_norm, lyapunov_gramian, peak_output_bound,
                        string_stable_sum)

__version__ = "0.1.0"
