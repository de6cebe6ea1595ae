"""Connected-vehicle platoon toolkit: lossy V2V links, string stability,
minimum time-headway selection, and peak spacing-error bounds."""

from .channel import (ChannelMode, ChannelState, GilbertParams, LinkSample,
                      channel_step, estimate_gamma, gamma_of, link_streams,
                      platoon_gamma)
from .control import (Gains, Scheme, SpacingPolicy, min_headway_acc,
                      min_headway_cacc, min_headway_cacc_plus,
                      min_headway_cacc_plus_mu)
from .dynamics import Maneuver, TimeGrid, VehicleState, lead_trajectory, step_lag
from .expectation import (RandomMatrixSpec, check_multilinearity,
                          exact_expected_exponential, exact_expected_power,
                          from_platoon, monte_carlo_expected_exponential)
from .maps import (InversionError, MapFormatError, PedalMap, actuate,
                   affine_maps, interp, invert, step_empirical,
                   synthetic_brake_map, synthetic_throttle_map)
from .sim import (EnsembleStats, PlatoonConfig, SimOutput,
                  SimulationDivergedError, build_system_matrix,
                  empirical_string_stability, equilibrium_state, monte_carlo,
                  simulate, simulate_deterministic)
from .stability import (PeakBound, RationalTF, StateSpace,
                        UnstableTransferFunctionError, build_cacc_plus_tfs,
                        build_cacc_tf, build_error_system, hinf_norm,
                        impulse_l1_norm, lyapunov_gramian, peak_output_bound,
                        safe_standstill_distance, string_stable_sum)

__version__ = "0.1.0"
