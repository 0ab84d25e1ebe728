"""Desk-scale simulator and analysis toolkit for entanglement-based BB84
quantum key distribution: protocol sessions with configurable eavesdroppers,
two-photon state tomography, CHSH tests and one-time-pad messaging."""

from .optics import MeasBasis, PolState, projector
from .states import (EveConfig, QuartzPlate, TwoQubitState, add_white_noise,
                     bell_phi_plus, dephase_bob, plate_gamma)
from .detection import DetectorConfig, Rates, Trials, expected_rates, simulate_dwell_stream
from .pcg64 import PCG64
from .protocol import (KeyResult, SessionConfig, SessionTranscript, distil, estimate_qber,
                       h2, privacy_amplify, reconcile, run_session, sift)
from .tomography import (TOMO_SCHEDULE, ReconstructionError, StateMetrics, bootstrap_metrics,
                         chsh, run_tomography, simulate_counts, state_metrics)
from .otp import decrypt, encrypt

__version__ = "0.1.0"
