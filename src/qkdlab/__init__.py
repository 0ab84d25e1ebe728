"""Desk-scale simulator and analysis toolkit for entanglement-based BB84
quantum key distribution: protocol sessions with configurable eavesdroppers,
two-photon state tomography, CHSH tests and one-time-pad messaging."""

from .optics import AnalyzerSetting, MeasBasis, PolState, analyzer_chain, hwp, projector, qwp
from .states import (EveConfig, QuartzPlate, TwoQubitState, add_white_noise,
                     bell_phi_plus, dephase_bob, intercept_branches, plate_gamma)
from .detection import DetectorConfig, Trials, joint_probs, simulate_dwell_stream
from .protocol import (SessionConfig, SessionTranscript, decide, estimate_qber,
                       h2, privacy_amplify, reconcile, run_session, sift)
from .tomography import (TOMO_SCHEDULE, ReconstructionError, StateMetrics,
                         TomographyRun, bootstrap_metrics, chsh, fidelity,
                         linear_entropy, reconstruct, run_tomography,
                         simulate_counts, state_metrics, tangle, von_neumann)
from .otp import KeyStream, decrypt, encrypt

__version__ = "0.1.0"
