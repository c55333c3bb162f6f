"""Qutrit statevector simulation and ternary quantum-image codecs."""

from .decode import (
    CODECS,
    Codec,
    DecodeReport,
    decode_fqri,
    decode_fqrqci,
    decode_fqrri,
    decode_mcqri,
    decode_qrciq,
    fqrqci_measurement_circuits,
    fqrri_values_from_angles,
)
from .encode import (
    EncodeResult,
    encode_fqri,
    encode_fqrqci,
    encode_fqrri,
    encode_mcqri,
    encode_qrciq,
    fqrri_angles,
    pixel_angle,
    pixel_index,
)
from .errors import (
    CapacityError,
    HistogramInconsistencyError,
    ParseError,
    ProbabilityError,
    RegisterWidthError,
    ShapeError,
    UnsupportedDepthError,
)
from .gates import (
    GateSpec,
    hadamard3,
    identity3,
    is_unitary,
    rotation,
    shift_gate,
    u_subspace,
    x_gate,
)
from .images import GrayImage, RgbImage, read_pgm, read_ppm, validate_side, write_pgm, write_ppm
from .metrics import coupon_collector_expectation, expected_complete_support_shots, mae, psnr
from .simulator import (
    Circuit,
    CircuitOp,
    ControlSpec,
    ShotHistogram,
    circuit_from_json,
    circuit_to_json,
    diagram,
    diagram_columns,
    histogram_from_csv,
    histogram_to_csv,
    probabilities,
    probabilities_from_csv,
    probabilities_to_csv,
    run,
    sample,
)
from .ternary import (
    MAX_QUTRITS,
    Statevector,
    index_from_trits,
    statevector_zero,
    ternary_digits_u8,
    trits_from_index,
    value_from_digits,
)

__version__ = "0.1.0"
