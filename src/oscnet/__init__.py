"""Oscillatory activation functions: catalog, XOR certification, CNN benchmark."""

from .activations import (
    COUNTABLY_INFINITE,
    ActivationDescriptor,
    ActivationId,
    ValueRange,
    all_ids,
    apply,
    apply_grad,
    apply_with_grad,
    derivative,
    descriptor,
    evaluate,
)
from .properties import (
    continuity_scan,
    gradient_check,
    monotonicity_scan,
    range_scan,
    sign_equivalence_scan,
    small_value_check,
    verify_catalog,
    zero_crossings,
)
from .xorlab import (
    SingleNeuron,
    TrainSpec,
    XorCertificate,
    decision_boundary_grid,
    neuron_forward,
    train_single_neuron,
    xor_witness,
)
from .network import (
    AdamState,
    NetworkConfig,
    adam_init,
    adam_step,
    build_model,
    evaluate_top1,
    train_epoch,
)
from .cifar import ImageDataset, load_cifar10, stratified_subset, synthetic_check_image

__version__ = "0.1.0"
