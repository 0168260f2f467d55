"""Monte-Carlo dropout uncertainty estimation on spiking LIF networks.

Train a feedforward regressor on the smoothed (SoftLIF) rate curve with
dropout, transfer the weights unchanged to a spiking network (``convert``
checks the analog model and returns it uncopied), and build predictive
distributions on either backend by repeating masked evaluations.
"""

from .data import Dataset, load_csv, save_csv, synth_combo, train_test_split
from .mcinfer import SampleSet, predictive_distribution, read_samples, write_samples
from .network import (
    EncoderSpec,
    InvalidNetworkError,
    LayerSpec,
    NetworkSpec,
    WeightStore,
    combo_spec,
    convert,
    forward,
    init_weights,
    load_model,
    sample_masks,
    save_model,
    validate,
)
from .neuron import NeuronParams, lif_rate, lif_step_arrays, softlif_rate
from .snn import SimConfig, simulate, summarize_trace, write_trace
from .stats import (
    KsResult,
    UniformityReport,
    ecdf_sup_distance,
    ks_p_value,
    ks_two_sample,
    pvalue_uniformity,
)
from .training import TrainConfig, TrainingDivergedError, backward, loss_mse, train

__version__ = "0.1.0"
