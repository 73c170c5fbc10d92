"""State-space sequence models for vision at desk scale.

Modules:
  tensor     float64 tensors with reverse-mode autodiff
  ssm        classical LTI state space model (recurrence == FFT convolution)
  selective  input-dependent scans: fused sequential (model path), chunked
             oracle, non-causal
  scan2d     2D scan orders as index arrays: one MultiScan, built by make_scan
  blocks     patch embedding, the three block families, model + checkpoints
  rng        splitmix64 random stream on one (uint64 array) draw path
  data       procedural real-vs-generated image corpus
  training   Adam loop, per-subset evaluation, cross-generator experiment
  files      every file write (atomic), CSV/JSON/netpbm, the array container
  cli        the ``vissm`` command
"""

from .blocks import (
    Model,
    ModelConfig,
    build_model,
    config_from_preset,
    forward,
    load_checkpoint,
    param_count,
    patch_embed,
    penultimate,
    predict,
    save_checkpoint,
)
from .data import DetectionDataset, SynthGenSpec, make_dataset, synth_fake, synth_real
from .rng import SplitMix64
from .scan2d import MultiScan, make_scan
from .selective import (
    SelectiveProjection,
    nc_ssd,
    project_params,
    selective_scan_parallel,
    selective_scan_sequential,
)
from .ssm import (
    DiscreteSsm,
    SsmParams,
    conv_kernel,
    discretize_zoh,
    run_convolution,
    run_recurrent,
)
from .tensor import Tensor, backward, no_grad
from .training import (
    EvalReport,
    TrainConfig,
    cross_generator_experiment,
    evaluate,
    export_features,
    train,
)

__version__ = "0.1.0"
