"""Attentive convolution: a dynamic depthwise operator whose kernels are
generated from global context, plus the baselines, analysis tools, cost
model, and micro training loop used to study it.

Importing the package caps BLAS thread pools at ATCONV_THREADS (default 1)
unless the usual thread-count variables are already set; the numerics are
deterministic for a fixed seed only under a fixed thread budget.
"""

import os as _os

_threads = _os.environ.get("ATCONV_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, _threads)
del _os, _var, _threads

__version__ = "0.1.0"

from .errors import (ArgumentError, DataConsistencyError, DegenerateMapError,
                     DimensionError, FormatError, NumericError, StateError,
                     TrainingDiverged, UndefinedMetricError,
                     UnsupportedConfigError)
from .rng import Rng
from .tensor import as_tensor4, ensure_finite, flop_counter, counting
from .op import (ATConv, ATConvConfig, ATConvParams, atconv_forward,
                 atconv_forward_cached, atconv_backward, dkm_forward,
                 dkm_backward, central_diff_forward)
from .baselines import (IdentityOp, StaticConv, StaticDepthwise, ToySAParams,
                        ToySelfAttention, conv_jacobian_probe)
from .analysis import (analyze_operator, cer, csc, far, gaussian_blur,
                       influence_map, inhibition_map, routing_centroid,
                       sym_eigenvalues)
from .complexity import ShapeSpec, atconv_flops, memory, report, sa_flops
from .gradcheck import check_vjp, finite_difference_grad, relative_error
from .micro import (AdamHyper, MicroConfig, MicroModel, cross_entropy,
                    adam_init, adam_step)
from .data import IdxDataset, load_idx_images, load_idx_labels, synth_dataset
from .train import TrainSettings, evaluate, overfit_single_sample, train
from .atck import load_atck, save_atck

__all__ = [
    "__version__",
    "ArgumentError", "DataConsistencyError", "DegenerateMapError",
    "DimensionError", "FormatError", "NumericError", "StateError",
    "TrainingDiverged", "UndefinedMetricError", "UnsupportedConfigError",
    "Rng", "as_tensor4", "ensure_finite", "flop_counter", "counting",
    "ATConv", "ATConvConfig", "ATConvParams", "atconv_forward",
    "atconv_forward_cached", "atconv_backward", "dkm_forward",
    "dkm_backward", "central_diff_forward",
    "IdentityOp", "StaticConv", "StaticDepthwise", "ToySAParams",
    "ToySelfAttention", "conv_jacobian_probe",
    "analyze_operator", "cer", "csc", "far", "gaussian_blur",
    "influence_map", "inhibition_map", "routing_centroid", "sym_eigenvalues",
    "ShapeSpec", "atconv_flops", "memory", "report", "sa_flops",
    "check_vjp", "finite_difference_grad", "relative_error",
    "AdamHyper", "MicroConfig", "MicroModel", "cross_entropy",
    "adam_init", "adam_step",
    "IdxDataset", "load_idx_images", "load_idx_labels", "synth_dataset",
    "TrainSettings", "evaluate", "overfit_single_sample", "train",
    "load_atck", "save_atck",
]
