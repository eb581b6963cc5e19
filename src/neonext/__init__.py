"""Patch-wise matrix-multiplication operator, block-diagonal execution,
identity-style initialization, and a desk-scale training/benchmark harness.
"""

from .tensor import Matrix, Tensor4, read_tensor, write_tensor
from .rng import Rng
from .neoinit import neoinit_pattern
from .neocell import (
    GroupSpec,
    NeoCellParams,
    NeoCellSpec,
    forward_blockdiag,
    forward_patchwise,
    output_shape,
)
from .autodiff import Grads, Param, Tape, backward, fd_check
from .model import ModelSpec, build_model, named_spec
from .trainer import OptimSpec, RunConfig, ScheduleSpec, lr_at, run_ablation, train_run
from .bench import BenchResult, OpCost, bench, dwconv_reference, flops_dwconv, flops_neocell

__all__ = [
    "Matrix", "Tensor4", "read_tensor", "write_tensor",
    "Rng",
    "neoinit_pattern",
    "GroupSpec", "NeoCellSpec", "NeoCellParams",
    "forward_patchwise", "forward_blockdiag", "output_shape",
    "Grads", "Param", "Tape", "backward", "fd_check",
    "ModelSpec", "build_model", "named_spec",
    "OptimSpec", "ScheduleSpec", "RunConfig", "lr_at", "train_run", "run_ablation",
    "OpCost", "BenchResult", "flops_dwconv", "flops_neocell", "dwconv_reference", "bench",
]

__version__ = "0.1.0"
