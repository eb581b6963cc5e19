"""Analytic multiply counts per layer kind, from each layer's spec and shapes.

Counts cover the forward products that define each kind:

- NeoCell: per patch, ``L @ X`` then ``(L X) @ R``, i.e.
  h_out*h*w + h_out*w*w_out multiplies, over every patch of every channel;
- pointwise: one (c_out x c_in) by (c_in x n*H*W) product, c_out*c_in per pixel.

The NeoCell count is cross-checked against the multiplies the instrumented
reference kernel tallies (``neocell.MultCounter`` through
``forward_patchwise``) and, for square groups, against ``bench.flops_neocell``.
"""

from __future__ import annotations

import numpy as np

from neonext.bench import flops_neocell
from neonext.model import Block, NeoCellLayer, PointwiseLayer
from neonext.neocell import GroupSpec, MultCounter, NeoCellParams, NeoCellSpec, forward_patchwise
from neonext.tensor import Matrix, Tensor4


def layer_params(layer: NeoCellLayer) -> NeoCellParams:
    """Per-channel weights of a model layer, in the reference path's format."""
    C = layer.spec.channel_count
    left: list = [None] * C
    right: list = [None] * C
    for part, (pl, pr, _) in zip(layer.parts, layer.part_params):
        for i in range(part.stop - part.start):
            left[part.start + i] = Matrix(pl.array[i])
            right[part.start + i] = Matrix(pr.array[i])
    return NeoCellParams(left, right)


def group_mults(g: GroupSpec, dims) -> int:
    n, _, H, W = dims
    return n * g.count * (H // g.h) * (W // g.w) * (g.h_out * g.h * g.w + g.h_out * g.w * g.w_out)


def neocell_mults(spec: NeoCellSpec, dims) -> int:
    return sum(group_mults(g, dims) for g in spec.groups)


def pointwise_mults(layer: PointwiseLayer, dims) -> int:
    n, _, H, W = dims
    c_out, c_in = layer.weight.array.shape
    return n * H * W * c_out * c_in


def model_layers(model, batch: int):
    """(layer, input dims) for every NeoCell and pointwise layer of ``model``."""
    dims = (batch, 3, model.input_size, model.input_size)
    out = []
    for layer in model.layers:
        if isinstance(layer, Block):
            out.append((layer.neocell, dims))
            out.append((layer.expand, dims))
            out.append((layer.project, layer.expand.out_shape(dims)))
        elif isinstance(layer, (NeoCellLayer, PointwiseLayer)):
            out.append((layer, dims))
        dims = layer.out_shape(dims)
    return out


def mults_by_kind(layers) -> dict[str, int]:
    totals = {"neocell": 0, "pointwise": 0}
    for layer, dims in layers:
        if isinstance(layer, NeoCellLayer):
            totals["neocell"] += neocell_mults(layer.spec, dims)
        else:
            totals["pointwise"] += pointwise_mults(layer, dims)
    return totals


def count_checks(layers):
    """Analytic NeoCell counts against the instrumented and bench tallies."""
    cells = [(layer, dims) for layer, dims in layers if isinstance(layer, NeoCellLayer)]
    analytic = counted = analytic_square = bench_square = 0
    for layer, dims in cells:
        analytic += neocell_mults(layer.spec, dims)
        counter = MultCounter()
        forward_patchwise(Tensor4(np.zeros(dims)), layer.spec, layer_params(layer), counter)
        counted += counter.multiplies
        n, _, H, W = dims
        for g in layer.spec.groups:
            if g.h == g.w == g.h_out == g.w_out:
                analytic_square += group_mults(g, dims)
                bench_square += n * flops_neocell(g.count, H, W, g.h).multiplies
    yield (
        "counts.neocell_vs_multcounter",
        analytic == counted,
        f"analytic {analytic} vs MultCounter {counted} over {len(cells)} NeoCell layer calls",
    )
    yield (
        "counts.neocell_vs_flops_neocell",
        analytic_square == bench_square and bench_square > 0,
        f"square groups: analytic {analytic_square} vs bench.flops_neocell {bench_square}",
    )
