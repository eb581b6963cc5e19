"""Minimal reverse-mode differentiation on a recorded tape.

Every forward operation appends one node holding the ids of its inputs and a
closure that maps the output gradient to input gradients.  ``backward`` walks
the nodes in exact reverse order and accumulates gradients by value id, so
two identical passes produce bit-identical results.  Tapes are single-use:
replaying a consumed or empty tape raises.

``fd_check`` is the independent verification harness: central finite
differences of a scalar loss against analytic gradients, reported per
parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, UsageError

_ids = itertools.count(1)


class Val:
    """A value tracked on a tape (a numpy array plus an identity)."""

    __slots__ = ("array", "vid")

    def __init__(self, array):
        self.array = np.asarray(array, dtype=np.float64)
        self.vid = next(_ids)


class Param(Val):
    """A leaf value with a stable name; optimizers update ``array`` in place."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, array, kind: str = "weight"):
        super().__init__(np.array(array, dtype=np.float64))
        self.name = name
        self.kind = kind


@dataclass
class _Node:
    out_vid: int
    in_vids: tuple[int, ...]
    backward_fn: object


class Tape:
    """Ordered record of one forward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.params: dict[int, Param] = {}
        self.consumed = False

    def record(self, out: Val, ins: tuple[Val, ...], backward_fn) -> None:
        for v in ins:
            if isinstance(v, Param):
                self.params.setdefault(v.vid, v)
        self.nodes.append(_Node(out.vid, tuple(v.vid for v in ins), backward_fn))

    def watch(self, *params: Param) -> None:
        for p in params:
            self.params.setdefault(p.vid, p)


class Grads(dict):
    """Mapping from parameter name to gradient array of identical dims."""


def backward(tape: Tape, loss_grad: float = 1.0) -> Grads:
    """Accumulate gradients of the tape's final output for all leaf params."""
    if not tape.nodes:
        raise UsageError("backward on an empty tape")
    if tape.consumed:
        raise UsageError("tape already consumed; re-record the forward pass")
    tape.consumed = True
    store: dict[int, np.ndarray] = {tape.nodes[-1].out_vid: np.asarray(loss_grad, dtype=np.float64)}
    for node in reversed(tape.nodes):
        g = store.pop(node.out_vid, None)
        if g is None:
            continue
        gins = node.backward_fn(g)
        for vid, gi in zip(node.in_vids, gins):
            if gi is None:
                continue
            if vid in store:
                store[vid] = store[vid] + gi
            else:
                store[vid] = gi
    out = Grads()
    for p in tape.params.values():
        g = store.get(p.vid)
        if g is None:
            g = np.zeros_like(p.array)
        elif g.shape != p.array.shape:
            raise ShapeError(f"gradient for {p.name} has shape {g.shape}, expected {p.array.shape}")
        out[p.name] = g
    return out


@dataclass
class FdRow:
    name: str
    checked: int
    max_rel_err: float
    passed: bool


@dataclass
class FdReport:
    rows: list[FdRow] = field(default_factory=list)
    threshold: float = 0.0

    @property
    def max_rel_err(self) -> float:
        return max((r.max_rel_err for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def table(self) -> str:
        lines = [f"{'parameter':<40} {'entries':>7} {'max rel err':>12}  status"]
        for r in self.rows:
            lines.append(
                f"{r.name:<40} {r.checked:>7} {r.max_rel_err:>12.3e}  "
                + ("pass" if r.passed else "FAIL")
            )
        return "\n".join(lines)


def fd_check(
    f,
    params: list[Param],
    grads: Grads,
    eps: float = 1e-5,
    threshold: float = 1e-4,
    entries_per_param: int | None = None,
) -> FdReport:
    """Central-difference verification of analytic gradients.

    ``f()`` must be a pure scalar function of the current parameter arrays.
    For each selected entry the analytic value is compared against
    (f(p + eps*e) - f(p - eps*e)) / (2*eps) with relative error
    |a - fd| / max(|a|, |fd|, 1e-5).

    When ``entries_per_param`` is set, the probed subset per parameter is
    the entries with the largest analytic magnitude: central differences of
    a deep loss carry an absolute noise floor, so only entries above it are
    resolvable.  ``entries_per_param=None`` probes everything.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"fd_check: eps must be finite and > 0, got {eps}")
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ParameterError(f"fd_check: threshold must be finite and >= 0, got {threshold}")
    if entries_per_param is not None and entries_per_param < 1:
        raise ParameterError(f"fd_check: entries_per_param must be >= 1 or None, got {entries_per_param}")
    report = FdReport(threshold=threshold)
    for p in params:
        flat = p.array.reshape(-1)
        n = flat.size
        gflat = np.asarray(grads[p.name]).reshape(-1)
        if entries_per_param is None or entries_per_param >= n:
            idx = np.arange(n)
        else:
            idx = np.argsort(-np.abs(gflat), kind="stable")[:entries_per_param]
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f())
            flat[i] = orig - eps
            f_minus = float(f())
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite loss while probing {p.name}[{int(i)}]")
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = gflat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            worst = max(worst, rel)
        report.rows.append(FdRow(p.name, len(idx), worst, worst <= threshold))
    return report
