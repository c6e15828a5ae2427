"""Central finite-difference gradient checking against the analytic backward."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from delaes.network import _conv_pre_batch
from delaes.training import Batch, backward

from oracles import relative_error


@dataclass
class GradCheckReport:
    checked: int
    skipped: int
    max_rel_error: float
    worst_coordinate: tuple[str, int] | None


def _kink_floors(batch: Batch, params) -> tuple[dict, float]:
    """Minimum |pre-activation| per conv filter row, over real positions only.

    Coordinates whose perturbation can move a ReLU input across zero are the
    only ones a finite difference can misjudge, so the check skips filter rows
    (and, transitively, embedding coordinates) sitting within ``kink_tol`` of
    the kink.  The training cache keeps no pre-activations, so they are
    recomputed here as the forward pass computes them, on the batch sorted
    longest first.
    """
    cfg = params.config
    tensors = params.tensors
    lengths = batch.mask.sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    pres = _conv_pre_batch(tensors["embedding"], batch.indices[order],
                           [tensors[f"conv{k}.weights"] for k in cfg.windows],
                           [tensors[f"conv{k}.bias"] for k in cfg.windows], lengths)
    per_filter: dict[int, np.ndarray] = {}
    global_floor = np.inf
    for window, pre in zip(cfg.windows, pres):
        valid = (np.arange(pre.shape[1]) < (lengths - window + 1)[:, None])[:, :, None]
        masked = np.where(valid, np.abs(pre), np.inf)
        floors = masked.min(axis=(0, 1))
        per_filter[window] = floors
        global_floor = min(global_floor, float(floors.min()))
    return per_filter, global_floor


def _skip_filter_row(name: str, flat_index: int, shape, per_filter, global_floor,
                     kink_tol: float) -> bool:
    if name == "embedding":
        return global_floor < kink_tol
    if name.startswith("conv"):
        window = int(name[4:].split(".")[0])
        row = flat_index // shape[1] if len(shape) == 2 else flat_index
        return per_filter[window][row] < kink_tol
    return False


def check_gradients(batch: Batch, params, dropout_seed: int, step: float = 1e-4,
                    tolerance: float = 1e-4, kink_tol: float = 1e-3
                    ) -> GradCheckReport:
    """Compare every parameter coordinate against central finite differences.

    Raises AssertionError on the first coordinate whose relative error exceeds
    ``tolerance``; returns a summary report otherwise.
    """
    _, grads = backward(batch, params, dropout_seed)
    per_filter, global_floor = _kink_floors(batch, params)

    def loss_now() -> float:
        loss, _ = backward(batch, params, dropout_seed)
        return loss

    checked = 0
    skipped = 0
    worst = 0.0
    worst_coord = None
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        grad_flat = grads[name].ravel()
        for i in range(flat.size):
            if _skip_filter_row(name, i, tensor.shape, per_filter, global_floor,
                                kink_tol):
                skipped += 1
                continue
            original = flat[i]
            flat[i] = original + step
            loss_plus = loss_now()
            flat[i] = original - step
            loss_minus = loss_now()
            flat[i] = original
            fd = (loss_plus - loss_minus) / (2.0 * step)
            rel = relative_error(fd, float(grad_flat[i]))
            checked += 1
            if rel > worst:
                worst = rel
                worst_coord = (name, i)
            assert rel < tolerance, (
                f"gradient mismatch at {name}[{i}]: "
                f"analytic={grad_flat[i]:.3e} fd={fd:.3e} rel={rel:.3e}"
            )
    return GradCheckReport(checked=checked, skipped=skipped, max_rel_error=worst,
                           worst_coordinate=worst_coord)
