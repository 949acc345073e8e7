"""Differentiable neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Convolution and pooling are implemented as autograd primitives (with
hand-written backward passes over im2col buffers) because composing them
from elementwise ops would be prohibitively slow in numpy. The window
kernels themselves (im2col / col2im / pooling windows) are *not*
implemented here: they dispatch to the active compute backend
(:func:`repro.backend.get_backend`), so the same autograd graph runs
unchanged on the loop-based ``reference`` kernels or the strided-view
``vectorized`` ones.
Everything here is validated against finite differences in ``tests/nn``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import get_backend
from repro.nn.tensor import Tensor
from repro.utils.contracts import check_shapes
from repro.utils.rng import make_rng


# ----------------------------------------------------------------------
# im2col / col2im (dispatched to the active backend)
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pad: int) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW).

    Thin dispatch wrapper: the actual kernel belongs to the active
    compute backend (``REPRO_BACKEND`` / ``--backend``).
    """
    return get_backend().im2col(x, kh, kw, stride, pad)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int,
           kw: int, stride: int, pad: int) -> np.ndarray:
    """Fold columns back into an image of shape ``x_shape``,
    accumulating overlaps (im2col adjoint); dispatched to the backend."""
    return get_backend().col2im(cols, x_shape, kh, kw, stride, pad)


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
@check_shapes("(n,c,_,_),(f,c,kh,kw)->(n,f,_,_)", arg_names=["x", "weight"])
def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout.

    ``weight`` has shape (F, C, kh, kw). Implemented as a batched matmul
    over im2col buffers; the backward pass reuses the saved buffer.
    """
    f, c, kh, kw = weight.shape
    cols, oh, ow = im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(f, c * kh * kw)
    out = np.einsum("fk,nkp->nfp", w2, cols, optimize=True)
    out = out.reshape(x.shape[0], f, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)
    x_shape = x.shape

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(g.shape[0], f, oh * ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=(0, 2)))
        if weight.requires_grad:
            dw = np.einsum("nfp,nkp->fk", g2, cols, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if x.requires_grad:
            dcols = np.einsum("fk,nfp->nkp", w2, g2, optimize=True)
            x._accumulate(col2im(dcols, x_shape, kh, kw, stride, padding))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def _pool_windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """View ``x`` (N, C, H, W) as windows (N, C, k*k, OH, OW);
    dispatched to the active backend."""
    return get_backend().pool_windows(x, k, stride)


@check_shapes("(n,c,_,_)->(n,c,_,_)", arg_names=["x"])
def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows. ``stride`` defaults to ``kernel_size``."""
    k = kernel_size
    stride = stride or k
    windows = _pool_windows(x.data, k, stride)
    arg = windows.argmax(axis=2)
    out = np.take_along_axis(windows, arg[:, :, None], axis=2)[:, :, 0]
    n, c, oh, ow = out.shape
    x_shape = x.shape

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dwin = np.zeros((n, c, k * k, oh, ow), dtype=np.float64)
        np.put_along_axis(dwin, arg[:, :, None], g[:, :, None], axis=2)
        # Fold windows back; reuse col2im by treating k*k as (kh*kw) per channel.
        dcols = dwin.reshape(n, c * k * k, oh * ow)
        x._accumulate(col2im(dcols, x_shape, k, k, stride, 0))

    return Tensor._make(out, (x,), backward)


@check_shapes("(n,c,_,_)->(n,c,_,_)", arg_names=["x"])
def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows."""
    k = kernel_size
    stride = stride or k
    windows = _pool_windows(x.data, k, stride)
    out = windows.mean(axis=2)
    n, c, oh, ow = out.shape
    x_shape = x.shape

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dwin = np.broadcast_to(g[:, :, None] / (k * k),
                               (n, c, k * k, oh, ow)).astype(np.float64)
        dcols = dwin.reshape(n, c * k * k, oh * ow)
        x._accumulate(col2im(dcols, x_shape, k, k, stride, 0))

    return Tensor._make(out, (x,), backward)


@check_shapes("(n,c,_,_)->(n,c)", arg_names=["x"])
def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims, returning (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# dense / normalisation / regularisation
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; weight is (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over (N, H, W) per channel.

    Composed from differentiable primitives; running statistics are
    updated in place (outside the autograd graph) when ``training``.
    """
    c = x.shape[1]
    gamma_b = gamma.reshape(1, c, 1, 1)
    beta_b = beta.reshape(1, c, 1, 1)
    if training:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.data.reshape(c)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.data.reshape(c)
        x_hat = (x - mean) / ((var + eps) ** 0.5)
    else:
        mean = running_mean.reshape(1, c, 1, 1)
        std = np.sqrt(running_var.reshape(1, c, 1, 1) + eps)
        x_hat = (x - mean) * (1.0 / std)
    return x_hat * gamma_b + beta_b


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = make_rng(rng)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._make(x.data * mask, (x,), backward)


# ----------------------------------------------------------------------
# classification heads
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax as an autograd primitive."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    softmax = np.exp(out)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - softmax * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax via the stable log-softmax primitive."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (N, K) and integer labels (N,).

    Fused primitive: forward uses log-sum-exp, backward is the classic
    ``(softmax - onehot) / N``.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or logits.ndim != 2:
        raise ValueError("cross_entropy expects logits (N, K) and labels (N,)")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            logits._accumulate(float(g) * d / n)

    return Tensor._make(np.asarray(loss), (logits,), backward)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = pred - target
    return (diff * diff).mean()
