"""Differentiable operators used by the models in the Crossbow paper.

Every public function takes :class:`~repro.tensor.tensor.Tensor` inputs and
returns a :class:`Tensor` connected to the autograd graph.  Convolution and
pooling use an im2col lowering so the heavy lifting stays inside NumPy matrix
multiplies, which keeps the scaled convergence experiments fast enough to run
on a CPU.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.tensor.tensor import Function, Tensor, unbroadcast

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "matmul",
    "linear",
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "reshape",
    "transpose",
    "sum",
    "mean",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "batch_norm",
    "dropout",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
]


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------
class _Add(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(grad, b_shape)


class _Sub(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(-grad, b_shape)


class _Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        return unbroadcast(grad * b, a.shape), unbroadcast(grad * a, b.shape)


class _Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        grad_a = grad / b
        grad_b = -grad * a / (b * b)
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


class _Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class _Power(Function):
    def forward(self, a, exponent: float):
        self.save_for_backward(a, exponent)
        return a**exponent

    def backward(self, grad):
        a, exponent = self.saved
        return (grad * exponent * a ** (exponent - 1),)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _Mul.apply(a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _Div.apply(a, b)


def neg(a: Tensor) -> Tensor:
    return _Neg.apply(a)


def power(a: Tensor, exponent: float) -> Tensor:
    return _Power.apply(a, exponent=exponent)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------
class _MatMul(Function):
    def forward(self, a, b):
        if a.ndim < 1 or b.ndim < 1:
            raise ShapeError("matmul requires at least 1-d operands")
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad):
        a, b = self.saved
        grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _MatMul.apply(a, b)


class _LinearProduct(Function):
    """``x @ W.T`` with the weight gradient in ``W``'s own layout.

    Built as ``matmul(x, transpose(W))`` the weight gradient would come back
    as the transpose of ``x.T @ grad``: an F-ordered view whose flattening
    into the replica bank is a cache-hostile transposed copy.  ``grad.T @ x``
    holds the same dot products over the batch, laid out C-contiguous in
    ``(out, in)``, so the gather is a memcpy.  Any leading dimensions of
    ``x`` are folded into that batch.  The two forms hand BLAS opposite
    transpose flags.  Their floats match on the OpenBLAS that NumPy 2.4's
    wheels bundle (the tests compare them exactly), but that is observed,
    not guaranteed: another BLAS build or CPU may order the batch sum
    differently.
    """

    def forward(self, x, weight):
        if x.ndim < 1 or weight.ndim != 2:
            raise ShapeError("linear requires an input of at least 1-d and a 2-d weight")
        self.save_for_backward(x, weight)
        return x @ weight.T

    def backward(self, grad):
        x, weight = self.saved
        fan_out, fan_in = weight.shape
        # A first layer reads raw inputs: nothing upstream wants grad_x.
        grad_x = grad @ weight if self.parents[0].requires_grad else None
        return grad_x, grad.reshape(-1, fan_out).T @ x.reshape(-1, fan_in)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` (PyTorch weight layout)."""
    out = _LinearProduct.apply(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


# ---------------------------------------------------------------------------
# Activations and pointwise non-linearities
# ---------------------------------------------------------------------------
class _ReLU(Function):
    def forward(self, a):
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class _Sigmoid(Function):
    def forward(self, a):
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out * (1.0 - out),)


class _Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)


class _Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class _Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


def relu(a: Tensor) -> Tensor:
    return _ReLU.apply(a)


def sigmoid(a: Tensor) -> Tensor:
    return _Sigmoid.apply(a)


def tanh(a: Tensor) -> Tensor:
    return _Tanh.apply(a)


def exp(a: Tensor) -> Tensor:
    return _Exp.apply(a)


def log(a: Tensor) -> Tensor:
    return _Log.apply(a)


# ---------------------------------------------------------------------------
# Shape manipulation and reductions
# ---------------------------------------------------------------------------
class _Reshape(Function):
    def forward(self, a, shape):
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad):
        (original,) = self.saved
        return (grad.reshape(original),)


class _Transpose(Function):
    def forward(self, a, axes):
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        self.save_for_backward(axes)
        return np.transpose(a, axes)

    def backward(self, grad):
        (axes,) = self.saved
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)


class _Sum(Function):
    def forward(self, a, axis, keepdims):
        self.save_for_backward(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        shape, axis, keepdims = self.saved
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % len(shape) for a in axes):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).astype(np.float32),)


class _Mean(Function):
    def forward(self, a, axis, keepdims):
        self.save_for_backward(a.shape, axis, keepdims, a.size)
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        shape, axis, keepdims, total = self.saved
        if axis is None:
            count = total
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= shape[ax % len(shape)]
            if not keepdims:
                for ax in sorted(a % len(shape) for a in axes):
                    grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).astype(np.float32) / count,)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _Reshape.apply(a, shape=tuple(shape))


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    return _Transpose.apply(a, axes=tuple(axes) if axes is not None else None)


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - mirrors numpy
    return _Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _Mean.apply(a, axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# Convolution and pooling (NCHW layout)
# ---------------------------------------------------------------------------
def _output_size(x_shape, kernel_h, kernel_w, stride, padding):
    """Spatial output extent of a windowed op; ``ShapeError`` if it would be empty.

    Runs before any window view is built, so a kernel larger than the padded
    input surfaces as the repo's error type rather than as NumPy's.
    """
    out_h = (x_shape[2] + 2 * padding - kernel_h) // stride + 1
    out_w = (x_shape[3] + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"convolution / pooling output would be empty for a {x_shape[2]}x{x_shape[3]} input, "
            f"kernel ({kernel_h},{kernel_w}), stride {stride}, padding {padding}"
        )
    return out_h, out_w


def _im2col(x, kernel_h, kernel_w, stride, padding):
    """Gather every receptive field of ``x`` into ``(N, C*kh*kw, out_h*out_w)`` columns.

    The windows are a strided view of the (padded) input; the one copy is the
    reshape that lays them out as GEMM columns.  A 1x1 unpadded kernel has
    one-element windows, so its columns are a strided slice of ``x`` itself.
    """
    batch, channels = x.shape[:2]
    out_h, out_w = _output_size(x.shape, kernel_h, kernel_w, stride, padding)
    if kernel_h == 1 and kernel_w == 1 and padding == 0:
        return x[:, :, ::stride, ::stride].reshape(batch, channels, -1), out_h, out_w
    if padding > 0:
        padded = np.zeros(
            (batch, channels, x.shape[2] + 2 * padding, x.shape[3] + 2 * padding), dtype=x.dtype
        )
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    windows = sliding_window_view(x, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, out_h, out_w, kh, kw)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(batch, -1, out_h * out_w)
    return cols, out_h, out_w


def _col2im(cols, x_shape, kernel_h, kernel_w, stride, padding):
    """Scatter-add ``(N, C*kh*kw, out_h*out_w)`` columns back onto the input grid.

    One strided slice-accumulate per kernel offset: within an offset the
    target positions are distinct, so a plain ``+=`` accumulates overlapping
    windows correctly across offsets.
    """
    batch, channels, height, width = x_shape
    out_h, out_w = _output_size(x_shape, kernel_h, kernel_w, stride, padding)
    x_padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    cols = cols.reshape(batch, channels, kernel_h, kernel_w, out_h, out_w)
    for i in range(kernel_h):
        rows = slice(i, i + stride * out_h, stride)
        for j in range(kernel_w):
            x_padded[:, :, rows, j : j + stride * out_w : stride] += cols[:, :, i, j]
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]


class _Conv2d(Function):
    """Convolution as three GEMM-shaped products over the im2col columns.

    With ``F = C*kh*kw`` and ``P = out_h*out_w``: forward ``(O,F) @ (N,F,P)``,
    weight gradient ``(N,O,P) @ (N,P,F)`` summed over ``N``, column gradient
    ``(F,O) @ (N,O,P)``.  Every product comes out contiguous in the layout its
    consumer reads, so the reshapes around them are views.

    Backward re-gathers the columns from the saved input instead of keeping
    them from forward: ``x`` is alive in the graph anyway, while a 3x3
    kernel's columns are nine times its size.  The gather is deterministic,
    so the weight gradient reads the same floats either way.
    """

    def forward(self, x, weight, bias, stride: int, padding: int):
        out_channels, in_channels, kernel_h, kernel_w = weight.shape
        if x.shape[1] != in_channels:
            raise ShapeError(
                f"conv2d input has {x.shape[1]} channels but weight expects {in_channels}"
            )
        cols, out_h, out_w = _im2col(x, kernel_h, kernel_w, stride, padding)
        out = np.matmul(weight.reshape(out_channels, -1), cols)  # (N, O, P)
        if bias is not None:
            out += bias.reshape(1, -1, 1)
        self.save_for_backward(x, weight, stride, padding, bias is not None)
        return out.reshape(x.shape[0], out_channels, out_h, out_w)

    def backward(self, grad):
        x, weight, stride, padding, has_bias = self.saved
        x_shape = x.shape
        out_channels, in_channels, kernel_h, kernel_w = weight.shape
        grad_mat = grad.reshape(grad.shape[0], out_channels, -1)  # (N, O, P)

        cols, _, _ = _im2col(x, kernel_h, kernel_w, stride, padding)
        grad_weight = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
        del cols  # the column gradient below is as large; do not hold both
        grads = [None, grad_weight.reshape(weight.shape)]
        # The stem conv reads raw images: nothing upstream wants grad_x, and it
        # has the largest spatial extent in the net, so do not compute it.
        if self.parents[0].requires_grad:
            grad_cols = np.matmul(weight.reshape(out_channels, -1).T, grad_mat)  # (N, F, P)
            grads[0] = _col2im(grad_cols, x_shape, kernel_h, kernel_w, stride, padding)
        if has_bias:
            grads.append(grad_mat.sum(axis=(0, 2)))
        return tuple(grads[: len(self.parents)])


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-d convolution over an NCHW input."""
    if bias is None:
        return _Conv2d.apply(x, weight, stride=stride, padding=padding, bias=None)
    return _Conv2d.apply(x, weight, bias, stride=stride, padding=padding)


def _pool_cols(x, kernel_size, stride):
    """Per-channel pooling windows as ``(N*C, k*k, out_h*out_w)`` columns."""
    batch, channels, height, width = x.shape
    folded = x.reshape(batch * channels, 1, height, width)
    return _im2col(folded, kernel_size, kernel_size, stride, 0)


def _pool_scatter(grad_cols, x_shape, kernel_size, stride):
    """Inverse of :func:`_pool_cols` for gradients: columns back onto ``x_shape``."""
    batch, channels, height, width = x_shape
    folded = (batch * channels, 1, height, width)
    return _col2im(grad_cols, folded, kernel_size, kernel_size, stride, 0).reshape(x_shape)


class _MaxPool2d(Function):
    def forward(self, x, kernel_size: int, stride: int):
        cols, out_h, out_w = _pool_cols(x, kernel_size, stride)
        argmax = cols.argmax(axis=1)
        out = cols.max(axis=1).reshape(x.shape[0], x.shape[1], out_h, out_w)
        self.save_for_backward(x.shape, cols.shape, argmax, kernel_size, stride)
        return out

    def backward(self, grad):
        x_shape, cols_shape, argmax, kernel_size, stride = self.saved
        grad_cols = np.zeros(cols_shape, dtype=np.float32)
        rows = np.arange(cols_shape[0])[:, None]
        positions = np.arange(cols_shape[2])[None, :]
        grad_cols[rows, argmax, positions] = grad.reshape(cols_shape[0], -1)
        return (_pool_scatter(grad_cols, x_shape, kernel_size, stride),)


class _AvgPool2d(Function):
    def forward(self, x, kernel_size: int, stride: int):
        cols, out_h, out_w = _pool_cols(x, kernel_size, stride)
        out = cols.mean(axis=1).reshape(x.shape[0], x.shape[1], out_h, out_w)
        self.save_for_backward(x.shape, cols.shape, kernel_size, stride)
        return out

    def backward(self, grad):
        x_shape, cols_shape, kernel_size, stride = self.saved
        share = grad.reshape(cols_shape[0], 1, -1) / (kernel_size * kernel_size)
        grad_cols = np.broadcast_to(share, cols_shape)
        return (_pool_scatter(grad_cols, x_shape, kernel_size, stride),)


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    return _MaxPool2d.apply(x, kernel_size=kernel_size, stride=stride or kernel_size)


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    return _AvgPool2d.apply(x, kernel_size=kernel_size, stride=stride or kernel_size)


# ---------------------------------------------------------------------------
# Batch normalisation
# ---------------------------------------------------------------------------
class _BatchNorm(Function):
    """Batch normalisation over the channel axis of (N, C) or (N, C, H, W) input."""

    def forward(self, x, gamma, beta, eps: float, mean_in, var_in):
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
        if mean_in is None:
            # Centre once: the variance is the mean square of the tensor the
            # normalisation needs anyway (x.var would re-derive the mean).
            mean = x.mean(axis=axes, keepdims=True)
            x_hat = x - mean
            var = np.square(x_hat).mean(axis=axes, keepdims=True)
        else:
            mean = mean_in.reshape(shape)
            var = var_in.reshape(shape)
            x_hat = x - mean
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat *= inv_std
        out = gamma.reshape(shape) * x_hat
        out += beta.reshape(shape)
        self.save_for_backward(x_hat, inv_std, gamma, axes, shape)
        self.batch_mean = mean.reshape(-1)
        self.batch_var = var.reshape(-1)
        return out

    def backward(self, grad):
        x_hat, inv_std, gamma, axes, shape = self.saved
        count = np.float32(x_hat.size // gamma.size)
        grad_gamma = (grad * x_hat).sum(axis=axes)
        grad_beta = grad.sum(axis=axes)
        # With g = grad * gamma, the textbook formula's two channel reductions
        # are sum(g) = gamma * grad_beta and sum(g * x_hat) = gamma * grad_gamma:
        # the parameter gradients already in hand.  So
        # grad_x = gamma * inv_std * (grad - grad_beta / m - x_hat * grad_gamma / m).
        grad_x = x_hat * (grad_gamma / -count).reshape(shape)
        grad_x += grad
        grad_x -= (grad_beta / count).reshape(shape)
        grad_x *= gamma.reshape(shape) * inv_std
        return grad_x, grad_gamma, grad_beta


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Optional[np.ndarray] = None,
    running_var: Optional[np.ndarray] = None,
    training: bool = True,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation with optional running-statistics update.

    ``running_mean``/``running_var`` are plain NumPy buffers owned by the
    calling layer; they are updated in place when ``training`` is true.
    """
    if training or running_mean is None:
        out = _BatchNorm.apply(x, gamma, beta, eps=eps, mean_in=None, var_in=None)
        if training and running_mean is not None and out._ctx is not None:
            ctx = out._ctx
            running_mean *= 1.0 - momentum
            running_mean += momentum * ctx.batch_mean
            running_var *= 1.0 - momentum
            running_var += momentum * ctx.batch_var
        return out
    return _BatchNorm.apply(x, gamma, beta, eps=eps, mean_in=running_mean, var_in=running_var)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------
class _Dropout(Function):
    def forward(self, x, p: float, mask):
        self.save_for_backward(mask)
        return x * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


def dropout(
    x: Tensor, p: float, training: bool = True, rng: Optional[np.random.Generator] = None
) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at training time."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    generator = rng if rng is not None else np.random.default_rng()
    mask = (generator.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return _Dropout.apply(x, p=p, mask=mask)


# ---------------------------------------------------------------------------
# Softmax / losses
# ---------------------------------------------------------------------------
def _softmax_forward(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


class _Softmax(Function):
    def forward(self, logits):
        probs = _softmax_forward(logits)
        self.save_for_backward(probs)
        return probs

    def backward(self, grad):
        (probs,) = self.saved
        dot = (grad * probs).sum(axis=-1, keepdims=True)
        return (probs * (grad - dot),)


class _LogSoftmax(Function):
    def forward(self, logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        self.save_for_backward(np.exp(log_probs))
        return log_probs

    def backward(self, grad):
        (probs,) = self.saved
        return (grad - probs * grad.sum(axis=-1, keepdims=True),)


class _CrossEntropy(Function):
    """Fused softmax + negative log-likelihood, averaged over the batch."""

    def forward(self, logits, targets):
        if logits.ndim != 2:
            raise ShapeError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
        targets = np.asarray(targets).astype(np.int64).reshape(-1)
        if targets.shape[0] != logits.shape[0]:
            raise ShapeError(
                f"cross_entropy got {logits.shape[0]} logits rows but {targets.shape[0]} targets"
            )
        probs = _softmax_forward(logits)
        batch = logits.shape[0]
        clipped = np.clip(probs[np.arange(batch), targets], 1e-12, None)
        loss = -np.log(clipped).mean()
        self.save_for_backward(probs, targets)
        return np.asarray(loss, dtype=np.float32)

    def backward(self, grad):
        probs, targets = self.saved
        batch = probs.shape[0]
        grad_logits = probs.copy()
        grad_logits[np.arange(batch), targets] -= 1.0
        grad_logits /= batch
        return (grad_logits * grad,)


def softmax(logits: Tensor) -> Tensor:
    return _Softmax.apply(logits)


def log_softmax(logits: Tensor) -> Tensor:
    return _LogSoftmax.apply(logits)


def cross_entropy(logits: Tensor, targets: Union[np.ndarray, Sequence[int]]) -> Tensor:
    """Mean softmax cross-entropy loss over a batch of integer class labels."""
    return _CrossEntropy.apply(logits, targets=np.asarray(targets))


def nll_loss(log_probs: Tensor, targets: Union[np.ndarray, Sequence[int]]) -> Tensor:
    """Negative log-likelihood of integer targets given log-probabilities."""
    targets = np.asarray(targets).astype(np.int64).reshape(-1)
    batch = log_probs.shape[0]
    one_hot = np.zeros(log_probs.shape, dtype=np.float32)
    one_hot[np.arange(batch), targets] = -1.0 / batch
    picked = mul(log_probs, Tensor(one_hot))
    return sum(picked)
