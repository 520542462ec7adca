"""Core tensor type with reverse-mode automatic differentiation.

The design mirrors the classic "define-by-run" autograd used by PyTorch: every
operator is a :class:`Function` with a ``forward`` (NumPy math) and a
``backward`` (vector-Jacobian product).  Applying a function links the output
tensor to its inputs, and :meth:`Tensor.backward` walks this graph in reverse
topological order, accumulating gradients into ``Tensor.grad``.

Only float32 data participates in differentiation; integer tensors (labels) are
carried as plain ``numpy.ndarray`` arguments to the loss functions.
"""

from __future__ import annotations

import contextlib
import threading
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GradientError

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Per-thread gradient switch: every thread starts with recording on.

    Thread-local so that a server evaluating under :func:`no_grad` on one
    thread cannot switch recording off under a learner training on another.
    """

    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record gradient information."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Disable gradient recording on the calling thread (used for evaluation)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward(*arrays, **kwargs) -> ndarray`` and
    ``backward(grad_output) -> tuple`` where the tuple has one entry per tensor
    input (``None`` for inputs that do not need a gradient).
    """

    def __init__(self, *parents: "Tensor") -> None:
        self.parents: Tuple[Tensor, ...] = parents
        self.saved: Tuple = ()

    def save_for_backward(self, *items) -> None:
        self.saved = items

    def forward(self, *args, **kwargs) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray):  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs) -> "Tensor":
        """Run the forward pass and, if needed, attach the autograd context."""
        tensor_inputs = tuple(a for a in args if isinstance(a, Tensor))
        ctx = cls(*tensor_inputs)
        raw = [a.data if isinstance(a, Tensor) else a for a in args]
        output = ctx.forward(*raw, **kwargs)
        requires = _grad_mode.enabled and any(t.requires_grad for t in tensor_inputs)
        return Tensor(output, requires_grad=requires, _ctx=ctx if requires else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class Tensor:
    """An n-dimensional float32 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_ctx")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor ops

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _ctx: Optional[Function] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype != np.float32:
            array = array.astype(np.float32)
        self.data: np.ndarray = array
        self.requires_grad: bool = bool(requires_grad) and _grad_mode.enabled
        self.grad: Optional[np.ndarray] = None
        self._ctx: Optional[Function] = _ctx

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(array, requires_grad=requires_grad)

    # -- basic properties ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # -- autograd --------------------------------------------------------------
    def backward(self, grad_output: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise GradientError("backward() called on a tensor that does not require grad")
        if grad_output is None:
            if self.data.size != 1:
                raise GradientError("grad_output must be provided for non-scalar outputs")
            grad_output = np.ones_like(self.data)
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if grad_output.shape != self.data.shape:
            raise GradientError(
                f"grad_output shape {grad_output.shape} does not match tensor shape {self.data.shape}"
            )

        ordering = self._topological_order()
        grads = {id(self): grad_output}
        for node in ordering:
            ctx = node._ctx
            grad = grads.pop(id(node), None)
            if ctx is None or grad is None:
                if node.requires_grad and node._ctx is None and grad is not None:
                    node.grad = grad if node.grad is None else node.grad + grad
                continue
            parent_grads = ctx.backward(grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            if len(parent_grads) != len(ctx.parents):
                raise GradientError(
                    f"{type(ctx).__name__}.backward returned {len(parent_grads)} grads "
                    f"for {len(ctx.parents)} inputs"
                )
            for parent, parent_grad in zip(ctx.parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                parent_grad = np.asarray(parent_grad, dtype=np.float32)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    def _topological_order(self) -> List["Tensor"]:
        """Return tensors reachable from ``self`` in reverse topological order."""
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        order.reverse()
        return order

    # -- operator overloads (implemented in functional.py, bound lazily) -------
    def __add__(self, other):
        from repro.tensor import functional as F

        return F.add(self, _ensure_tensor(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        from repro.tensor import functional as F

        return F.sub(self, _ensure_tensor(other))

    def __rsub__(self, other):
        from repro.tensor import functional as F

        return F.sub(_ensure_tensor(other), self)

    def __mul__(self, other):
        from repro.tensor import functional as F

        return F.mul(self, _ensure_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        from repro.tensor import functional as F

        return F.div(self, _ensure_tensor(other))

    def __rtruediv__(self, other):
        from repro.tensor import functional as F

        return F.div(_ensure_tensor(other), self)

    def __neg__(self):
        from repro.tensor import functional as F

        return F.neg(self)

    def __pow__(self, exponent):
        from repro.tensor import functional as F

        return F.power(self, float(exponent))

    def __matmul__(self, other):
        from repro.tensor import functional as F

        return F.matmul(self, _ensure_tensor(other))

    # -- common shape / reduction helpers --------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        from repro.tensor import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def flatten(self) -> "Tensor":
        return self.reshape(self.shape[0], -1)

    def transpose(self, *axes: int) -> "Tensor":
        from repro.tensor import functional as F

        return F.transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def relu(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.relu(self)

    def exp(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.exp(self)

    def log(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.log(self)


def _ensure_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that NumPy broadcasting introduced.

    Needed so that e.g. the gradient of a bias vector added to a (N, C) matrix
    has shape (C,), not (N, C).
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)
