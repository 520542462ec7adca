"""Module/parameter containers, the building blocks of every model replica.

A Crossbow *model replica* is just a :class:`Module` instance whose parameters
live in their own memory.  Replicas are cloned, flattened into contiguous
vectors (the paper keeps weights and gradients in contiguous memory, §4.4) and
exchanged with the synchronisation algorithms via
:meth:`Module.parameter_vector` / :meth:`Module.load_parameter_vector`.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a trainable model weight (always requires grad)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter`, buffer arrays and child ``Module``
    instances as attributes; registration happens automatically through
    ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_flat_parameters", None)
        object.__setattr__(self, "training", True)

    # -- attribute registration -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register a non-trainable state array (e.g. batch-norm running stats)."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- forward -----------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal ----------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    # -- train / eval mode ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradients -------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- serialisation ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter and buffer keyed by dotted path."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for key, value in state.items():
            if key.startswith("buffer:"):
                name = key[len("buffer:") :]
                if name not in buffers:
                    raise KeyError(f"unknown buffer {name!r} in state dict")
                buffers[name][...] = value
            else:
                if key not in params:
                    raise KeyError(f"unknown parameter {key!r} in state dict")
                if params[key].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: model has {params[key].data.shape}, "
                        f"state dict has {value.shape}"
                    )
                params[key].data[...] = value

    # -- flat-vector view (used by SMA / replica synchronisation) -----------------------
    def num_parameters(self) -> int:
        return int(sum(param.data.size for param in self.parameters()))

    def has_attached_storage(self) -> bool:
        """Whether the parameters are views into an external flat buffer."""
        return getattr(self, "_flat_parameters", None) is not None

    def attach_parameter_storage(self, flat: np.ndarray, copy: bool = True) -> "Module":
        """Rebind every parameter to a view into ``flat`` (the replica bank row).

        ``flat`` must be a contiguous float32 vector of exactly
        :meth:`num_parameters` elements.  With ``copy=True`` (default) the
        module's current parameter values are copied into ``flat`` first, so
        the rebinding is value-preserving.  With ``copy=False`` the values
        already in ``flat`` are *adopted* instead — nothing is written to the
        storage — which is what a worker process needs when it re-binds to a
        re-packed bank row or to the pipelined back buffer whose contents are
        the truth.  Afterwards ``flat`` is the single source of truth for the
        weights: writing into it (e.g. a fused ``(k, P)`` SMA update) is
        immediately visible to the forward pass, and in-place optimiser
        updates (``param.data += ...``) write straight into ``flat``.
        """
        flat = np.asarray(flat)
        expected = self.num_parameters()
        if flat.ndim != 1 or flat.size != expected:
            raise ValueError(
                f"flat storage has shape {flat.shape}, model expects ({expected},)"
            )
        if flat.dtype != np.float32 or not flat.flags["C_CONTIGUOUS"]:
            raise ValueError("flat storage must be contiguous float32")
        offset = 0
        for param in self.parameters():
            size = param.data.size
            view = flat[offset : offset + size].reshape(param.data.shape)
            if copy:
                view[...] = param.data
            param.data = view
            offset += size
        object.__setattr__(self, "_flat_parameters", flat)
        return self

    def detach_parameter_storage(self) -> "Module":
        """Give every parameter back its own private memory (undo attach)."""
        for param in self.parameters():
            param.data = np.array(param.data, dtype=np.float32, copy=True)
        object.__setattr__(self, "_flat_parameters", None)
        return self

    def parameter_vector(self, copy: bool = True) -> np.ndarray:
        """All parameters as one contiguous float32 vector.

        With attached flat storage this is a single block copy — or, with
        ``copy=False``, the zero-copy storage view itself (mutating it mutates
        the model).  Without attached storage a fresh array is always returned.
        """
        flat = getattr(self, "_flat_parameters", None)
        if flat is not None:
            return flat.copy() if copy else flat
        params = self.parameters()
        if not params:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate([param.data.reshape(-1) for param in params])

    def load_parameter_vector(self, vector: np.ndarray) -> None:
        """Scatter a flat vector back into the individual parameter arrays."""
        expected = self.num_parameters()
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.size != expected:
            raise ValueError(
                f"parameter vector has {vector.size} elements, model expects {expected}"
            )
        flat = getattr(self, "_flat_parameters", None)
        if flat is not None:
            if vector is not flat:
                flat[...] = vector
            return
        offset = 0
        for param in self.parameters():
            size = param.data.size
            param.data[...] = vector[offset : offset + size].reshape(param.data.shape)
            offset += size

    def gradient_vector(self, out: Optional[np.ndarray] = None, backend=None) -> np.ndarray:
        """All gradients as one flat vector (zeros where grad is None).

        ``out`` lets callers gather gradients into a pre-allocated buffer (a
        row of the trainer's ``(k, P)`` gradient matrix) without allocating.
        ``backend`` routes the gather through a
        :class:`~repro.tensor.backend.KernelBackend` (one of the dense hot
        paths the backend protocol covers); ``None`` keeps the inline
        reference copy loop, which is what the numpy provider does too.
        Operators return parameter gradients C-contiguous, so each segment
        copy is a memcpy.
        """
        expected = self.num_parameters()
        if out is None:
            out = np.empty(expected, dtype=np.float32)
        elif out.shape != (expected,) or out.dtype != np.float32:
            raise ValueError(
                f"gradient buffer has shape {out.shape}/{out.dtype}, "
                f"expected ({expected},) float32"
            )
        if backend is not None:
            return backend.gather(
                ((param.grad, param.data.size) for param in self.parameters()), out
            )
        offset = 0
        for param in self.parameters():
            size = param.data.size
            chunk = out[offset : offset + size]
            if param.grad is None:
                chunk[...] = 0.0
            else:
                chunk[...] = param.grad.reshape(-1)
            offset += size
        return out

    def clone(self) -> "Module":
        """Deep-copy the module (fresh parameter memory, same values)."""
        cloned = copy.deepcopy(self)
        # deepcopy materialises each parameter view as private memory, so the
        # clone must not keep claiming it aliases the original's flat storage.
        object.__setattr__(cloned, "_flat_parameters", None)
        return cloned

    def parameter_bytes(self) -> int:
        """Model size in bytes (float32), the quantity reported in Table 1."""
        return self.num_parameters() * 4

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        if not child_lines:
            return f"{type(self).__name__}()"
        body = "\n".join(child_lines)
        return f"{type(self).__name__}(\n{body}\n)"


class Sequential(Module):
    """Run child modules in order, feeding each output to the next layer."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layer_names: List[str] = []
        for index, layer in enumerate(layers):
            name = f"layer{index}"
            setattr(self, name, layer)
            self.layer_names.append(name)

    def forward(self, x):
        for name in self.layer_names:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self.layer_names)

    def __iter__(self):
        return (getattr(self, name) for name in self.layer_names)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self.layer_names[index])

    def append(self, layer: Module) -> "Sequential":
        name = f"layer{len(self.layer_names)}"
        setattr(self, name, layer)
        self.layer_names.append(name)
        return self
