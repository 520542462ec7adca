"""Named-array archives: save and restore arrays plus metadata as ``.npz`` files.

:func:`save_arrays` / :func:`load_arrays` write and read named arrays (a
module's ``state_dict``, say) with a JSON metadata side channel of scalars
such as the epoch, in NumPy's portable ``.npz`` format.  The
:class:`~repro.serve.checkpoint.CheckpointStore` spills evicted central-model
snapshots through them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import CheckpointError

_METADATA_KEY = "__metadata_json__"


def npz_path(path: Union[str, Path]) -> Path:
    """The path NumPy actually writes for ``np.savez(path)``.

    Mirrors NumPy's rule exactly — append ``.npz`` iff the path does not
    already end with it — instead of reconstructing the name from
    ``Path.suffix``, which diverges for multi-suffix names (``ckpt.tmp``)
    and names without a stem (a file literally called ``.npz``, whose
    ``suffix`` is empty even though NumPy appends nothing).
    """
    path = Path(path)
    return path if str(path).endswith(".npz") else Path(str(path) + ".npz")


def save_arrays(
    path: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    metadata: Optional[Dict[str, float]] = None,
) -> Path:
    """Write named arrays plus a JSON metadata blob to ``path`` (.npz).

    Returns the path of the file NumPy wrote (always ``*.npz``), creating
    parent directories as needed.
    """
    if _METADATA_KEY in arrays:
        raise CheckpointError(f"array name {_METADATA_KEY!r} is reserved for metadata")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(metadata or {})
    blob = np.frombuffer(payload.encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays, **{_METADATA_KEY: blob})
    return npz_path(path)


def load_arrays(
    path: Union[str, Path],
    required_metadata: Iterable[str] = (),
) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """Load an archive written by :func:`save_arrays`.

    Returns ``(arrays, metadata)``.  A bare path saved without the ``.npz``
    suffix resolves to the file NumPy actually wrote.  Every key in
    ``required_metadata`` must be present in the metadata dictionary, else a
    :class:`~repro.errors.CheckpointError` names the missing keys — callers
    never see a raw ``KeyError`` for a checkpoint written before a metadata
    field existed.
    """
    path = Path(path)
    if not path.exists():
        normalised = npz_path(path)
        if normalised.exists():
            path = normalised
        else:
            raise CheckpointError(f"no checkpoint at {path} (nor {normalised})")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    metadata_blob = arrays.pop(_METADATA_KEY, None)
    metadata: Dict[str, float] = {}
    if metadata_blob is not None:
        metadata = json.loads(bytes(metadata_blob.tolist()).decode("utf-8"))
    missing = [key for key in required_metadata if key not in metadata]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} is missing metadata key(s) {missing}; "
            f"present keys: {sorted(metadata)}"
        )
    return arrays, metadata
