"""Interconnect topology of the multi-GPU server.

The paper's testbed connects 8 Titan X GPUs over PCIe 3.0 (x16) in a two-socket
binary-tree layout: GPU pairs hang off PCI switches, switch pairs hang off a
PCI host bridge per CPU socket (§2.2).  Crossings of the tree (switch, host
bridge, QPI) reduce the effective point-to-point bandwidth.  The topology
object exposes exactly what the all-reduce cost model needs: the bottleneck
bandwidth and latency along the ring that the collective builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Interconnect:
    """A point-to-point link class with bandwidth (bytes/s) and latency (s)."""

    name: str
    bandwidth: float
    latency: float


PCIE_SWITCH = Interconnect("pcie-switch", 12e9, 5e-6)
PCIE_HOST_BRIDGE = Interconnect("pcie-host-bridge", 10e9, 8e-6)
QPI = Interconnect("qpi", 8e9, 12e-6)


@dataclass
class Topology:
    """Pairwise link assignment between GPUs in one server."""

    num_gpus: int
    links: Dict[Tuple[int, int], Interconnect] = field(default_factory=dict)
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError("topology needs at least one GPU")

    def link(self, a: int, b: int) -> Interconnect:
        """The link class used for traffic between GPUs ``a`` and ``b``."""
        if a == b:
            raise ConfigurationError("no link from a GPU to itself")
        self._check(a)
        self._check(b)
        key = (min(a, b), max(a, b))
        if key not in self.links:
            raise ConfigurationError(f"no link registered between GPUs {a} and {b}")
        return self.links[key]

    def _check(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise ConfigurationError(f"GPU index {gpu} out of range (0..{self.num_gpus - 1})")

    def ring_order(self) -> List[int]:
        """GPU visitation order used by the ring all-reduce (identity order)."""
        return list(range(self.num_gpus))

    def ring_bottleneck(self) -> Interconnect:
        """The slowest link along the ring, which bounds collective bandwidth."""
        order = self.ring_order()
        if len(order) == 1:
            return PCIE_SWITCH
        worst = None
        for index, gpu in enumerate(order):
            neighbour = order[(index + 1) % len(order)]
            link = self.link(gpu, neighbour)
            if worst is None or link.bandwidth < worst.bandwidth:
                worst = link
        return worst


def pcie_tree_topology(num_gpus: int) -> Topology:
    """Binary PCIe tree: pairs on switches, quads on host bridges, sockets over QPI."""
    if num_gpus < 1:
        raise ConfigurationError("need at least one GPU")
    links: Dict[Tuple[int, int], Interconnect] = {}
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            if a // 2 == b // 2:
                link = PCIE_SWITCH
            elif a // 4 == b // 4:
                link = PCIE_HOST_BRIDGE
            else:
                link = QPI
            links[(a, b)] = link
    return Topology(num_gpus=num_gpus, links=links, name=f"pcie-tree-{num_gpus}")
