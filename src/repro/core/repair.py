"""Repair of crashed back-end (L2) servers.

The paper's conclusion lists "repair of erasure-coded servers in L2" as
future work and observes that the modularity of the layered design should
make it simpler than the single-layer repair problem of RADON [18].  This
module provides that extension: a recovery coordinator that rebuilds the
(tag, coded element) pair of a crashed L2 server from the surviving L2
servers, using exactly the regenerating-code repair machinery that already
powers ``regenerate-from-L2`` -- the helper data for an L2 symbol is
computed from each survivor's stored element and the identity of the
crashed server only, and any ``d`` helpers with a common tag suffice.

Because concurrent ``write-to-L2`` operations may leave the surviving
servers holding different tags, the coordinator repairs the *highest tag
held by at least d survivors*.  By the protocol's L2-quorum rule
(``n2 - f2 = f2 + d`` acknowledgements before a value is considered
offloaded), any tag whose offload completed is held by at least ``d``
survivors even after ``f2`` additional crashes are excluded, so a
completed write is never lost by repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.codes.base import CodedElement, RepairError
from repro.core.system import LDSSystem
from repro.core.server_l2 import L2Server
from repro.core.tags import Tag


@dataclass(frozen=True)
class L2RepairReport:
    """Outcome of one back-end repair operation."""

    repaired_index: int
    restored_tag: Tag
    helpers_used: List[int]
    #: Normalised download volume (beta / B per helper, so d * beta / B total).
    download_fraction: float


class BackendRepairCoordinator:
    """Rebuilds crashed L2 servers of an :class:`~repro.core.system.LDSSystem`.

    The coordinator plays the role of the replacement server: it gathers
    helper data from surviving L2 servers, regenerates the lost coded
    element exactly (product-matrix codes are exact-repair), installs a
    fresh :class:`~repro.core.server_l2.L2Server` process under the same
    process id, and returns a report of what was moved.
    """

    def __init__(self, system: LDSSystem) -> None:
        self.system = system
        self.code = system.code
        self.config = system.config

    # -- queries -----------------------------------------------------------------

    def survivor_elements(self) -> Dict[int, L2Server]:
        """Alive L2 servers keyed by index."""
        return {server.index: server for server in self.system.l2_servers
                if not server.crashed}

    # -- repair -------------------------------------------------------------------

    def _select_repair_tag(self, survivors: Dict[int, L2Server]) -> Tag:
        """The highest tag held by at least d survivors."""
        counts: Dict[Tag, int] = {}
        for server in survivors.values():
            counts[server.stored_tag] = counts.get(server.stored_tag, 0) + 1
        candidates = [tag for tag, count in counts.items() if count >= self.config.d]
        if not candidates:
            raise RepairError(
                "no tag is held by d surviving L2 servers; repair is not possible "
                "until in-flight write-to-L2 operations settle"
            )
        return max(candidates)

    def repair(self, failed_index: int) -> L2RepairReport:
        """Rebuild the coded element of L2 server ``failed_index``.

        Raises :class:`RepairError` when the server is not crashed, when too
        many servers are down, or when no tag is common to ``d`` survivors.
        """
        servers = self.system.l2_servers
        if not 0 <= failed_index < self.config.n2:
            raise RepairError(f"no such L2 server index {failed_index}")
        if not servers[failed_index].crashed:
            raise RepairError(f"L2 server {failed_index} has not crashed")
        survivors = self.survivor_elements()
        if len(survivors) < self.config.d:
            raise RepairError(
                f"repair needs d={self.config.d} surviving L2 servers, "
                f"only {len(survivors)} are alive"
            )
        repair_tag = self._select_repair_tag(survivors)
        helpers: Dict[int, bytes] = {}
        failed_symbol = self.code.l2_symbol_index(failed_index)
        for index, server in sorted(survivors.items()):
            if server.stored_tag != repair_tag:
                continue
            # The target is an L2 symbol, so this is the code's own
            # single-target entry, not the L2 server's memo of L1 targets.
            symbol = self.code.l2_symbol_index(index)
            helpers[symbol] = self.code.code.helper_data(
                symbol, server.stored_element.data, failed_symbol)
            if len(helpers) == self.config.d:
                break
        repaired = self.code.code.repair(failed_symbol, helpers)
        self._install_replacement(failed_index, repair_tag, repaired)
        download = float(self.code.costs.helper_fraction) * len(helpers)
        return L2RepairReport(
            repaired_index=failed_index,
            restored_tag=repair_tag,
            helpers_used=sorted(
                index - self.config.n1 for index in helpers
            ),
            download_fraction=download,
        )

    # -- internals -------------------------------------------------------------------

    def _install_replacement(self, index: int, tag: Tag, element: CodedElement) -> None:
        """Replace the crashed process with a fresh one holding the repaired pair."""
        pid = self.config.l2_pid(index)
        replacement = L2Server(
            pid=pid, index=index, code=self.code, initial_tag=tag,
            initial_element=element, storage_tracker=self.system.storage,
        )
        # Swap the process in the network registry and the system's server list.
        self.system.network.processes[pid] = replacement
        replacement.attach(self.system.network)
        self.system.l2_servers[index] = replacement


__all__ = ["BackendRepairCoordinator", "L2RepairReport"]
