"""The cluster coordinator: node scheduling, messaging, coordinated C/R.

A coordinated checkpoint is a set of ordinary protected generations —
one per unfinished node, captured and uploaded the way both HA planes
protect a VM — plus one small *cut record* naming them.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import tempfile
import weakref
from collections import deque
from typing import Optional, Sequence

from repro.arch.platforms import Platform, get_platform
from repro.bytecode.image import CodeImage
from repro.checkpoint.generation import CommitTailer
from repro.errors import CheckpointFormatError, ReproError, RestartError
from repro.store.fleet.client import FleetClient
from repro.store.ha import manifest_meta, protected_config, restore_generation
from repro.vm import VirtualMachine, VMConfig


class ClusterDeadlock(ReproError):
    """Every unfinished node is waiting to receive and no message is in
    flight."""


class _Binding:
    """The per-VM view of the cluster (what the prims talk to).

    The cluster owns its nodes' VMs, so a VM refers to it weakly.
    """

    def __init__(self, cluster: "Cluster", rank: int) -> None:
        self._cluster = weakref.ref(cluster)
        self.rank = rank

    @property
    def size(self) -> int:
        return len(self._cluster().nodes)

    def send(self, dest: int, payload: bytes) -> None:
        self._cluster().deliver(self.rank, dest, payload)

    def recv(self) -> Optional[bytes]:
        mailbox = self._cluster().nodes[self.rank].mailbox
        if mailbox:
            return mailbox.popleft()
        return None


class ClusterNode:
    """One node: a VM plus its mailbox and run state."""

    def __init__(self, rank: int, vm: VirtualMachine, path: str) -> None:
        self.rank = rank
        self.vm = vm
        #: Captures the node's generations at its local chain ``path``.
        self.tailer = CommitTailer(vm, path)
        #: Marshaled messages awaiting receipt (portable bytes, so the
        #: sender's and receiver's architectures never have to match).
        self.mailbox: deque[bytes] = deque()
        #: "runnable" | "waiting" (yielded on empty mailbox) | "finished"
        self.state = "runnable"
        self.exit_status: Optional[str] = None


class Cluster:
    """N message-passing VMs driven round-robin by one coordinator."""

    def __init__(
        self,
        code: CodeImage,
        platforms: Sequence[Platform | str],
        config: Optional[VMConfig] = None,
        slice_instructions: int = 20_000,
    ) -> None:
        self.code = code
        self.slice_instructions = slice_instructions
        self.steps = 0
        self.messages_sent = 0
        # The nodes' local checkpoint chains: the throwaway files their
        # captures commit and protect() uploads, gone with the cluster.
        self._chains = tempfile.mkdtemp(prefix="repro-cluster-")
        weakref.finalize(self, shutil.rmtree, self._chains, True)
        self.nodes: list[ClusterNode] = []
        for p in platforms:
            self._adopt(
                VirtualMachine(get_platform(p), code, protected_config(config))
            )

    def _adopt(self, vm: VirtualMachine) -> ClusterNode:
        """Make ``vm`` the next rank's node."""
        rank = len(self.nodes)
        path = os.path.join(self._chains, f"node{rank}.hckp")
        node = ClusterNode(rank, vm, path)
        vm.cluster = _Binding(self, node.rank)
        self.nodes.append(node)
        return node

    # -- messaging -----------------------------------------------------------

    def deliver(self, src: int, dest: int, payload: bytes) -> None:
        """Enqueue a marshaled message and wake the destination."""
        if not 0 <= dest < len(self.nodes):
            raise ReproError(f"send to unknown rank {dest}")
        node = self.nodes[dest]
        node.mailbox.append(payload)
        if node.state == "waiting":
            node.state = "runnable"
        self.messages_sent += 1

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Give every runnable node one slice; returns True if any ran."""
        self.steps += 1
        progressed = False
        for node in self.nodes:
            if node.state != "runnable":
                continue
            progressed = True
            result = node.vm.run(max_instructions=self.slice_instructions)
            if result.status in ("stopped", "exited"):
                node.state = "finished"
                node.exit_status = result.status
            elif result.status == "yielded":
                # recv on empty mailbox; a message may have landed during
                # the same slice, in which case it stays runnable.
                if not node.mailbox:
                    node.state = "waiting"
            # "budget": stays runnable.
        return progressed

    def run(self, max_steps: int = 100_000) -> None:
        """Drive all nodes to completion (raises on deadlock)."""
        for _ in range(max_steps):
            if all(n.state == "finished" for n in self.nodes):
                return
            if not self.step():
                waiting = [n.rank for n in self.nodes if n.state == "waiting"]
                raise ClusterDeadlock(
                    f"nodes {waiting} are all waiting to receive and no "
                    f"message is in flight"
                )
        raise ReproError("cluster run exceeded max_steps")

    @property
    def finished(self) -> bool:
        return all(n.state == "finished" for n in self.nodes)

    def stdout(self, rank: int) -> bytes:
        """Captured stdout of one node."""
        return self.nodes[rank].vm.channels.stdout_bytes()

    # -- coordinated checkpointing -----------------------------------------------

    def protect(self, client: FleetClient, cluster_id: str) -> int:
        """Coordinated checkpoint to the store; returns the cut's generation.

        All nodes are between slices, i.e. at safe points — the easy
        consistency the paper describes for multi-threaded programs
        ("stop all threads, take the checkpoint") lifted to whole VMs.
        Each unfinished node's capture goes up as the next generation of
        ``<cluster_id>/<rank>`` (after its first full, a delta).  The cut
        record goes up last, as the next generation of ``cluster_id``:
        per rank the node generation (``None`` once finished), the run
        state, the in-flight messages as portable marshaled bytes and
        the cumulative stdout.  The cut is the commit point — a crash
        before it leaves node generations that no cut names.
        """
        nodes = []
        for node in self.nodes:
            generation = None
            if node.state != "finished":
                rec = node.tailer.capture()
                generation, _stats = client.put_checkpoint(
                    f"{cluster_id}/{node.rank}",
                    rec.data,
                    meta=manifest_meta(rec, node.vm.platform),
                )
            nodes.append({
                "generation": generation,
                "state": node.state,
                "mailbox": [_b64(m) for m in node.mailbox],
                "stdout": _b64(node.vm.channels.stdout_bytes()),
            })
        cut = json.dumps({"nodes": nodes}).encode()
        generation, _stats = client.put_checkpoint(
            cluster_id, cut, meta={"kind": "cut", "nodes": len(nodes)}
        )
        return generation


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def _cut_entry(entry: dict) -> tuple:
    """One rank of a cut record: (generation, state, mailbox, stdout)."""
    generation, state = entry["generation"], entry["state"]
    if not (generation is None or type(generation) is int) or state not in (
        "runnable", "waiting", "finished"
    ):
        raise ValueError(f"bad node entry ({generation!r}, {state!r})")
    return (
        generation,
        state,
        deque(base64.b64decode(m, validate=True) for m in entry["mailbox"]),
        base64.b64decode(entry["stdout"], validate=True),
    )


def restore_cluster(
    code: CodeImage,
    client: FleetClient,
    cluster_id: str,
    platforms: Sequence[Platform | str],
    generation: Optional[int] = None,
    slice_instructions: int = 20_000,
) -> Cluster:
    """Restore a coordinated checkpoint, re-placing every node.

    Reads the cut (the newest, or ``generation``) and restores exactly
    the node generations it names.  ``platforms[rank]`` names the
    machine node ``rank`` restarts on — it need not match the machine
    it was checkpointed on.  Raises
    :class:`~repro.errors.StoreNotFoundError` for an unknown id,
    :class:`~repro.errors.CheckpointFormatError` when the payload is
    not a cut, and a damaged node generation's own
    :class:`~repro.errors.RestartError`: a cut cannot mix generations,
    so no node falls back to an older one.
    """
    payload, manifest = client.get_checkpoint(cluster_id, generation)
    try:
        entries = [_cut_entry(e) for e in json.loads(payload)["nodes"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(
            f"vm {cluster_id!r} generation {manifest.generation} is not a "
            f"cluster cut: {exc}"
        ) from exc
    if len(platforms) != len(entries):
        raise RestartError(
            f"checkpoint has {len(entries)} nodes, {len(platforms)} "
            f"platforms given"
        )
    cluster = Cluster(code, (), slice_instructions=slice_instructions)
    for rank, (node_gen, state, mailbox, stdout) in enumerate(entries):
        config = protected_config(None)
        if node_gen is None:
            # The node had already finished; an idle VM stands in.
            vm = VirtualMachine(get_platform(platforms[rank]), code, config)
            vm.channels.prefill_stdout(stdout)
        else:
            vm, _depth = restore_generation(
                client, f"{cluster_id}/{rank}", code, platforms[rank],
                config, generation=node_gen,
            )
        node = cluster._adopt(vm)
        node.mailbox = mailbox
        node.state = "runnable" if state == "waiting" and mailbox else state
    return cluster
