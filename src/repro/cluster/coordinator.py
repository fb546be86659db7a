"""The cluster coordinator: node scheduling, messaging, coordinated C/R."""

from __future__ import annotations

import os
import struct
import weakref
import zlib
from collections import deque
from typing import Optional, Sequence

from repro.arch.platforms import Platform, get_platform
from repro.bytecode.image import CodeImage
from repro.checkpoint.reader import restart_vm
from repro.errors import CheckpointFormatError, ReproError, RestartError
from repro.vm import VirtualMachine, VMConfig

_MANIFEST_MAGIC = b"RCLU\x01"


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

    def __init__(self, rank: int, vm: VirtualMachine) -> None:
        self.rank = rank
        self.vm = vm
        #: Marshaled messages awaiting receipt (portable bytes, so the
        #: sender's and receiver's architectures never have to match).
        self.mailbox: deque[bytes] = deque()
        #: "runnable" | "waiting" (yielded on empty mailbox) | "finished"
        self.state = "runnable"
        self.exit_status: Optional[str] = None

    def bind(self, cluster: "Cluster") -> None:
        self.vm.cluster = _Binding(cluster, self.rank)


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
        self.nodes: list[ClusterNode] = []
        self._base_config = config or VMConfig(chkpt_state="disable")
        for rank, p in enumerate(platforms):
            vm = VirtualMachine(get_platform(p), code, self._node_config())
            node = ClusterNode(rank, vm)
            node.bind(self)
            self.nodes.append(node)
        self.steps = 0
        self.messages_sent = 0

    def _node_config(self) -> VMConfig:
        c = self._base_config
        return VMConfig(
            chkpt_state="disable",  # node checkpoints go via the coordinator
            minor_words=c.minor_words,
            chunk_words=c.chunk_words,
            stack_words=c.stack_words,
            quantum=c.quantum,
        )

    @classmethod
    def _adopt(cls, code: CodeImage, nodes: list[ClusterNode],
               slice_instructions: int) -> "Cluster":
        self = cls.__new__(cls)
        self.code = code
        self.slice_instructions = slice_instructions
        self.nodes = nodes
        self._base_config = VMConfig(chkpt_state="disable")
        for node in nodes:
            node.bind(self)
        self.steps = 0
        self.messages_sent = 0
        return self

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

    def checkpoint(self, directory: str) -> None:
        """Coordinated checkpoint: every node + every in-flight message.

        All nodes are between slices, i.e. at safe points — the easy
        consistency the paper describes for multi-threaded programs
        ("stop all threads, take the checkpoint") lifted to whole VMs.
        In-flight messages live in the manifest as portable marshaled
        bytes, so no channel state can be lost or duplicated.
        """
        os.makedirs(directory, exist_ok=True)
        body = bytearray(_MANIFEST_MAGIC)
        body += struct.pack("<I", len(self.nodes))
        for node in self.nodes:
            vm = node.vm
            ckpt_name = f"node{node.rank}.hckp"
            # Flush stdout first, so the node checkpoint carries an empty
            # output buffer and the manifest carries the full output —
            # restart prefills the new sink, avoiding replay duplication.
            vm.channels.stdout.flush()
            if node.state == "finished":
                ckpt_name = ""
            else:
                vm.config.chkpt_state = "enable"
                vm.config.chkpt_filename = os.path.join(directory, ckpt_name)
                vm.config.chkpt_mode = "blocking"
                vm.perform_checkpoint()
                vm.config.chkpt_state = "disable"
            name_raw = ckpt_name.encode()
            state_raw = node.state.encode()
            stdout_raw = vm.channels.stdout_bytes()
            body += struct.pack("<I", node.rank)
            body += struct.pack("<I", len(name_raw)) + name_raw
            body += struct.pack("<I", len(state_raw)) + state_raw
            body += struct.pack("<I", len(stdout_raw)) + stdout_raw
            body += struct.pack("<I", len(node.mailbox))
            for msg in node.mailbox:
                body += struct.pack("<I", len(msg)) + msg
        body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
        tmp = os.path.join(directory, "manifest.tmp")
        with open(tmp, "wb") as f:
            f.write(body)
        os.replace(tmp, os.path.join(directory, "manifest.rclu"))


def restart_cluster(
    code: CodeImage,
    directory: str,
    platforms: Sequence[Platform | str],
    slice_instructions: int = 20_000,
) -> Cluster:
    """Restore a coordinated checkpoint, re-placing every node.

    ``platforms[rank]`` names the machine node ``rank`` restarts on —
    it need not match the machine it was checkpointed on.
    """
    path = os.path.join(directory, "manifest.rclu")
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(_MANIFEST_MAGIC)] != _MANIFEST_MAGIC:
        raise CheckpointFormatError("not a cluster manifest")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != crc:
        raise CheckpointFormatError("cluster manifest CRC mismatch")
    off = len(_MANIFEST_MAGIC)
    (n_nodes,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(platforms) != n_nodes:
        raise RestartError(
            f"checkpoint has {n_nodes} nodes, {len(platforms)} platforms given"
        )

    def take_lp() -> bytes:
        nonlocal off
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        out = data[off : off + n]
        off += n
        return out

    nodes: list[ClusterNode] = []
    for _ in range(n_nodes):
        (rank,) = struct.unpack_from("<I", data, off)
        off += 4
        ckpt_name = take_lp().decode()
        state = take_lp().decode()
        stdout_bytes = take_lp()
        (n_msgs,) = struct.unpack_from("<I", data, off)
        off += 4
        mailbox = deque(take_lp() for _ in range(n_msgs))
        platform = get_platform(platforms[rank])
        if ckpt_name:
            vm, _ = restart_vm(
                platform, code, os.path.join(directory, ckpt_name)
            )
        else:
            # The node had already finished; an idle VM stands in.
            vm = VirtualMachine(platform, code, VMConfig(chkpt_state="disable"))
        # Replay the output produced before the checkpoint, so the
        # cumulative per-node stdout survives the restart.
        vm.channels.prefill_stdout(stdout_bytes)
        node = ClusterNode(rank, vm)
        node.mailbox = mailbox
        node.state = "runnable" if state == "waiting" and mailbox else state
        if node.state == "waiting" and not mailbox:
            node.state = "waiting"
        nodes.append(node)
    return Cluster._adopt(code, nodes, slice_instructions)


# ---------------------------------------------------------------------------
# Checkpoint-store integration
# ---------------------------------------------------------------------------


def checkpoint_cluster_to_store(
    cluster: Cluster,
    client,
    cluster_id: str,
    directory: Optional[str] = None,
):
    """Coordinated checkpoint pushed to a checkpoint store.

    Takes a normal :meth:`Cluster.checkpoint` into ``directory`` (a
    temporary directory when omitted), packs the manifest plus every node
    checkpoint into one payload, and stores it as the next generation of
    ``cluster_id`` — so coordinated snapshots get the same dedup,
    replication and integrity guarantees as single-VM checkpoints.
    Returns ``(generation, PutStats)``.
    """
    import tempfile

    from repro.store.chunkstore import pack_files

    if directory is None:
        directory = tempfile.mkdtemp(prefix="repro-cluster-ck-")
    cluster.checkpoint(directory)
    files = {}
    for name in sorted(os.listdir(directory)):
        if name == "manifest.rclu" or name.endswith(".hckp"):
            with open(os.path.join(directory, name), "rb") as f:
                files[name] = f.read()
    payload = pack_files(files)
    meta = {"kind": "cluster", "nodes": len(cluster.nodes)}
    return client.put_checkpoint(cluster_id, payload, meta=meta)


def restart_cluster_from_store(
    code: CodeImage,
    client,
    cluster_id: str,
    platforms: Sequence[Platform | str],
    directory: Optional[str] = None,
    generation: Optional[int] = None,
    slice_instructions: int = 20_000,
) -> Cluster:
    """Fetch a stored coordinated checkpoint and restart every node.

    The inverse of :func:`checkpoint_cluster_to_store`: downloads and
    verifies the packed payload, unpacks it into ``directory`` (a
    temporary directory when omitted) and hands off to
    :func:`restart_cluster`.
    """
    import tempfile

    from repro.errors import StoreError
    from repro.store.chunkstore import unpack_files

    payload, _manifest = client.get_checkpoint(cluster_id, generation)
    try:
        files = unpack_files(payload)
    except StoreError as e:
        raise CheckpointFormatError(
            f"stored payload for {cluster_id!r} is not a cluster checkpoint: {e}"
        ) from e
    if "manifest.rclu" not in files:
        raise CheckpointFormatError(
            f"stored payload for {cluster_id!r} is not a cluster checkpoint"
        )
    if directory is None:
        directory = tempfile.mkdtemp(prefix="repro-cluster-rs-")
    os.makedirs(directory, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(directory, os.path.basename(name)), "wb") as f:
            f.write(data)
    return restart_cluster(code, directory, platforms, slice_instructions)
