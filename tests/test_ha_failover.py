"""End-to-end HA: periodic store checkpoints, faults, hetero restart."""

from __future__ import annotations

import builtins
import hashlib
import inspect
import os
import re
import socket
import struct
import zlib

import pytest

from repro import VMConfig, VirtualMachine, compile_source, get_platform
from repro.arch.platforms import PLATFORMS
from repro.channels.manager import ChannelManager
from repro.checkpoint.format import TRAILER_MAGIC, read_section_table
from repro.checkpoint.reader import ChainLink, restart_vm
from repro.cluster import Cluster
from repro.errors import (
    CheckpointIntegrityError,
    LeaseLostError,
    ReproError,
)
from repro.metrics import INTEGRITY
from repro.replication import (
    CommitTailer,
    EpochLease,
    LiveHA,
    ReplicationSender,
    StandbyServer,
    cold_restore_from_store,
)
from repro.replication.lease import LeaseState
from repro.store import ChunkStore, FleetClient, FleetNode, HASupervisor
from repro.store.client import StoreClient
from repro.store.ha import (
    HAReport,
    fetch_chain,
    manifest_meta,
    protected_config,
    restart_candidates,
    restore_from_store,
    restore_generation,
)
from repro.store import protocol as P
from repro.workloads import (
    insertion_sort_expected,
    insertion_sort_source,
    matmul_expected,
    matmul_source,
)
from tests.oracle import fingerprint
from tests.test_net import SRC, _modules_matching

# Several checkpoint intervals of work; the total stays inside 31-bit
# ints so migration across the 32-bit machines is lossless.
WORKLOAD = """
let limit = 40000;;
let total = ref 0;;
let i = ref 0;;
while !i < limit do
  i := !i + 1;
  total := !total + !i
done;;
print_string "sum = ";;
print_int !total
"""


@pytest.fixture(scope="module")
def code():
    return compile_source(WORKLOAD)


@pytest.fixture(scope="module")
def expected(code):
    vm = VirtualMachine(
        get_platform("rodrigo"), code, VMConfig(chkpt_state="disable")
    )
    return vm.run().stdout


@pytest.fixture
def service(tmp_path):
    server = FleetNode(ChunkStore(str(tmp_path / "store")))
    host, port = server.start()
    client = FleetClient([(host, port)], backoff=0.01)
    yield server, client
    client.close()
    server.stop()


def hetero(a: str, b: str) -> bool:
    pa, pb = PLATFORMS[a], PLATFORMS[b]
    return (pa.arch.endianness is not pb.arch.endianness
            and pa.arch.word_bytes != pb.arch.word_bytes)


class TestHAFailover:
    def test_end_to_end_bit_identical(self, code, expected, service):
        """Acceptance: a VM checkpointing to a live store daemon is
        killed mid-run, auto-restarted on a platform differing in both
        endianness and word size, and still produces output
        bit-identical to the uninterrupted run."""
        _, client = service
        supervisor = HASupervisor(
            code, client, "ha-e2e",
            start_platform="rodrigo",
            checkpoint_every=20_000,
            fault_budgets=(30_000, 80_000),
            max_faults=3,
            seed=7,
        )
        report = supervisor.run()
        assert report.completed and report.exit_code == 0
        assert report.stdout == expected
        assert report.faults_injected == 3
        assert report.restarts + report.cold_restarts == 3
        # every warm handoff crossed endianness AND word size
        hops = list(zip(report.platforms_visited, report.platforms_visited[1:]))
        assert hops, "no restart happened"
        for a, b in hops:
            assert hetero(a, b), f"restart {a} -> {b} was not heterogeneous"
        assert report.upload_stats.dedup_ratio > 2.0

    def test_metrics_are_populated(self, code, service):
        server, client = service
        report = HASupervisor(
            code, client, "ha-metrics",
            checkpoint_every=15_000,
            fault_budgets=(20_000, 50_000),
            max_faults=2,
            seed=11,
        ).run()
        assert report.checkpoints >= 5
        assert report.generations == sorted(report.generations)
        assert len(report.restart_latencies) == report.restarts
        assert all(lat > 0 for lat in report.restart_latencies)
        assert report.work_lost_instructions > 0
        phases = report.phases.as_dict()["phases"]
        for phase in ("run", "checkpoint", "upload", "restart_download",
                      "restart_rebuild"):
            assert phase in phases, f"phase {phase!r} missing"
        assert report.full_checkpoints + report.delta_checkpoints == (
            report.checkpoints
        )
        assert report.full_checkpoints and report.delta_checkpoints
        assert len(report.restart_chain_depths) == report.restarts
        # A delta carries only what changed since its parent: on this
        # slowly-moving heap every delta upload is smaller than every
        # full one, whichever platform either was taken on.
        sizes: dict[str, list[int]] = {"full": [], "delta": []}
        for gen in server.store.generations("ha-metrics"):
            m = server.store.read_manifest("ha-metrics", gen)
            sizes[m.meta["kind"]].append(m.payload_len)
        assert len(sizes["delta"]) == report.delta_checkpoints
        assert max(sizes["delta"]) < min(sizes["full"])
        doc = report.as_dict()
        assert doc["completed"] and doc["dedup_ratio"] >= 1.0

    def test_report_dict_keys(self):
        """``as_dict`` is ``vars`` plus the derived ``dedup_ratio``: a
        field added to the report is a key added to ``--json``."""
        assert set(HAReport().as_dict()) == {
            "completed", "exit_code", "stdout", "faults_injected",
            "midwrite_faults", "fallback_restores", "checkpoints",
            "full_checkpoints", "delta_checkpoints", "restarts",
            "cold_restarts", "restart_chain_depths", "generations",
            "platforms_visited", "work_lost_instructions",
            "restart_latencies", "phases", "integrity", "dedup_ratio",
        }

    def test_fault_before_first_checkpoint_cold_starts(self, code, expected,
                                                       service):
        _, client = service
        report = HASupervisor(
            code, client, "ha-cold",
            checkpoint_every=50_000,
            fault_budgets=(1_000, 5_000),  # dies before any checkpoint
            max_faults=1,
            seed=3,
        ).run()
        assert report.cold_restarts == 1
        assert report.completed
        assert report.stdout == expected

    def test_no_faults_runs_straight_through(self, code, expected, service):
        _, client = service
        report = HASupervisor(
            code, client, "ha-quiet",
            checkpoint_every=25_000,
            max_faults=0,
            seed=1,
        ).run()
        assert report.completed
        assert report.faults_injected == 0
        assert report.restarts == 0
        assert report.stdout == expected
        assert report.checkpoints > 0  # periodic pushes still happened

    def test_checkpoints_land_in_store(self, code, service):
        server, client = service
        HASupervisor(
            code, client, "ha-landed",
            checkpoint_every=20_000,
            max_faults=1,
            fault_budgets=(30_000, 60_000),
            seed=5,
        ).run()
        gens = server.store.generations("ha-landed")
        assert gens, "no generation stored"
        payload, manifest = server.store.get_checkpoint("ha-landed")
        assert manifest.meta["platform"] in PLATFORMS
        assert payload  # a verified, reassembled checkpoint

    def test_rejects_nonpositive_interval(self, code, service):
        _, client = service
        with pytest.raises(ReproError):
            HASupervisor(code, client, "bad", checkpoint_every=0)

    def test_restart_candidates_force_heterogeneity(self):
        for name in PLATFORMS:
            for cand in restart_candidates(PLATFORMS[name]):
                assert cand != name
        # from 32LE rodrigo, only fully-different machines qualify
        cands = restart_candidates(PLATFORMS["rodrigo"])
        assert all(hetero("rodrigo", c) for c in cands)


class TestMidWriteFaults:
    """Crashes that strike *during* the checkpoint commit (PR 3): the
    atomic commit protocol plus the store generation walk must keep the
    run completing with bit-identical output."""

    def test_midwrite_crashes_still_complete_bit_identical(
        self, code, expected, service
    ):
        _, client = service
        report = HASupervisor(
            code, client, "ha-midwrite",
            checkpoint_every=10_000,
            fault_budgets=(500_000, 900_000),  # never die *between* writes
            max_faults=3,
            seed=13,
            midwrite_fault_prob=1.0,  # every checkpoint attempt dies
        ).run()
        assert report.completed
        assert report.stdout == expected
        assert report.midwrite_faults == 3
        assert report.faults_injected == 3
        assert report.midwrite_faults <= report.faults_injected
        doc = report.as_dict()
        assert doc["midwrite_faults"] == 3
        assert "integrity" in doc

    def test_midwrite_prob_validated(self, code, service):
        _, client = service
        with pytest.raises(ReproError):
            HASupervisor(code, client, "ha-bad", midwrite_fault_prob=1.5)

    def test_occasional_midwrite_faults(self, code, expected, service):
        _, client = service
        report = HASupervisor(
            code, client, "ha-mixed",
            checkpoint_every=8_000,
            fault_budgets=(30_000, 60_000),
            max_faults=4,
            seed=17,
            midwrite_fault_prob=0.3,
        ).run()
        assert report.completed
        assert report.stdout == expected


class TestIncrementalHA:
    """HA supervision over an *incremental* checkpoint config: deltas
    ride the chain-aware upload/download paths and survive faults."""

    def _config(self):
        return VMConfig(
            chkpt_incremental=True,
            chkpt_retain=5,
            chkpt_full_every=4,
        )

    def test_end_to_end_with_delta_chains(self, code, expected, service):
        server, client = service
        report = HASupervisor(
            code, client, "ha-inc",
            checkpoint_every=15_000,
            fault_budgets=(30_000, 80_000),
            max_faults=2,
            seed=7,
            config=self._config(),
        ).run()
        assert report.completed and report.exit_code == 0
        assert report.stdout == expected
        assert report.faults_injected == 2
        # the store saw both kinds, each tagged with its chain identity
        kinds = set()
        for gen in server.store.generations("ha-inc"):
            meta = server.store.read_manifest("ha-inc", gen).meta
            kinds.add(meta["kind"])
            assert meta["body_sha256"], "upload missing chain identity"
            if meta["kind"] == "delta":
                assert meta["parent_sha256"]
                assert meta["chain_depth"] >= 1
        assert kinds == {"full", "delta"}

    def test_delta_uploads_are_smaller(self, code, service):
        server, client = service
        HASupervisor(
            code, client, "ha-inc-size",
            checkpoint_every=12_000,
            max_faults=0,
            seed=3,
            config=self._config(),
        ).run()
        full_sizes, delta_sizes = [], []
        for gen in server.store.generations("ha-inc-size"):
            m = server.store.read_manifest("ha-inc-size", gen)
            (full_sizes if m.meta["kind"] == "full" else delta_sizes).append(
                m.payload_len
            )
        assert full_sizes and delta_sizes
        # a delta carries only the dirty regions of a slowly-moving heap
        assert max(delta_sizes) < min(full_sizes)

    def test_restart_downloads_parent_chain(self, code, expected, service):
        """A fault landing while the newest generation is a delta forces
        the restart to reassemble the chain from sha-linked manifests."""
        _, client = service
        report = HASupervisor(
            code, client, "ha-inc-chain",
            checkpoint_every=10_000,
            fault_budgets=(35_000, 75_000),
            max_faults=3,
            seed=19,
            config=self._config(),
        ).run()
        assert report.completed
        assert report.stdout == expected
        assert report.restarts + report.cold_restarts == 3


class DamagedUpload:
    """A store client whose ``nth`` checkpoint upload lands in the store
    with one byte flipped — a generation the store holds faithfully and
    no restore can use."""

    def __init__(self, inner: FleetClient, nth: int) -> None:
        self._inner = inner
        self._left = nth

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def put_checkpoint(self, vm_id, payload, meta=None):
        self._left -= 1
        if self._left == 0:
            payload = bytes(payload)  # never flip the writer's buffer
            mid = len(payload) // 2
            flipped = bytes([payload[mid] ^ 0xFF])
            payload = payload[:mid] + flipped + payload[mid + 1:]
        return self._inner.put_checkpoint(vm_id, payload, meta=meta)


class TestDamagedHeadFallsBack:
    """Both recoveries share one store-generation walk: a damaged newest
    generation lands the restore on the previous one; with no older
    generation the head's own typed error comes out."""

    EVERY = 20_000

    def _recover(self, how, code, client, tmp_path, generations, damaged):
        """Protect ``generations`` generations (the ``damaged``-th one
        corrupt), lose the machine, recover; returns the final stdout."""
        client = DamagedUpload(client, damaged)
        if how == "supervisor":
            crash = self.EVERY * generations + self.EVERY // 2
            report = HASupervisor(
                code, client, "ha-damaged",
                checkpoint_every=self.EVERY,
                fault_budgets=(crash, crash),
                max_faults=1,
                seed=5,
            ).run()
            assert report.restarts == 1
            assert report.fallback_restores == 1
            assert report.integrity["fallback_restores"] == 1
            return report.stdout
        path = str(tmp_path / "origin.hckp")
        platform = get_platform("rodrigo")
        vm = VirtualMachine(platform, code, protected_config(None))
        tailer = CommitTailer(vm, path)
        for _ in range(generations):
            vm.run(max_instructions=self.EVERY)
            rec = tailer.capture()
            client.put_checkpoint(
                "ha-damaged", rec.data, meta=manifest_meta(rec, platform)
            )
        restored, seconds = cold_restore_from_store(
            client, "ha-damaged", code, "ultra64",
            str(tmp_path / "restore.hckp"),
        )
        assert seconds > 0
        return restored.run().stdout

    @pytest.mark.parametrize("how", ["supervisor", "cold"])
    def test_lands_on_previous_generation(
        self, how, code, expected, service, tmp_path
    ):
        _, client = service
        before = INTEGRITY.fallback_restores
        stdout = self._recover(how, code, client, tmp_path, 3, damaged=3)
        assert stdout == expected
        assert INTEGRITY.fallback_restores == before + 1

    @pytest.mark.parametrize("how", ["supervisor", "cold"])
    def test_no_older_generation_raises_the_heads_error(
        self, how, code, service, tmp_path
    ):
        _, client = service
        before = INTEGRITY.fallback_restores
        with pytest.raises(CheckpointIntegrityError):
            self._recover(how, code, client, tmp_path, 1, damaged=1)
        assert INTEGRITY.fallback_restores == before


@pytest.fixture
def wire_log(monkeypatch):
    """Every exchange any ``StoreClient`` makes — the supervisor's, a
    lease's, a daemon's follower link — as ``(opcode, request payload,
    reply)``."""
    seen: list[tuple[int, bytes, object]] = []
    exchange = StoreClient._exchange

    def logged(client, op, payload, read):
        reply = exchange(client, op, payload, read)
        seen.append((op, payload, reply))
        return reply

    monkeypatch.setattr(StoreClient, "_exchange", logged)
    return seen


def _ls_requests(wire_log) -> list[dict]:
    """The request object of every ``LS`` sent (``{}`` = the whole store)."""
    return [
        P.decode_json(payload) if payload else {}
        for op, payload, _reply in wire_log
        if op == P.OP_LS
    ]


class TestChainFetch:
    """What fetching a delta chain asks of the store: the head's
    manifest, its parents' manifests in one batch, every link's chunks
    together — and a listing, scoped to the vm, only when a parent is not
    the upload just before its child, and then once.  The links stay in
    memory: nothing is written where the restored VM will checkpoint."""

    DEPTH = 4

    @pytest.fixture
    def records(self, code, tmp_path):
        """One full and ``DEPTH`` deltas of one run, as captured."""
        path = str(tmp_path / "origin.hckp")
        config = protected_config(VMConfig(chkpt_full_every=0))
        vm = VirtualMachine(get_platform("rodrigo"), code, config)
        tailer = CommitTailer(vm, path)
        out = []
        for _ in range(self.DEPTH + 1):
            vm.run(max_instructions=6_000)
            rec = tailer.capture()
            out.append((rec, rec.data))
        assert [r.kind for r, _ in out] == ["full"] + ["delta"] * self.DEPTH
        assert out[-1][0].chain_depth == self.DEPTH
        return out

    @pytest.fixture
    def exchanges(self, monkeypatch):
        """Every request/reply the client makes, by opcode."""
        seen: list[int] = []
        call, stream = StoreClient._call, StoreClient._get_many_stream

        def counted_call(client, op, payload=b""):
            seen.append(op)
            return call(client, op, payload)

        def counted_stream(client, keys, sink):
            seen.append(P.OP_GET_MANY)
            return stream(client, keys, sink)

        monkeypatch.setattr(StoreClient, "_call", counted_call)
        monkeypatch.setattr(StoreClient, "_get_many_stream", counted_stream)
        return seen

    @staticmethod
    def _upload(client, rec, data, vm_id="chain"):
        generation, _stats = client.put_checkpoint(
            vm_id, data, meta=manifest_meta(rec, get_platform("rodrigo"))
        )
        return generation

    def test_three_exchanges_per_chain_and_no_listing(
        self, code, expected, records, service, tmp_path, exchanges
    ):
        _, client = service
        for rec, data in records:
            self._upload(client, rec, data)
        del exchanges[:]
        head, links = fetch_chain(client, "chain")
        assert head.generation == self.DEPTH + 1
        assert exchanges == [P.OP_GET_MANIFEST, P.OP_BATCH, P.OP_GET_MANY]
        # Newest first, down to the full base — byte for byte, named.
        assert [link.data for link in links] == [
            data for _rec, data in reversed(records)
        ]
        assert [link.name for link in links] == [
            f"vm 'chain' generation {g}"
            for g in range(self.DEPTH + 1, 0, -1)
        ]
        # A full head costs its manifest and its chunks.
        del exchanges[:]
        _head, (full,) = fetch_chain(client, "chain", generation=1)
        assert exchanges == [P.OP_GET_MANIFEST, P.OP_GET_MANY]
        assert full.data == records[0][1]
        # The whole recovery: the same three exchanges, and nothing at
        # the path the restored VM will checkpoint to, numbered or not.
        del exchanges[:]
        local = tmp_path / "restore"
        local.mkdir()
        vm, skipped, depth = restore_from_store(
            client, "chain", code, "ultra64", str(local / "restore.hckp")
        )
        assert (skipped, depth) == (0, self.DEPTH)
        assert exchanges == [P.OP_GET_MANIFEST, P.OP_BATCH, P.OP_GET_MANY]
        assert os.listdir(local) == []
        assert vm.run().stdout == expected

    def test_parent_further_back_costs_one_listing_per_fetch(
        self, records, service, exchanges, wire_log
    ):
        """Unrelated uploads sit between two links of the chain: each
        time the guess misses, but the vm's generations are listed once
        — and only that vm's."""
        _, client = service
        stray, stray_data = records[0]
        for i, (rec, data) in enumerate(records):
            self._upload(client, rec, data)
            if i in (1, 2):
                meta = manifest_meta(stray, get_platform("rodrigo"))
                meta["body_sha256"] = f"{i:064x}"
                client.put_checkpoint("chain", bytes(stray_data) + b"\0" * i,
                                      meta=meta)
        del exchanges[:]
        del wire_log[:]
        _head, links = fetch_chain(client, "chain")
        assert exchanges.count(P.OP_LS) == 1
        assert exchanges.count(P.OP_GET_MANY) == 1
        assert _ls_requests(wire_log) == [{"vm_id": "chain"}]
        assert [link.data for link in links] == [
            data for _rec, data in reversed(records)
        ]

    def test_unresolvable_parent_truncates_and_the_walk_falls_back(
        self, code, expected, records, service, tmp_path, wire_log
    ):
        """A head whose parent was never uploaded: the chain is left
        truncated, its restore fails typed, and recovery lands on the
        generation before it."""
        _, client = service
        (full, full_data), _skipped, (orphan, orphan_data) = records[:3]
        self._upload(client, full, full_data)
        self._upload(client, orphan, orphan_data)
        head, links = fetch_chain(client, "chain")
        assert head.meta["kind"] == "delta"
        assert len(links) == 1
        with pytest.raises(CheckpointIntegrityError, match="not fetched"):
            restart_vm(get_platform("ultra64"), code, links)
        before = INTEGRITY.fallback_restores
        vm, skipped, depth = restore_from_store(
            client, "chain", code, "ultra64", str(tmp_path / "restore.hckp")
        )
        assert (skipped, depth) == (1, 0)
        assert INTEGRITY.fallback_restores == before + 1
        assert vm.run().stdout == expected
        # The orphan's parent hunt and the newest-first walk each listed
        # this vm's generations, never the store.
        listed = _ls_requests(wire_log)
        assert listed and all(req == {"vm_id": "chain"} for req in listed)

    @pytest.mark.parametrize("damaged, section", [
        (0, "heap"), (0, "threads"), (2, "heap"), (2, "channels"),
    ], ids=["base-heap", "base-threads", "mid-delta-heap",
            "mid-delta-channels"])
    def test_damaged_parent_is_typed_and_the_walk_falls_back(
        self, damaged, section, code, expected, records, service, tmp_path
    ):
        """A byte flipped in a stored parent — the chain's full base, or
        a delta in its middle; in a section the splice decodes, or in
        one it only verifies — is a typed error naming the vm, the
        generation and the section; the newest-first walk then lands on
        the newest generation whose chain does not pass through it."""
        _, client = service
        # An older, independent full for the walk to land on if every
        # link of the chain is unusable.
        path = str(tmp_path / "older.hckp")
        vm = VirtualMachine(
            get_platform("rodrigo"), code, protected_config(None)
        )
        vm.run(max_instructions=3_000)
        older = CommitTailer(vm, path).capture()
        self._upload(client, older, older.data)
        for i, (rec, data) in enumerate(records):
            if i == damaged:
                (row,) = [r for r in read_section_table(data)
                          if r.name == section]
                data = bytearray(data)  # a copy: the capture's stays
                data[row.offset + row.length // 2] ^= 0xFF
            self._upload(client, rec, data)
        bad_gen = damaged + 2
        _head, links = fetch_chain(client, "chain")
        with pytest.raises(CheckpointIntegrityError) as info:
            restart_vm(get_platform("ultra64"), code, links)
        err = info.value
        assert err.section == section
        assert f"vm 'chain' generation {bad_gen}:" in str(err)
        assert f"section '{section}'" in str(err)
        before = INTEGRITY.fallback_restores
        vm, skipped, depth = restore_from_store(
            client, "chain", code, "ultra64", str(tmp_path / "restore.hckp")
        )
        # Every generation from the head down to the damaged one fails.
        assert skipped == self.DEPTH + 2 - bad_gen + 1
        assert depth == max(bad_gen - 3, 0)
        assert INTEGRITY.fallback_restores == before + 1
        assert vm.run().stdout == expected

    def test_parent_is_verified_whole_not_only_where_decoded(
        self, code, records
    ):
        """A parent whose damaged section carries a re-sealed CRC (and
        end CRC) passes every per-section check; only the body SHA-256
        can tell — and a parent's is checked too."""
        data = bytearray(records[2][1])
        tlen = struct.unpack_from("<I", data, len(data) - 16)[0]
        at = len(data) - 16 - tlen + len(TRAILER_MAGIC) + 4
        for _ in range(struct.unpack_from("<I", data, at - 4)[0]):
            (n,) = struct.unpack_from("<I", data, at)
            name = data[at + 4 : at + 4 + n].decode()
            off, length = struct.unpack_from("<QQ", data, at + 4 + n)
            crc_at = at + 4 + n + 16
            at = crc_at + 4
            if name == "threads":
                data[off + length // 2] ^= 0xFF
                struct.pack_into("<I", data, crc_at,
                                 zlib.crc32(data[off : off + length]))
        struct.pack_into("<I", data, len(data) - 4,
                         zlib.crc32(data[: len(data) - 12]))
        chain = [records[3][1], bytes(data), records[1][1], records[0][1]]
        links = [ChainLink(f"link {i}", d) for i, d in enumerate(chain)]
        with pytest.raises(CheckpointIntegrityError, match="SHA-256") as e:
            restart_vm(get_platform("ultra64"), code, links)
        assert e.value.section == "file"
        assert "link 1:" in str(e.value)

    def test_lazy_restore_defers_its_heap_over_the_fetched_bytes(
        self, code, expected, records, service, tmp_path
    ):
        _, client = service
        for rec, data in records:
            self._upload(client, rec, data)
        local = tmp_path / "restore"
        local.mkdir()
        vm, _skipped, depth = restore_from_store(
            client, "chain", code, "ultra64", str(local / "restore.hckp"),
            config=VMConfig(lazy_restore=True),
        )
        assert depth == self.DEPTH
        state = vm.lazy_restore
        assert state is not None and state.pending > 0
        assert state.sources and all(
            src.data is not None and src._fd is None for src in state.sources
        )
        assert vm.run().stdout == expected
        assert os.listdir(local) == []


class TestColdChainEqualsFull:
    """The cold plane's "chain == full" invariant: every generation a
    supervised delta run stored restores — from its chain, fetched into
    memory — to exactly the VM a full checkpoint taken at the same
    instruction restores to, in both heterogeneous directions; and the
    same links laid out as local rotation files restore to it too."""

    def test_every_generation_restores_like_a_full(self, service, tmp_path):
        server, client = service
        code = compile_source(insertion_sort_source(150, checkpoint=False))
        runs = {}
        for vm_id, config in (
            ("as-deltas", None),
            ("as-fulls", VMConfig(chkpt_full_every=1)),
        ):
            runs[vm_id] = HASupervisor(
                code, client, vm_id,
                checkpoint_every=7_919,
                fault_budgets=(20_000, 45_000),
                max_faults=2,
                seed=2002,
                config=config,
            ).run()
        deltas, fulls = runs["as-deltas"], runs["as-fulls"]
        assert deltas.delta_checkpoints and not fulls.delta_checkpoints
        assert deltas.generations == fulls.generations
        assert deltas.platforms_visited == fulls.platforms_visited
        directions = set()
        for g in deltas.generations:
            meta = server.store.read_manifest("as-deltas", g).meta
            full_meta = server.store.read_manifest("as-fulls", g).meta
            assert full_meta["kind"] == "full"
            assert meta["instructions"] == full_meta["instructions"]
            source = PLATFORMS[meta["platform"]]
            target = get_platform(
                "ultra64" if source.arch.word_bytes == 4 else "rodrigo"
            )
            directions.add((source.arch.word_bytes, target.arch.word_bytes))
            _head, links = fetch_chain(client, "as-deltas", generation=g)
            _head, full = fetch_chain(client, "as-fulls", generation=g)
            local = tmp_path / f"gen{g}"
            local.mkdir()
            for i, link in enumerate(links):
                (local / ("head.hckp" + (f".{i}" if i else ""))).write_bytes(
                    link.data
                )
            restored = [
                restart_vm(target, code, chain)[0]
                for chain in (links, full, str(local / "head.hckp"))
            ]
            prints = [fingerprint(vm, header_maps=True) for vm in restored]
            assert prints[0] == prints[1] == prints[2], f"generation {g}"
            ends = [vm.run() for vm in restored]
            assert len({(r.stdout, r.instructions) for r in ends}) == 1
        assert directions == {(4, 8), (8, 4)}


class TestListingsAreScoped:
    """A caller that wants one vm's generations asks the store for one
    vm's generations: what failover and a follower commit cost does not
    depend on what other vms have stored."""

    UNRELATED = 200

    @staticmethod
    def _promotable(code, client, tmp_path, name):
        """A standby for vm ``name`` holding one applied generation."""
        path = str(tmp_path / f"{name}-primary.hckp")
        vm = VirtualMachine(
            get_platform("rodrigo"), code, protected_config(None)
        )
        tailer = CommitTailer(vm, path)
        vm.run(max_instructions=6_000)
        standby = StandbyServer(
            code, "ultra64", node_id=name,
            chain_path=str(tmp_path / f"{name}.hckp"),
            lease=EpochLease(client, name, name),
        )
        standby._splice(tailer.capture())
        return standby

    @staticmethod
    def _greet(code, standby):
        """A primary says HELLO to ``standby`` and then dies."""
        host, port = standby.start()
        sender = ReplicationSender.connect(host, port, node_id="primary")
        try:
            sender.hello(code.digest().hex(), 1, "rodrigo")
        finally:
            sender.close()
            standby.stop()

    @staticmethod
    def _reply_bytes(wire_log) -> int:
        return sum(len(reply[1]) for _op, _payload, reply in wire_log)

    def test_promotion_costs_the_same_in_a_full_store(
        self, code, service, tmp_path, wire_log
    ):
        server, client = service
        quiet = self._promotable(code, client, tmp_path, "quiet")
        busy = self._promotable(code, client, tmp_path, "busy")
        del wire_log[:]
        quiet.promote()
        empty_store = list(wire_log)
        for i in range(self.UNRELATED):
            server.store.put_checkpoint(
                f"tenant{i % 20}", b"gen %d" % i, meta={"kind": "full"}
            )
        assert len(client.ls()["vms"]) == 20 + 1  # the tenants + one lease
        del wire_log[:]
        busy.promote()
        full_store = list(wire_log)
        assert (quiet.epoch, busy.epoch) == (1, 1)
        # Same exchanges, opcode for opcode: observe, then claim.
        assert [op for op, *_ in full_store] == [op for op, *_ in empty_store]
        assert [op for op, *_ in empty_store] == [P.OP_LS, P.OP_CLAIM]
        assert _ls_requests(empty_store) == [{"vm_id": "quiet.lease"}]
        assert _ls_requests(full_store) == [{"vm_id": "busy.lease"}]
        assert [
            P.decode_json(payload)["lease_id"]
            for store in (empty_store, full_store)
            for op, payload, _reply in store
            if op == P.OP_CLAIM
        ] == ["quiet.lease", "busy.lease"]
        # ... and the same bytes back, give or take a timestamp's digits:
        # one unrelated generation's entry alone is larger than the slack.
        assert abs(
            self._reply_bytes(full_store) - self._reply_bytes(empty_store)
        ) <= 64

    def test_promotion_is_two_store_exchanges(
        self, code, service, tmp_path, wire_log
    ):
        """A takeover asks the store twice: one scoped listing to observe
        the newest valid epoch, one ``CLAIM`` the owner shard decides —
        no upload, no read-back, no separate fencing probe.  Counted
        under a history of earlier claims, valid and losing."""
        _server, client = service
        standby = self._promotable(code, client, tmp_path, "twice")
        assert EpochLease(client, "twice", "rival").claim(expected=0) == 1
        with pytest.raises(LeaseLostError):
            EpochLease(client, "twice", "late").claim(expected=0)
        del wire_log[:]
        standby.promote()
        assert standby.epoch == 3
        assert [op for op, *_ in wire_log] == [P.OP_LS, P.OP_CLAIM]
        assert standby.lease.read() == LeaseState(epoch=3, holder="twice")

    def test_promotion_after_hello_is_one_store_exchange(
        self, code, service, tmp_path, wire_log
    ):
        """A standby observes the lease when its primary greets it, on
        the connection its takeover will use: the takeover is the
        ``CLAIM`` alone."""
        _server, client = service
        standby = self._promotable(code, client, tmp_path, "once")
        assert EpochLease(client, "once", "primary").claim(expected=0) == 1
        self._greet(code, standby)
        assert standby.describe()["lease_observed"] == 1
        del wire_log[:]
        standby.promote()
        assert [op for op, *_ in wire_log] == [P.OP_CLAIM]
        assert P.decode_json(wire_log[0][1]) == {
            "lease_id": "once.lease", "holder": "once", "expected": 1,
        }
        assert standby.epoch == 2
        state = standby.describe()
        assert (state["lease_observed"], state["takeover_exchanges"]) == (2, 1)
        assert standby.lease.read() == LeaseState(epoch=2, holder="once")

    def test_stale_observation_claims_again_with_the_same_winner(
        self, code, service, tmp_path, wire_log
    ):
        """A rival claims after the HELLO: the first ``CLAIM`` loses and
        its answer names the head, so the second expects that head —
        the winner a read-then-claim picks, one losing record later."""
        _server, client = service
        stale = self._promotable(code, client, tmp_path, "stale")
        fresh = self._promotable(code, client, tmp_path, "fresh")
        for vm_id in ("stale", "fresh"):
            assert EpochLease(client, vm_id, "primary").claim(expected=0) == 1
        self._greet(code, stale)
        for vm_id in ("stale", "fresh"):
            assert EpochLease(client, vm_id, "rival").claim(expected=1) == 2
        del wire_log[:]
        stale.promote()
        assert [op for op, *_ in wire_log] == [P.OP_CLAIM, P.OP_CLAIM]
        assert [P.decode_json(p)["expected"] for _op, p, _r in wire_log] == [
            1, 2,
        ]
        assert stale.describe()["takeover_exchanges"] == 2
        del wire_log[:]
        fresh.promote()  # never greeted: read, then claim
        assert [op for op, *_ in wire_log] == [P.OP_LS, P.OP_CLAIM]

        def claims(standby):
            return [
                (c.holder.replace(standby.node_id, "standby"), c.valid)
                for c in standby.lease.history()
            ]

        # The same valid claims in the same order, and one losing record
        # more — which, since an epoch is its claim's generation, puts
        # the winning epoch one past the read-then-claim's.
        assert claims(fresh) == [
            ("primary", True), ("rival", True), ("standby", True),
        ]
        assert claims(stale) == [
            ("primary", True), ("rival", True),
            ("standby", False), ("standby", True),
        ]
        assert (stale.epoch, fresh.epoch) == (4, 3)
        assert stale.lease.read() == LeaseState(epoch=4, holder="stale")
        assert fresh.lease.read() == LeaseState(epoch=3, holder="fresh")

    def test_store_unreachable_at_hello_still_greets_and_promotes_later(
        self, code, tmp_path, wire_log
    ):
        """The observation never fails a greeting: a store that cannot
        answer leaves the standby unobserved, and its promotion reads
        the lease first once the store is back."""
        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = FleetClient([("127.0.0.1", port)], retries=1, backoff=0.01)
        standby = self._promotable(code, client, tmp_path, "later")
        host, sport = standby.start()
        sender = ReplicationSender.connect(host, sport, node_id="primary")
        try:
            answer = sender.hello(code.digest().hex(), 1, "rodrigo")
            assert answer["node"] == "later"
            assert standby.describe()["lease_observed"] is None
        finally:
            sender.close()
            standby.stop()
        server = FleetNode(ChunkStore(str(tmp_path / "store")), port=port)
        server.start()
        try:
            del wire_log[:]
            standby.promote()
            assert [op for op, *_ in wire_log] == [P.OP_LS, P.OP_CLAIM]
            assert standby.epoch == 1
            assert standby.describe()["lease_observed"] == 1
        finally:
            client.close()
            server.stop()

    def test_follower_commit_lists_only_the_committed_vm(
        self, tmp_path, wire_log
    ):
        follower = FleetNode(ChunkStore(str(tmp_path / "follower")))
        follower.start()
        primary = FleetNode(
            ChunkStore(str(tmp_path / "primary")),
            replicas=[follower.address],
        )
        primary.start()
        try:
            with FleetClient([primary.address], backoff=0.01) as client:
                client.put_checkpoint("elsewhere", b"other tenant")
                del wire_log[:]
                client.put_checkpoint("vm", b"generation one")
            assert follower.store.generations("vm") == [1]
        finally:
            primary.stop()
            follower.stop()
        assert _ls_requests(wire_log) == [{"vm_id": "vm"}]


def test_cold_plane_never_reads_the_generation_it_uploads(
        code, service, monkeypatch):
    """No protection cycle reads back the file it just committed: the
    supervisor, the warm driver and the cluster upload (and ship) the
    image their writer held.  Only a standby rebuild reads a chain from
    disk, and that chain is its own."""
    server, client = service
    reads = []
    real_open = builtins.open

    def watched(file, mode="r", *args, **kwargs):
        name = os.path.basename(str(file))
        if ".hckp" in name and "r" in mode and not name.startswith("standby."):
            reads.append(name)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", watched)
    report = HASupervisor(
        code, client, "cold-payload",
        checkpoint_every=15_000,
        fault_budgets=(30_000, 80_000),
        max_faults=1,
        seed=7,
    ).run()
    assert report.completed and report.checkpoints >= 2
    live = LiveHA(
        code, [server.address], "warm-payload",
        checkpoint_every=15_000,
        schedule="none",
        mirror_to_store=True,
    ).run()
    assert live.completed and live.generations_shipped >= 2
    cluster = Cluster(code, ["rodrigo", "ultra64"], slice_instructions=15_000)
    for generation in (1, 2):
        cluster.step()
        assert cluster.protect(client, "cluster-payload") == generation
    assert reads == []


def test_captured_payload_is_read_on_demand_and_never_stale(code, tmp_path):
    """A record keeps the image committed at its capture, read or not,
    after later captures replaced the file: a read-only view of the
    writer's buffer, not a copy and not a reader of the path."""
    path = str(tmp_path / "origin.hckp")
    vm = VirtualMachine(
        get_platform("rodrigo"), code, protected_config(None)
    )
    tailer = CommitTailer(vm, path)
    records, committed = [], []
    for _ in range(3):
        vm.run(max_instructions=10_000)
        records.append(tailer.capture())
        with open(path, "rb") as f:
            committed.append(f.read())
    assert len(set(committed)) == 3
    for rec, on_disk in zip(records, committed):
        assert rec.data == on_disk
        assert rec.data_sha256 == hashlib.sha256(on_disk).hexdigest()
        assert isinstance(rec.data, memoryview)  # the writer's own
        with pytest.raises(TypeError):
            rec.data[0] = 0


def test_both_planes_write_the_same_manifest_schema(code, service):
    """The cold supervisor and the warm driver's store mirror go through
    one ``manifest_meta``: per generation kind, the same meta keys."""
    server, client = service
    HASupervisor(
        code, client, "schema-cold",
        checkpoint_every=15_000,
        max_faults=0,
        config=VMConfig(chkpt_incremental=True, chkpt_retain=8),
    ).run()
    report = LiveHA(
        code, [server.address], "schema-warm",
        checkpoint_every=15_000,
        schedule="none",
        mirror_to_store=True,
    ).run()
    assert report.completed

    def keys_by_kind(vm_id):
        out = {}
        for gen in server.store.generations(vm_id):
            meta = server.store.read_manifest(vm_id, gen).meta
            out.setdefault(meta["kind"], set()).add(frozenset(meta))
        return out

    cold, warm = keys_by_kind("schema-cold"), keys_by_kind("schema-warm")
    assert set(cold) == set(warm) == {"full", "delta"}
    assert cold == warm
    assert all(len(shapes) == 1 for shapes in cold.values())


class TestProgramCheckpointIsIgnored:
    """A protected VM commits a generation only when its driver
    captures.  A program's own ``checkpoint ()`` used to commit one
    nobody uploaded or shipped, and the next protected delta bound to
    it — forking the chain the store or the standby holds."""

    SOURCE = matmul_source(14, checkpoint=True)

    def test_cold_plane_loses_no_work(self, service):
        _, client = service
        report = HASupervisor(
            compile_source(self.SOURCE), client, "program-ckpt-cold",
            checkpoint_every=20_000,
            fault_budgets=(30_000, 80_000),
            max_faults=2,
            seed=2002,
        ).run()
        assert report.completed
        assert report.stdout == matmul_expected(14)
        assert report.faults_injected == 2
        assert report.delta_checkpoints > 0
        assert report.fallback_restores == 0

    def test_warm_standby_accepts_every_generation(self, service):
        server, _ = service
        report = LiveHA(
            compile_source(self.SOURCE), [server.address], "program-ckpt-warm",
            schedule="none",
        ).run()
        assert report.completed
        assert report.client_stdout == matmul_expected(14)
        assert report.generations_shipped > report.generations_full


class TestOneOfEach:
    """Tier-1 guard: the hand-copied protect/recover pieces stay deleted
    — one capture, one manifest-meta writer, one prefill reader, one
    store-generation walk, one stdout-prefill method."""

    def test_manifest_schema_has_one_writer_and_one_reader(self):
        assert _modules_matching(r'"stdout_b64"') == ["repro/store/ha.py"]
        source = (SRC / "repro/store/ha.py").read_text()
        assert source.count('"stdout_b64"') == 2
        assert inspect.getsource(manifest_meta).count('"stdout_b64":') == 1
        assert (
            inspect.getsource(restore_generation).count('.get("stdout_b64"')
            == 1
        )

    def test_stdout_sink_is_touched_only_by_the_channel_manager(self):
        assert _modules_matching(r"\b_stdout\b") == [
            "repro/channels/manager.py"
        ]
        assert _modules_matching(r"\.prefill_stdout\(") == [
            "repro/cluster/coordinator.py",
            "repro/replication/standby.py",
            "repro/store/ha.py",
        ]
        assert inspect.getsource(ChannelManager.prefill_stdout).count(
            "_stdout.write("
        ) == 1

    def test_commit_hooks_are_swapped_only_by_the_capture(self):
        """Not even by the capture: it hands its path and hooks to one
        writer call and assigns nothing on the VM's config."""
        assert _modules_matching(r"\.commit_hooks\s*=[^=]") == []
        capture = inspect.getsource(CommitTailer.capture)
        assert not re.search(r"\.config\.\w+\s*=[^=]", capture)
        assert capture.count("CheckpointWriter(vm).checkpoint(") == 1
        assert "perform_checkpoint" not in capture

    def test_store_generations_are_walked_in_one_place(self):
        """``fetch_chain(..., generation=...)`` — re-fetching an older
        generation after the head failed — is the walk's signature."""
        assert _modules_matching(r"fetch_chain\([^)]*generation=") == [
            "repro/store/ha.py"
        ]
        source = (SRC / "repro/store/ha.py").read_text()
        assert len(re.findall(r"\bfetch_chain\(", source)) == 2  # def + 1
        assert inspect.getsource(restore_generation).count("fetch_chain(") == 1
        assert (
            inspect.getsource(restore_from_store).count("restore_generation(")
            == 1
        )
        assert _modules_matching(r"\brestore_from_store\(") == [
            "repro/replication/live.py",
            "repro/store/ha.py",
        ]
        # The cluster restores the generations its cut names through
        # the same one-chain restore, with no walk of its own.
        assert _modules_matching(r"\brestore_generation\(") == [
            "repro/cluster/coordinator.py",
            "repro/store/ha.py",
        ]

    def test_one_protection_policy(self):
        """Both planes' and the cluster's protected VMs are configured
        by ``protected_config`` alone — no driver keeps a copy or
        toggles one."""
        assert not hasattr(LiveHA, "_config")
        assert _modules_matching(r"\bprotected_config\(") == [
            "repro/cluster/coordinator.py",
            "repro/replication/live.py",
            "repro/store/ha.py",
        ]
        assert "repro/cluster/coordinator.py" not in _modules_matching(
            r"\.chkpt_\w+\s*=[^=]"
        )
        base = VMConfig(chkpt_retain=2, chkpt_mode="background",
                        chkpt_interval=0.5)
        config = protected_config(base)
        assert config.chkpt_incremental and config.chkpt_retain == 8
        # The capture picks its own path and mode: the base's stand.
        assert config.chkpt_filename is None
        assert config.chkpt_mode == "background"
        assert config.chkpt_interval == 0.5
        # Only the driver's capture commits: program requests are moot.
        assert config.chkpt_state == "disable"

    def test_only_whole_store_jobs_list_the_whole_store(self):
        """An argument-less ``.ls()`` reads every manifest of every vm
        and walks every chunk: housekeeping (``repro store ls``, fleet
        gc / rebalance / audit, a revived follower's catch-up) may; the
        lease, the restore paths, fsck and a follower commit may not."""
        assert _modules_matching(r"\.ls\(\)") == [
            "repro/cli.py",
            "repro/store/fleet/client.py",
            "repro/store/server.py",
        ]
        assert ".ls()" not in inspect.getsource(FleetNode._replicate)
        assert ".ls()" in inspect.getsource(FleetNode._catch_up)


class TestDispatchTierDifferential:
    """The supervisor slices every run, so the slices now execute on
    the fast dispatch tier.  Same seed, either tier: the same faults
    strike at the same instructions, the same generations are uploaded
    and their chunk keys — content hashes of the checkpoint bytes — are
    equal, i.e. the checkpoints are bit-identical."""

    WORKLOADS = {
        "matmul": (matmul_source(16, checkpoint=False), matmul_expected(16)),
        "sort": (
            insertion_sort_source(150, checkpoint=False),
            insertion_sort_expected(150),
        ),
    }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_fast_and_reference_tiers_agree(self, name, service):
        server, client = service
        source, expected = self.WORKLOADS[name]
        code = compile_source(source)
        reports, chunk_keys = {}, {}
        for tier in ("reference", "fast"):
            vm_id = f"ha-tier-{tier}"
            reports[tier] = HASupervisor(
                code, client, vm_id,
                checkpoint_every=7_919,
                fault_budgets=(20_000, 45_000),
                max_faults=2,
                seed=2002,
                config=VMConfig(dispatch=tier),
            ).run()
            chunk_keys[tier] = [
                server.store.read_manifest(vm_id, gen).chunks
                for gen in server.store.generations(vm_id)
            ]
        fast, ref = reports["fast"], reports["reference"]
        assert fast.completed and ref.completed
        assert fast.stdout == ref.stdout == expected
        assert fast.faults_injected == ref.faults_injected == 2
        assert fast.generations == ref.generations
        assert len(fast.generations) > 4
        assert fast.work_lost_instructions == ref.work_lost_instructions
        assert fast.platforms_visited == ref.platforms_visited
        assert chunk_keys["fast"] == chunk_keys["reference"]
