"""Tests for the command-line interface."""

from __future__ import annotations

import os
import re

import pytest

from repro.cli import main

PROGRAM = """
let x = 6 * 7;;
checkpoint ();;
print_int x
"""


@pytest.fixture
def prog_path(tmp_path):
    p = tmp_path / "prog.ml"
    p.write_text(PROGRAM)
    return str(p)


class TestCompileDisasm:
    def test_compile_writes_byc(self, prog_path, tmp_path, capsys):
        out = str(tmp_path / "prog.byc")
        assert main(["compile", prog_path, "-o", out]) == 0
        assert os.path.exists(out)
        assert "units" in capsys.readouterr().out

    def test_disasm_lists_instructions(self, prog_path, capsys):
        assert main(["disasm", prog_path]) == 0
        text = capsys.readouterr().out
        assert "MULINT" in text and "STOP" in text

    def test_compiled_image_runs(self, prog_path, tmp_path, capsys):
        out = str(tmp_path / "prog.byc")
        main(["compile", prog_path, "-o", out])
        capsys.readouterr()
        ck = str(tmp_path / "a.hckp")
        assert main(["run", out, "--checkpoint", ck]) == 0
        assert "42" in capsys.readouterr().out


class TestRunRestart:
    def test_run_and_restart_roundtrip(self, prog_path, tmp_path, capsys):
        ck = str(tmp_path / "cli.hckp")
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking"]) == 0
        captured = capsys.readouterr()
        assert "42" in captured.out
        assert os.path.exists(ck)
        assert main(["restart", prog_path, ck, "--platform", "sp2148"]) == 0
        captured = capsys.readouterr()
        assert "42" in captured.out
        assert "word size" in captured.err

    def test_budget_exit_code(self, prog_path, tmp_path, capsys):
        rc = main(["run", prog_path, "--max-instructions", "3",
                   "--checkpoint", str(tmp_path / "x.hckp")])
        assert rc == 75

    def test_negative_interval_takes_no_checkpoint(self, tmp_path, capsys):
        """``--interval -1`` is off, as ``CHKPT_INTERVAL=-1`` is."""
        prog = tmp_path / "spin.ml"
        prog.write_text("let r = ref 0;;\n"
                        "while !r < 100000 do r := !r + 1 done;;\n"
                        "print_int 1")
        ck = str(tmp_path / "spin.hckp")
        assert main(["run", str(prog), "--checkpoint", ck,
                     "--interval", "-1", "--mode", "blocking"]) == 0
        assert capsys.readouterr().out == "1"
        assert not os.path.exists(ck)

    def test_platforms_lists_table1(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("rodrigo", "csd", "sp2148", "pc8"):
            assert name in out

    def test_info_describes_checkpoint(self, prog_path, tmp_path, capsys):
        ck = str(tmp_path / "i.hckp")
        main(["run", prog_path, "--checkpoint", ck, "--mode", "blocking"])
        capsys.readouterr()
        assert main(["info", ck]) == 0
        out = capsys.readouterr().out
        assert "rodrigo" in out
        assert "32-bit little-endian" in out
        assert "single-threaded" in out

    def test_info_json_is_machine_readable(self, prog_path, tmp_path, capsys):
        import json

        ck = str(tmp_path / "j.hckp")
        main(["run", prog_path, "--checkpoint", ck, "--mode", "blocking"])
        capsys.readouterr()
        assert main(["info", ck, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["platform"] == "rodrigo"
        assert doc["word_bits"] == 32
        assert doc["endianness"] == "little"
        assert doc["path"] == ck
        assert doc["heap"]["chunks"] >= 1
        assert doc["threads"][0]["tid"] == 0
        assert "problems" not in doc  # only --deep validates

    def test_info_json_deep_validates(self, prog_path, tmp_path, capsys):
        import json

        ck = str(tmp_path / "jd.hckp")
        main(["run", prog_path, "--checkpoint", ck, "--mode", "blocking"])
        capsys.readouterr()
        assert main(["info", ck, "--json", "--deep"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["problems"] == []
        assert doc["blocks_by_class"]


class TestRestoreErrorContext:
    """Restore errors must say which file and what format it claims."""

    def _checkpoint(self, prog_path, tmp_path):
        ck = str(tmp_path / "ctx.hckp")
        main(["run", prog_path, "--checkpoint", ck, "--mode", "blocking"])
        return ck

    def test_corrupt_file_error_names_path_and_version(
        self, prog_path, tmp_path, capsys
    ):
        from repro.errors import CheckpointFormatError

        ck = self._checkpoint(prog_path, tmp_path)
        capsys.readouterr()
        data = bytearray(open(ck, "rb").read())
        data[len(data) // 2] ^= 0xFF  # body corruption; magic intact
        open(ck, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError) as exc:
            main(["restart", prog_path, ck])
        msg = str(exc.value)
        assert ck in msg
        assert "format v" in msg
        assert exc.value.path == ck

    def test_garbage_file_reports_undetectable_version(
        self, prog_path, tmp_path
    ):
        from repro.errors import RestartError

        bad = str(tmp_path / "garbage.hckp")
        open(bad, "wb").write(b"this is not a checkpoint at all")
        with pytest.raises(RestartError) as exc:
            main(["restart", prog_path, bad])
        msg = str(exc.value)
        assert bad in msg
        assert "format version undetectable" in msg

    def test_annotation_applied_once(self, prog_path, tmp_path):
        from repro.checkpoint.format import annotate_restore_error
        from repro.errors import RestartError

        ck = self._checkpoint(prog_path, tmp_path)
        err = annotate_restore_error(RestartError("boom"), ck)
        again = annotate_restore_error(err, "/somewhere/else")
        assert again is err
        assert str(err).count(ck) == 1


class TestStoreCLI:
    @pytest.fixture
    def service(self, tmp_path):
        from repro.store import ChunkStore, FleetNode

        server = FleetNode(ChunkStore(str(tmp_path / "store")))
        host, port = server.start()
        yield server, f"{host}:{port}"
        server.stop()

    @pytest.fixture
    def ckpt(self, prog_path, tmp_path, capsys):
        ck = str(tmp_path / "s.hckp")
        main(["run", prog_path, "--checkpoint", ck, "--mode", "blocking"])
        capsys.readouterr()
        return ck

    def test_put_get_ls_roundtrip(self, service, ckpt, tmp_path, capsys):
        _, addr = service
        assert main(["store", "put", "app", ckpt, "--addr", addr]) == 0
        assert "gen 1" in capsys.readouterr().out
        assert main(["store", "ls", "--addr", addr]) == 0
        assert "app gen 1" in capsys.readouterr().out
        out = str(tmp_path / "fetched.hckp")
        assert main(["store", "get", "app", out, "--addr", addr]) == 0
        assert "verified" in capsys.readouterr().out
        assert open(out, "rb").read() == open(ckpt, "rb").read()
        # the fetched checkpoint restarts fine on another platform
        assert main(["restart", str(tmp_path / "prog.ml"), out,
                     "--platform", "ultra64"]) == 0

    def test_gc_stat_audit(self, service, ckpt, capsys):
        import json

        _, addr = service
        main(["store", "put", "app", ckpt, "--addr", addr])
        capsys.readouterr()
        assert main(["store", "gc", "--addr", addr]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert main(["store", "stat", "--addr", addr]) == 0
        assert f"{addr} " in capsys.readouterr().out  # per-shard summary
        assert main(["store", "stat", "--json", "--addr", addr]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert stat["shards"][addr]["objects"] > 0
        assert main(["store", "audit", "--deep", "--addr", addr]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["manifests"] == 1
        assert report["shards"][addr]["objects"] > 0
        # The per-node structural walk (`repro info --deep` validation of
        # each vm's latest checkpoint) is still served to a node-level
        # client over the wire.
        from repro.store import StoreClient

        server, _ = service
        with StoreClient(*server.address) as node:
            deep = node.audit(deep=True)
        assert deep["checkpoints"]["app"]["platform"] == "rodrigo"

    def test_bad_addr_rejected(self, ckpt):
        from repro.errors import StoreError
        from repro.store import FleetClient

        for addr in ("nonsense", "host:abc", ":7440"):
            with pytest.raises(SystemExit, match="bad store address"):
                main(["store", "ls", "--addr", addr])
            # the one parser: the client names the address, typed
            with pytest.raises(StoreError, match=repr(addr)):
                FleetClient([addr])


class TestHACLI:
    @staticmethod
    def _ha_run(tmp_path, *flags: str) -> int:
        from repro.store import ChunkStore, FleetNode

        prog = tmp_path / "work.ml"
        prog.write_text("""
            let i = ref 0;;
            while !i < 20000 do i := !i + 1 done;;
            print_string "n=";;
            print_int !i
        """)
        server = FleetNode(ChunkStore(str(tmp_path / "store")))
        host, port = server.start()
        try:
            return main(["ha", "run", str(prog), "--vm-id", "cli-ha",
                         "--addr", f"{host}:{port}",
                         "--checkpoint-every", "5000",
                         "--fault-min", "15000", "--fault-max", "40000",
                         "--max-faults", "1", *flags])
        finally:
            server.stop()

    @pytest.fixture
    def env(self, monkeypatch):
        """The environment with no ``CHKPT_*`` knob set."""
        for name in list(os.environ):
            if name.startswith("CHKPT_"):
                monkeypatch.delenv(name)
        return monkeypatch

    def test_ha_run_json(self, tmp_path, capsys, env):
        import json

        assert self._ha_run(tmp_path, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"]
        assert doc["stdout"] == "n=20000"
        assert doc["faults_injected"] == 1
        assert len(doc["platforms_visited"]) >= 2
        # Deltas after each first full, and the chain each restart read.
        assert doc["full_checkpoints"] and doc["delta_checkpoints"]
        assert doc["full_checkpoints"] + doc["delta_checkpoints"] == (
            doc["checkpoints"]
        )
        assert len(doc["restart_chain_depths"]) == doc["restarts"]

    def test_ha_run_honours_chkpt_knobs(self, tmp_path, capsys, env):
        import json

        env.setenv("CHKPT_FULL_EVERY", "1")
        assert self._ha_run(tmp_path, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] and doc["checkpoints"]
        assert doc["delta_checkpoints"] == 0
        assert doc["full_checkpoints"] == doc["checkpoints"]
        assert set(doc["restart_chain_depths"]) <= {0}

    @pytest.mark.parametrize("full_every", [None, "1"])
    def test_ha_live_honours_chkpt_knobs(
        self, tmp_path, capsys, env, full_every
    ):
        import json

        from repro.store import ChunkStore, FleetNode

        if full_every is not None:
            env.setenv("CHKPT_FULL_EVERY", full_every)
        prog = tmp_path / "work.ml"
        prog.write_text("""
            let i = ref 0;;
            while !i < 20000 do i := !i + 1 done;;
            print_int !i
        """)
        server = FleetNode(ChunkStore(str(tmp_path / "store")))
        host, port = server.start()
        try:
            rc = main(["ha", "live", str(prog), "--vm-id", "cli-live",
                       "--addr", f"{host}:{port}", "--fault", "none",
                       "--checkpoint-every", "4000", "--json"])
        finally:
            server.stop()
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["client_stdout"] == "20000"
        assert doc["generations_shipped"] >= 3
        assert doc["generations_applied_in_place"] > 0
        if full_every is None:  # deltas after the first full
            assert doc["generations_full"] < doc["generations_shipped"]
        else:  # every generation full: only the first is a rebuild
            assert doc["generations_full"] == doc["generations_shipped"]
            assert doc["generations_rebuilt"] == 1
            assert doc["last_rebuild_reason"] == "full"

    def test_ha_run_summary_line(self, tmp_path, capsys, env):
        assert self._ha_run(tmp_path) == 0
        out, err = capsys.readouterr()
        assert out == "n=20000"
        assert re.search(
            r"checkpoint\(s\) \(\d+ full, \d+ delta\), "
            r"restored chain depths \[\d+\]", err
        ), err


class TestFsckCLI:
    def _checkpoint(self, prog_path, tmp_path, capsys):
        ck = str(tmp_path / "fsck.hckp")
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking"]) == 0
        capsys.readouterr()
        return ck

    def test_healthy_file_exits_zero(self, prog_path, tmp_path, capsys):
        ck = self._checkpoint(prog_path, tmp_path, capsys)
        assert main(["fsck", ck]) == 0
        assert "OK" in capsys.readouterr().out

    def test_damaged_file_exits_nonzero(self, prog_path, tmp_path, capsys):
        ck = self._checkpoint(prog_path, tmp_path, capsys)
        data = bytearray(open(ck, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(ck, "wb").write(bytes(data))
        assert main(["fsck", ck]) != 0

    def test_json_report(self, prog_path, tmp_path, capsys):
        import json as json_mod

        ck = self._checkpoint(prog_path, tmp_path, capsys)
        assert main(["fsck", ck, "--json"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["path"] == ck

    def test_repair_from_store_root(self, prog_path, tmp_path, capsys):
        from repro.store import ChunkStore

        ck = self._checkpoint(prog_path, tmp_path, capsys)
        healthy = open(ck, "rb").read()
        root = str(tmp_path / "store")
        ChunkStore(root).put_checkpoint("vm", healthy)
        data = bytearray(healthy)
        data[len(data) // 2] ^= 0xFF
        open(ck, "wb").write(bytes(data))
        assert main(["fsck", ck, "--repair", "--store-root", root,
                     "--vm-id", "vm"]) == 0
        assert open(ck, "rb").read() == healthy


class TestFaultsCLI:
    def _checkpoint(self, prog_path, tmp_path, capsys):
        ck = str(tmp_path / "faults.hckp")
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking"]) == 0
        capsys.readouterr()
        return ck

    def test_plan_lists_mutations(self, prog_path, tmp_path, capsys):
        ck = self._checkpoint(prog_path, tmp_path, capsys)
        assert main(["faults", "plan", ck, "--seed", "5",
                     "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.strip()]) >= 4

    def test_inject_writes_corrupt_copy(self, prog_path, tmp_path, capsys):
        ck = self._checkpoint(prog_path, tmp_path, capsys)
        out_path = str(tmp_path / "bad.hckp")
        assert main(["faults", "inject", ck, "--seed", "5",
                     "--index", "1", "-o", out_path]) == 0
        original = open(ck, "rb").read()
        damaged = open(out_path, "rb").read()
        assert damaged != original
        assert main(["fsck", out_path]) != 0  # detected as corrupt

    def test_fuzz_small_matrix(self, prog_path, tmp_path, capsys):
        import json as json_mod

        assert main(["faults", "fuzz", "--seed", "3", "--mutations", "4",
                     "--platforms", "rodrigo", "--json"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["mutations"] == 4


class TestRestartFallbackCLI:
    def test_corrupt_head_falls_back_to_retained(
        self, prog_path, tmp_path, capsys
    ):
        ck = str(tmp_path / "gen.hckp")
        # Two runs with --retain 1: second commit rotates the first to .1
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking", "--retain", "1"]) == 0
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking", "--retain", "1"]) == 0
        capsys.readouterr()
        assert os.path.exists(ck + ".1")
        data = bytearray(open(ck, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(ck, "wb").write(bytes(data))
        assert main(["restart", prog_path, ck]) == 0
        captured = capsys.readouterr()
        assert "42" in captured.out
        assert "fell back" in captured.err

    def test_no_fallback_flag_fails_hard(self, prog_path, tmp_path, capsys):
        ck = str(tmp_path / "gen2.hckp")
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking", "--retain", "1"]) == 0
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking", "--retain", "1"]) == 0
        capsys.readouterr()
        data = bytearray(open(ck, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(ck, "wb").write(bytes(data))
        from repro.errors import CheckpointFormatError

        with pytest.raises(CheckpointFormatError):
            main(["restart", prog_path, ck, "--no-fallback"])

    def test_info_reports_integrity_counters(self, prog_path, tmp_path,
                                             capsys):
        import json as json_mod

        ck = str(tmp_path / "info.hckp")
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking"]) == 0
        capsys.readouterr()
        assert main(["info", ck, "--json"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["integrity_verified"] is True
        assert "integrity_counters" in doc
        assert doc["sections"]

    def test_info_json_surfaces_fallback_reason(self, prog_path, tmp_path,
                                                capsys):
        """After a degraded restore, ``info --json`` must say *why* the
        head generation was skipped — which file won, which failed, and
        with what error — so the rot is diagnosable after the fact."""
        import json as json_mod

        from repro.metrics import INTEGRITY

        ck = str(tmp_path / "why.hckp")
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking", "--retain", "1"]) == 0
        assert main(["run", prog_path, "--checkpoint", ck,
                     "--mode", "blocking", "--retain", "1"]) == 0
        capsys.readouterr()
        data = bytearray(open(ck, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(ck, "wb").write(bytes(data))
        INTEGRITY.reset()
        assert main(["restart", prog_path, ck]) == 0
        capsys.readouterr()
        assert main(["info", ck + ".1", "--json"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        fb = doc["integrity_counters"]["last_fallback"]
        assert fb["requested"] == ck
        assert fb["restored"] == ck + ".1"
        assert fb["generations_skipped"] == 1
        (failure,) = fb["failures"]
        assert failure["path"] == ck
        assert failure["error_type"] and failure["error"]
        assert doc["integrity_counters"]["fallback_restores"] >= 1
        assert "replication_counters" in doc


INCREMENTAL_PROGRAM = """
let arr = Array.make 16 0;;
let () = for i = 0 to 15 do arr.(i) <- i * 3 done;;
checkpoint ();;
let () = for i = 0 to 15 do arr.(i) <- arr.(i) + 1 done;;
checkpoint ();;
let () = for i = 0 to 15 do arr.(i) <- arr.(i) + 2 done;;
checkpoint ();;
print_int arr.(9)
"""


class TestIncrementalCLI:
    @pytest.fixture
    def chain(self, tmp_path, capsys):
        prog = tmp_path / "inc.ml"
        prog.write_text(INCREMENTAL_PROGRAM)
        ck = str(tmp_path / "inc.hckp")
        assert main(["run", str(prog), "--checkpoint", ck,
                     "--mode", "blocking", "--incremental",
                     "--retain", "4"]) == 0
        capsys.readouterr()
        return str(prog), ck

    def test_info_shows_delta_kind_and_parent(self, chain, capsys):
        _, ck = chain
        assert main(["info", ck]) == 0
        out = capsys.readouterr().out
        assert "delta (chain depth 2" in out
        assert "parent   : body sha256" in out

    def test_info_deep_validates_merged_chain(self, chain, capsys):
        _, ck = chain
        assert main(["info", ck, "--deep"]) == 0
        out = capsys.readouterr().out
        assert "chain merged" in out
        assert "validation : OK" in out

    def test_info_json_carries_delta_block(self, chain, capsys):
        import json

        _, ck = chain
        assert main(["info", ck, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "delta"
        assert doc["delta"]["chain_depth"] == 2
        assert 0 < doc["delta"]["dirty_ratio"] < 1

    def test_fsck_chain_walks_all_links(self, chain, capsys):
        _, ck = chain
        assert main(["fsck", ck]) == 0
        out = capsys.readouterr().out
        assert f"{ck}: delta [ok]" in out
        assert f"{ck}.2: full [ok]" in out

    def test_fsck_chain_flags_damage(self, chain, capsys):
        _, ck = chain
        data = bytearray(open(ck + ".2", "rb").read())
        data[len(data) // 2] ^= 0x55
        with open(ck + ".2", "wb") as f:
            f.write(bytes(data))
        assert main(["fsck", ck]) == 1
        out = capsys.readouterr().out
        assert f"{ck}: DAMAGED" in out
        assert f"{ck}.2: full [DAMAGED]" in out

    def test_restart_from_delta_head(self, chain, capsys):
        prog, ck = chain
        assert main(["restart", prog, ck, "--platform", "ultra64"]) == 0
        assert "30" in capsys.readouterr().out
