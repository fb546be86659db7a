"""Command-line interface.

Mirrors how the paper's modified ``ocamlrun`` is driven: a program image
plus the CHKPT_* environment variables (also exposed as flags).

Commands::

    python -m repro compile prog.ml -o prog.byc
    python -m repro disasm prog.byc
    python -m repro run prog.ml  --platform rodrigo --checkpoint app.hckp
    python -m repro trace prog.ml [--top 15] [--json]
    python -m repro restart prog.ml app.hckp --platform sp2148
    python -m repro platforms
    python -m repro info app.hckp [--json] [--deep]
    python -m repro schema dump [--json | --markdown]
    python -m repro fsck app.hckp [--repair --addr host:port --vm-id myapp]
    python -m repro faults plan|inject|fuzz ...
    python -m repro store serve --root /var/ckpt --port 7420
    python -m repro store put|get|ls|gc|stat|audit --addr host:port ...
    python -m repro store fleet serve --root /var/fleet --shards 3
    python -m repro store fleet rebalance --addr a:p,b:p,c:p
    python -m repro ha run prog.ml --addr host:port --vm-id myapp

A comma-separated ``--addr`` list makes every store/ha command route
across the sharded fleet instead of one daemon.

``run`` and ``restart`` accept either MiniML source (``.ml``) or a
compiled image (``.byc``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.arch.platforms import PLATFORMS, get_platform
from repro.bytecode.disassembler import disassemble
from repro.bytecode.image import CodeImage
from repro.checkpoint.format import read_checkpoint
from repro.checkpoint.reader import restart_vm
from repro.minilang import compile_source
from repro.vm import VirtualMachine, VMConfig, knobs


def _load_code(path: str) -> CodeImage:
    """Load a program: compile .ml sources, deserialize .byc images."""
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".byc"):
        return CodeImage.from_bytes(data)
    return compile_source(data.decode(), name=os.path.basename(path))


def _config_from(args: argparse.Namespace) -> VMConfig:
    """The environment's config, overridden by every knob flag given."""
    cfg = VMConfig.from_env(os.environ)
    for name, _, _ in knobs():
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def _argparse_type(parse):
    """A knob's parser as an argparse type: a refused value is a usage
    error (exit 2) carrying the parser's message."""

    def parse_flag(raw: str):
        try:
            return parse(raw)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse_flag


def _add_knob_flags(sp: argparse.ArgumentParser) -> None:
    """One flag per knob that has one.  An absent flag sets no attribute,
    so the environment (or the default) stands."""
    for name, default, knob in knobs():
        if knob.flag is None:
            continue
        takes = (
            {"action": "store_const", "const": True}
            if isinstance(default, bool)
            else {"type": _argparse_type(knob.parse),
                  "metavar": knob.flag[2:].upper()}
        )
        help_text = knob.meaning.replace("`", "")
        if knob.env:
            help_text += f" ({knob.env})"
        sp.add_argument(knob.flag, dest=name, default=argparse.SUPPRESS,
                        help=help_text, **takes)


def cmd_compile(args: argparse.Namespace) -> int:
    code = _load_code(args.source)
    out = args.output or os.path.splitext(args.source)[0] + ".byc"
    with open(out, "wb") as f:
        f.write(code.to_bytes())
    print(f"wrote {out}: {len(code.units)} units, "
          f"{code.n_globals} globals, digest {code.digest().hex()[:16]}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    print(disassemble(_load_code(args.source)))
    return 0


def cmd_platforms(_args: argparse.Namespace) -> int:
    for name in sorted(PLATFORMS):
        print(PLATFORMS[name].describe())
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    if args.json:
        from repro.checkpoint.inspect import describe_checkpoint
        from repro.metrics import (
            FLEET,
            INTEGRITY,
            REPLICATION,
            RESTART,
            STORE,
        )

        desc = describe_checkpoint(args.checkpoint_file, deep=args.deep)
        desc["integrity_counters"] = INTEGRITY.as_dict()
        desc["store_counters"] = STORE.as_dict()
        desc["fleet_counters"] = FLEET.as_dict()
        desc["replication_counters"] = REPLICATION.as_dict()
        desc["restart_counters"] = RESTART.as_dict()
        print(json.dumps(desc, indent=2, sort_keys=True))
        return 0 if desc.get("ok", True) else 1
    snap = read_checkpoint(args.checkpoint_file)
    h = snap.header
    print(f"checkpoint: {args.checkpoint_file}")
    if snap.delta is not None:
        d = snap.delta
        print(f"  kind     : delta (chain depth {d.chain_depth}, "
              f"{d.dirty_words}/{d.total_words} words dirty = "
              f"{d.dirty_ratio:.1%})")
        print(f"  parent   : body sha256 {d.parent_sha256.hex()[:16]}...")
    else:
        print("  kind     : full")
    if snap.chunk_index is None:
        index_note = "no block index (restart discovers blocks by walking)"
    else:
        n_blocks = sum(int(pos.size) for pos, _ in snap.chunk_index)
        index_note = f"block-extent index over {n_blocks} block(s)"
    print(f"  format   : v{h.format_version}, {index_note}")
    if snap.sections:
        print(f"  integrity: trailer verified "
              f"({len(snap.sections)} section CRCs + SHA-256)")
        for s in snap.sections:
            print(f"    {s.name:<10s} bytes {s.offset:>8d}..{s.end:<8d} "
                  f"crc32 {s.crc32:08x}")
    print(f"  taken on : {h.platform_name} ({h.word_bytes * 8}-bit "
          f"{h.endianness.value}-endian, {h.os_name})")
    print(f"  program  : {h.code_len} units, digest {h.code_digest.hex()[:16]}")
    print(f"  app type : {'multi' if h.multithreaded else 'single'}-threaded, "
          f"{len(snap.threads)} thread(s), current tid {h.current_tid}")
    heap_words = sum(len(w) for _, w in snap.heap_chunks)
    print(f"  heap     : {len(snap.heap_chunks)} chunk(s), {heap_words} words")
    for t in snap.threads:
        print(f"  thread {t.tid}: {t.state}, {len(t.stack_words)} stack words")
    print(f"  channels : {len(snap.channels)}")
    if args.deep:
        from repro.checkpoint.inspect import inspect_snapshot

        if snap.delta is not None:
            from repro.checkpoint.reader import load_snapshot_chain

            snap = load_snapshot_chain(args.checkpoint_file)
            print("deep validation (chain merged):")
        else:
            print("deep validation:")
        report = inspect_snapshot(snap)
        for line in report.render().splitlines():
            print(f"  {line}")
        return 0 if report.ok else 1
    return 0


def cmd_schema_dump(args: argparse.Namespace) -> int:
    from repro.checkpoint.schema import FormatProfile
    from repro.checkpoint.schema.render import render_markdown

    if args.markdown:
        sys.stdout.write(render_markdown())
    else:
        print(json.dumps(
            [p.describe() for p in FormatProfile.all()],
            indent=2, sort_keys=True,
        ))
    return 0


def _finish(result) -> int:
    sys.stdout.buffer.write(result.vm.channels.stdout_bytes())
    sys.stdout.buffer.flush()
    if result.status == "budget":
        print("\n[budget exhausted]", file=sys.stderr)
        return 75
    return result.exit_code


def cmd_run(args: argparse.Namespace) -> int:
    code = _load_code(args.source)
    vm = VirtualMachine(get_platform(args.platform), code, _config_from(args))
    result = vm.run(max_instructions=args.max_instructions)
    if vm.checkpoints_taken:
        print(f"[{vm.checkpoints_taken} checkpoint(s) written to "
              f"{vm.config.chkpt_filename}]", file=sys.stderr)
    return _finish(result)


def cmd_trace(args: argparse.Namespace) -> int:
    """Profile a program: opcode histogram + hot consecutive pairs.

    Runs under :class:`repro.tracing.InstructionTracer` (which forces
    the reference dispatch tier — the fast tier has no per-instruction
    hook).  The hot-pair table is the data the superinstruction fusion
    table in ``src/repro/bytecode/decoded.py`` is chosen from.
    """
    from repro.tracing import InstructionTracer

    code = _load_code(args.source)
    cfg = _config_from(args)
    # Profiling run: a `checkpoint ()` in the program must not abort it
    # (trace has no --checkpoint option, so no filename is configured).
    cfg.chkpt_state = "disable"
    vm = VirtualMachine(get_platform(args.platform), code, cfg)
    tracer = InstructionTracer(limit=args.ring)
    vm.interp.trace_hook = tracer
    result = vm.run(max_instructions=args.max_instructions)
    histogram = tracer.opcode_histogram()
    pairs = tracer.hot_pairs(args.top)
    if args.json:
        print(json.dumps({
            "program": args.source,
            "platform": args.platform,
            "status": result.status,
            "instructions": result.instructions,
            "opcode_histogram": histogram,
            "hot_pairs": [
                {"first": a, "second": b, "count": n} for a, b, n in pairs
            ],
        }, indent=2, sort_keys=True))
        return 0
    print(f"{args.source}: {result.instructions} instruction(s), "
          f"status {result.status}")
    print(f"\nopcode histogram (top {args.top}):")
    for name, n in list(histogram.items())[:args.top]:
        print(f"  {name:<16s} {n:>10d}  {100.0 * n / tracer.total:5.1f}%")
    print(f"\nhot opcode pairs (top {args.top}):")
    for a, b, n in pairs:
        print(f"  {a:<16s}+ {b:<16s} {n:>10d}")
    return 0


def cmd_restart(args: argparse.Namespace) -> int:
    from repro.checkpoint.reader import restart_vm_with_fallback

    code = _load_code(args.source)
    restore = restart_vm if args.no_fallback else restart_vm_with_fallback
    vm, stats = restore(
        get_platform(args.platform), code, args.checkpoint_file,
        _config_from(args),
    )
    conv = []
    if stats.converted_endianness:
        conv.append("endianness")
    if stats.converted_word_size:
        conv.append("word size")
    print(f"[restarted on {args.platform}; converted: "
          f"{', '.join(conv) if conv else 'nothing'}; "
          f"{stats.total_seconds * 1e3:.1f} ms]", file=sys.stderr)
    if stats.lazy:
        print(f"[lazy restore: {stats.lazy_chunks_converted}/"
              f"{stats.lazy_chunks_total} chunks converted eagerly; "
              f"time-to-first-output {stats.total_seconds * 1e3:.1f} ms]",
              file=sys.stderr)
    if stats.restored_path and stats.restored_path != args.checkpoint_file:
        print(f"[fell back to previous generation {stats.restored_path}]",
              file=sys.stderr)
    result = vm.run(max_instructions=args.max_instructions)
    return _finish(result)


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.checkpoint.fsck import (
        ClientSource,
        LocalStoreSource,
        fsck_chain,
    )

    source = None
    client = None
    if args.store_root:
        from repro.store import ChunkStore

        source = LocalStoreSource(ChunkStore(args.store_root))
    elif args.repair:
        client = _store_client(args)
        source = ClientSource(client)
    try:
        report = fsck_chain(
            args.checkpoint_file,
            repair=args.repair,
            source=source,
            vm_id=args.vm_id,
            generation=args.generation,
        )
    finally:
        if client is not None:
            client.close()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        status = "OK" if report["ok"] else "DAMAGED"
        print(f"{report['path']}: {status} (action: {report['action']})")
        for link in report.get("links", []):
            mark = "ok" if link["ok"] else "DAMAGED"
            print(f"  {link['path']}: {link['kind']} [{mark}]")
        for p in report["problems"]:
            print(f"  - {p.get('error', p)}")
        if report["sections_repaired"]:
            print(f"  repaired {report['sections_repaired']} section(s) "
                  f"({report['chunks_fetched']} chunk(s) fetched)")
    return 0 if report["ok"] else 1


def cmd_faults_plan(args: argparse.Namespace) -> int:
    from repro.checkpoint.format import read_section_table
    from repro.faults import plan_mutations

    with open(args.checkpoint_file, "rb") as f:
        data = f.read()
    plan = plan_mutations(
        len(data), args.seed, args.count,
        section_table=read_section_table(data),
    )
    for i, m in enumerate(plan):
        print(f"{i:4d}  {m.describe()}")
    return 0


def cmd_faults_inject(args: argparse.Namespace) -> int:
    from repro.checkpoint.format import read_section_table
    from repro.faults import apply_mutation, plan_mutations

    with open(args.checkpoint_file, "rb") as f:
        data = f.read()
    plan = plan_mutations(
        len(data), args.seed, args.index + 1,
        section_table=read_section_table(data),
    )
    m = plan[args.index]
    out = args.output or args.checkpoint_file + ".corrupt"
    with open(out, "wb") as f:
        f.write(apply_mutation(data, m))
    print(f"{out}: {m.describe()}")
    return 0


def cmd_faults_fuzz(args: argparse.Namespace) -> int:
    from repro.faults.fuzz import fuzz_matrix

    report = fuzz_matrix(
        seed=args.seed,
        mutations=args.mutations,
        platforms=args.platforms.split(",") if args.platforms else None,
        progress=lambda msg: print(f"[{msg}]", file=sys.stderr),
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        o = report["outcomes"]
        links = report["mutated_links"]
        print(f"corruption matrix: {report['mutations']} mutation(s) "
              f"({links['delta']} on a delta, {links['full']} on a full) "
              f"and {sum(report['scenarios'].values())} link scenario(s) "
              f"over {report['pairs']} platform pair(s)")
        print(f"  detected + recovered : {o['detected_and_recovered']}")
        print(f"  clean restores       : {o['clean_restore']}")
        print(f"  invariant violations : {len(report['failures'])}")
        for f in report["failures"]:
            print(f"  FAIL {f['pair']}: {f['case']} -> {f['problem']}")
    return 0 if report["ok"] else 1


def _parse_addr(addr: str) -> tuple[str, int]:
    from repro.errors import StoreError
    from repro.store.client import parse_addr

    try:
        return parse_addr(addr)
    except StoreError as e:
        raise SystemExit(f"repro: {e}") from None


def _store_client(args: argparse.Namespace):
    """The checkpoint client for ``--addr``: one ``host:port`` or several,
    comma-separated — a single daemon is a 1-shard fleet."""
    from repro.store import FleetClient

    return FleetClient(_store_addrs(args), retries=args.retries)


def _store_addrs(args: argparse.Namespace) -> list[tuple[str, int]]:
    """Every shard ``--addr`` names, comma-separated."""
    addrs = [_parse_addr(a) for a in args.addr.split(",") if a]
    if not addrs:
        raise SystemExit(f"repro: bad --addr {args.addr!r} (no addresses)")
    return addrs


def _serve_nodes(nodes, banner: str) -> int:
    """Run store daemons until interrupted."""
    import time

    addrs = [node.start() for node in nodes]
    joined = ",".join(f"{h}:{p}" for h, p in addrs)
    print(f"{banner} on {joined}", file=sys.stderr)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        for node in nodes:
            node.stop()
    return 0


def cmd_store_serve(args: argparse.Namespace) -> int:
    from repro.store import ChunkStore, FleetNode

    replicas = [_parse_addr(a) for a in args.replica]
    node = FleetNode(
        ChunkStore(args.root),
        host=args.host,
        port=args.port,
        replicas=replicas,
        heartbeat_interval=args.heartbeat,
    )
    return _serve_nodes(
        [node],
        f"store serving {args.root} ({len(replicas)} replica(s))",
    )


def cmd_store_put(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        generation, stats = client.put_checkpoint_file(args.vm_id, args.file)
    print(f"{args.vm_id} gen {generation}: "
          f"{stats.chunks_new}/{stats.chunks_total} new chunk(s), "
          f"dedup {stats.dedup_ratio:.2f}x")
    return 0


def cmd_store_get(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        manifest = client.get_checkpoint_file(
            args.vm_id, args.output, generation=args.generation
        )
    print(f"{args.vm_id} gen {manifest.generation} -> {args.output} "
          f"({manifest.payload_len} bytes, verified)")
    return 0


def cmd_store_ls(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        listing = client.ls()
    vms = listing.get("vms", {})
    for vm_id in sorted(vms):
        if args.vm_id and vm_id != args.vm_id:
            continue
        for entry in vms[vm_id]:
            print(f"{vm_id} gen {entry['generation']}: "
                  f"{entry['payload_len']} bytes, "
                  f"{entry['chunks']} chunk(s)")
    print(f"[{listing.get('objects', 0)} object(s) in store]", file=sys.stderr)
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        result = client.gc()
    print(f"gc: removed {result['removed']} unreferenced chunk(s), "
          f"kept {result['kept']}, freed {result['bytes_freed']} bytes")
    return 0


def cmd_store_stat(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        stat = client.stat()
    if args.json:
        print(json.dumps(stat, indent=2, sort_keys=True))
        return 0
    # Without --json: a compact per-shard summary.
    for addr in sorted(stat["shards"]):
        shard = stat["shards"][addr]
        drain = " (draining)" if shard.get("draining") else ""
        vms = shard.get("vms", [])
        print(f"{addr} [{shard.get('node_id', '?')}]{drain}: "
              f"{shard.get('objects', 0)} object(s), "
              f"{len(vms)} vm(s), epoch {shard.get('epoch', 0)}")
    ring = stat.get("ring", {})
    own = ring.get("ownership", {})
    if own:
        arcs = ", ".join(f"{n}={own[n]:.2f}" for n in sorted(own))
        print(f"ring: {ring.get('vnodes')} vnode(s)/node, ownership {arcs}")
    return 0


def cmd_store_fleet_serve(args: argparse.Namespace) -> int:
    from repro.store import ChunkStore, FleetNode

    if args.shards < 1:
        raise SystemExit("repro: --shards must be >= 1")
    nodes = []
    for i in range(args.shards):
        shard_id = f"shard-{i:02d}"
        root = os.path.join(args.root, shard_id)
        port = args.port + i if args.port else 0
        nodes.append(
            FleetNode(ChunkStore(root), host=args.host, port=port,
                      node_id=shard_id)
        )
    return _serve_nodes(
        nodes, f"fleet serving {args.shards} shard(s) under {args.root}"
    )


def cmd_store_fleet_rebalance(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        result = client.rebalance()
    print(f"rebalance: moved {result['manifests_moved']} manifest(s) and "
          f"{result['chunks_moved']} chunk(s), removed {result['removed']} "
          f"chunk(s), freed {result['bytes_freed']} bytes")
    return 0


def cmd_store_audit(args: argparse.Namespace) -> int:
    with _store_client(args) as client:
        report = client.audit(deep=args.deep)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report.get("ok") else 1


def cmd_ha_run(args: argparse.Namespace) -> int:
    from repro.store import HASupervisor

    code = _load_code(args.source)
    with _store_client(args) as client:
        supervisor = HASupervisor(
            code,
            client,
            args.vm_id,
            start_platform=args.platform,
            checkpoint_every=args.checkpoint_every,
            fault_budgets=(args.fault_min, args.fault_max),
            max_faults=args.max_faults,
            seed=args.seed,
            # Environment knobs reach the protected VM; the supervisor
            # still owns its file, mode, cadence and delta policy.
            config=VMConfig.from_env(os.environ),
        )
        report = supervisor.run()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.buffer.write(report.stdout)
        sys.stdout.buffer.flush()
        print(f"[ha: {report.faults_injected} fault(s), "
              f"{report.restarts} restart(s), "
              f"{report.checkpoints} checkpoint(s) "
              f"({report.full_checkpoints} full, "
              f"{report.delta_checkpoints} delta), "
              f"restored chain depths {report.restart_chain_depths}, "
              f"platforms {' -> '.join(report.platforms_visited)}]",
              file=sys.stderr)
    return 0 if report.completed else 1


def cmd_ha_live(args: argparse.Namespace) -> int:
    from repro.replication import LiveHA

    code = _load_code(args.source)
    ha = LiveHA(
        code,
        _store_addrs(args),
        args.vm_id,
        primary_platform=args.primary,
        standby_platform=args.standby,
        checkpoint_every=args.checkpoint_every,
        schedule=args.fault,
        seed=args.seed,
        config=VMConfig.from_env(os.environ),
    )
    report = ha.run()
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.buffer.write(report.client_stdout)
        sys.stdout.buffer.flush()
        takeover = (
            f", takeover {report.takeover_seconds * 1e3:.1f} ms"
            if report.takeover_seconds is not None
            else ""
        )
        rebuilt = (
            f", last for '{report.last_rebuild_reason}'"
            if report.generations_rebuilt
            else ""
        )
        print(f"[ha live: schedule {report.schedule}, "
              f"{report.generations_shipped} generation(s) replicated "
              f"{report.primary_platform} -> {report.standby_platform} "
              f"({report.generations_applied_in_place} folded in place, "
              f"{report.generations_rebuilt} rebuilt{rebuilt}), "
              f"{report.promotions} promotion(s), "
              f"{report.fenced_demotions} fenced demotion(s)"
              f"{takeover}]",
              file=sys.stderr)
    return 0 if report.completed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Virtual-machine based heterogeneous checkpointing",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile MiniML to a portable image")
    c.add_argument("source")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_compile)

    d = sub.add_parser("disasm", help="disassemble a program")
    d.add_argument("source")
    d.set_defaults(fn=cmd_disasm)

    pl = sub.add_parser("platforms", help="list the simulated platforms")
    pl.set_defaults(fn=cmd_platforms)

    i = sub.add_parser("info", help="describe a checkpoint file")
    i.add_argument("checkpoint_file")
    i.add_argument("--deep", action="store_true",
                   help="walk and validate every heap block and stack word")
    i.add_argument("--json", action="store_true",
                   help="emit the description as machine-readable JSON")
    i.set_defaults(fn=cmd_info)

    sc = sub.add_parser(
        "schema", help="the declarative checkpoint section-codec registry")
    scsub = sc.add_subparsers(dest="schema_command", required=True)
    sd = scsub.add_parser(
        "dump", help="dump every format profile: sections, flags, layouts")
    sd.add_argument("--json", action="store_true",
                    help="emit the profiles as machine-readable JSON "
                         "(the default)")
    sd.add_argument("--markdown", action="store_true",
                    help="emit the markdown tables embedded in "
                         "docs/FILE_FORMAT.md")
    sd.set_defaults(fn=cmd_schema_dump)

    fk = sub.add_parser(
        "fsck", help="verify a checkpoint and the delta chain it heads "
                     "(a full file is a chain of one); repair from a "
                     "store replica")
    fk.add_argument("checkpoint_file")
    fk.add_argument("--repair", action="store_true",
                    help="re-fetch damaged sections from the store")
    fk.add_argument("--store-root", default=None,
                    help="repair from a local store directory instead of "
                         "a daemon")
    fk.add_argument("--addr", default="127.0.0.1:7420", metavar="HOST:PORT",
                    help="store daemon address (with --repair)")
    fk.add_argument("--retries", type=int, default=3,
                    help="transport retries per request")
    fk.add_argument("--vm-id", default=None,
                    help="store id holding the replica")
    fk.add_argument("--generation", type=int, default=None,
                    help="replica generation (default: latest)")
    fk.add_argument("--json", action="store_true",
                    help="emit the fsck report as JSON")
    fk.set_defaults(fn=cmd_fsck)

    fl = sub.add_parser(
        "faults", help="deterministic corruption/crash fault injection")
    flsub = fl.add_subparsers(dest="faults_command", required=True)

    fp = flsub.add_parser("plan", help="print the seeded mutation plan "
                                       "for a checkpoint file")
    fp.add_argument("checkpoint_file")
    fp.add_argument("--seed", type=int, default=2002)
    fp.add_argument("--count", type=int, default=20)
    fp.set_defaults(fn=cmd_faults_plan)

    fi = flsub.add_parser("inject", help="apply one planned mutation")
    fi.add_argument("checkpoint_file")
    fi.add_argument("--seed", type=int, default=2002)
    fi.add_argument("--index", type=int, default=0,
                    help="which mutation of the plan to apply")
    fi.add_argument("-o", "--output", default=None,
                    help="output file (default: <file>.corrupt)")
    fi.set_defaults(fn=cmd_faults_inject)

    ff = flsub.add_parser(
        "fuzz", help="run the corruption matrix: mutate a delta chain's "
                     "head and full base and damage its links, across "
                     "platform pairs, and check every restore detects "
                     "or recovers")
    ff.add_argument("--seed", type=int, default=2002)
    ff.add_argument("--mutations", type=int, default=200)
    ff.add_argument("--platforms", default=None,
                    help="comma-separated platform names "
                         "(default: one per architecture class)")
    ff.add_argument("--json", action="store_true")
    ff.set_defaults(fn=cmd_faults_fuzz)

    st = sub.add_parser("store", help="checkpoint store daemon and client")
    stsub = st.add_subparsers(dest="store_command", required=True)

    sv = stsub.add_parser("serve", help="run a store daemon")
    sv.add_argument("--root", required=True, help="store directory")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7420)
    sv.add_argument("--replica", action="append", default=[],
                    metavar="HOST:PORT",
                    help="follower store to replicate to (repeatable)")
    sv.add_argument("--heartbeat", type=float, default=2.0,
                    help="follower heartbeat interval in seconds")
    sv.set_defaults(fn=cmd_store_serve)

    def store_common(sp):
        sp.add_argument("--addr", default="127.0.0.1:7420",
                        metavar="HOST:PORT[,HOST:PORT...]",
                        help="store daemon address(es); several, comma-"
                             "separated, are the shards of a fleet")
        sp.add_argument("--retries", type=int, default=3,
                        help="transport retries per request")

    sp_put = stsub.add_parser("put", help="upload a checkpoint file")
    sp_put.add_argument("vm_id")
    sp_put.add_argument("file")
    store_common(sp_put)
    sp_put.set_defaults(fn=cmd_store_put)

    sp_get = stsub.add_parser("get", help="download a checkpoint file")
    sp_get.add_argument("vm_id")
    sp_get.add_argument("output")
    sp_get.add_argument("--generation", type=int, default=None,
                        help="generation to fetch (default: latest)")
    store_common(sp_get)
    sp_get.set_defaults(fn=cmd_store_get)

    sp_ls = stsub.add_parser("ls", help="list stored checkpoints")
    sp_ls.add_argument("vm_id", nargs="?", default=None)
    store_common(sp_ls)
    sp_ls.set_defaults(fn=cmd_store_ls)

    sp_gc = stsub.add_parser("gc", help="drop unreferenced chunks")
    store_common(sp_gc)
    sp_gc.set_defaults(fn=cmd_store_gc)

    sp_stat = stsub.add_parser("stat", help="per-shard store statistics")
    sp_stat.add_argument("--json", action="store_true",
                         help="full JSON detail (per-shard counts, ring "
                              "ownership ranges, fleet counters)")
    store_common(sp_stat)
    sp_stat.set_defaults(fn=cmd_store_stat)

    sp_audit = stsub.add_parser("audit", help="verify store integrity")
    sp_audit.add_argument("--deep", action="store_true",
                          help="also validate reassembled checkpoints")
    store_common(sp_audit)
    sp_audit.set_defaults(fn=cmd_store_audit)

    fl = stsub.add_parser("fleet", help="sharded store fleet")
    flsub = fl.add_subparsers(dest="fleet_command", required=True)

    fl_serve = flsub.add_parser(
        "serve", help="run N shard daemons under one root")
    fl_serve.add_argument("--root", required=True,
                          help="fleet directory (one shard-XX/ per node)")
    fl_serve.add_argument("--shards", type=int, default=3,
                          help="number of shard daemons")
    fl_serve.add_argument("--host", default="127.0.0.1")
    fl_serve.add_argument("--port", type=int, default=7430,
                          help="first shard port; shard i listens on "
                               "port+i (0 = ephemeral)")
    fl_serve.set_defaults(fn=cmd_store_fleet_serve)

    fl_reb = flsub.add_parser(
        "rebalance", help="move manifests/chunks to their ring owners")
    store_common(fl_reb)
    fl_reb.set_defaults(fn=cmd_store_fleet_rebalance)

    ha = sub.add_parser("ha", help="high-availability supervision")
    hasub = ha.add_subparsers(dest="ha_command", required=True)

    hr = hasub.add_parser(
        "run", help="run a program under fault injection with store-backed "
                    "checkpoints and heterogeneous auto-restart")
    hr.add_argument("source")
    hr.add_argument("--vm-id", required=True, help="store id for checkpoints")
    hr.add_argument("--platform", default="rodrigo",
                    choices=sorted(PLATFORMS))
    hr.add_argument("--checkpoint-every", type=int, default=20_000,
                    help="instructions between checkpoints")
    hr.add_argument("--fault-min", type=int, default=30_000,
                    help="minimum instructions before an injected fault")
    hr.add_argument("--fault-max", type=int, default=120_000,
                    help="maximum instructions before an injected fault")
    hr.add_argument("--max-faults", type=int, default=3)
    hr.add_argument("--seed", type=int, default=2002)
    hr.add_argument("--json", action="store_true",
                    help="emit the full HA report as JSON")
    store_common(hr)
    hr.set_defaults(fn=cmd_ha_run)

    hl = hasub.add_parser(
        "live", help="run with warm-standby continuous replication: "
                     "committed delta generations stream to a resident "
                     "standby VM on another platform; failover is a lease "
                     "claim, not a restore")
    hl.add_argument("source")
    hl.add_argument("--vm-id", required=True,
                    help="store id for the epoch lease (split-brain guard)")
    hl.add_argument("--primary", default="rodrigo",
                    choices=sorted(PLATFORMS),
                    help="platform the primary runs on")
    hl.add_argument("--standby", default=None,
                    choices=sorted(PLATFORMS),
                    help="platform the standby keeps its resident VM on "
                         "(default: a fully-heterogeneous peer)")
    hl.add_argument("--checkpoint-every", type=int, default=20_000,
                    help="instructions between replicated generations")
    hl.add_argument("--fault", default="crash",
                    choices=["none", "crash", "partition"],
                    help="seeded fault schedule: none (oracle), crash "
                         "(primary dies; standby promotes), partition "
                         "(isolated primary is fenced by the lease)")
    hl.add_argument("--seed", type=int, default=2002)
    hl.add_argument("--json", action="store_true",
                    help="emit the full live-replication report as JSON")
    store_common(hl)
    hl.set_defaults(fn=cmd_ha_live)

    def common(sp):
        sp.add_argument("--platform", default="rodrigo",
                        choices=sorted(PLATFORMS))
        _add_knob_flags(sp)
        sp.add_argument("--max-instructions", type=int, default=None)

    r = sub.add_parser("run", help="run a program on a simulated platform")
    r.add_argument("source")
    common(r)
    r.set_defaults(fn=cmd_run)

    t = sub.add_parser(
        "trace", help="profile a program: opcode histogram + hot pairs")
    t.add_argument("source")
    t.add_argument("--platform", default="rodrigo",
                   choices=sorted(PLATFORMS))
    t.add_argument("--top", type=int, default=15,
                   help="how many histogram rows / hot pairs to print")
    t.add_argument("--ring", type=int, default=10_000,
                   help="instruction ring-buffer size")
    t.add_argument("--max-instructions", type=int, default=None)
    t.add_argument("--json", action="store_true",
                   help="emit the profile as machine-readable JSON")
    t.set_defaults(fn=cmd_trace)

    rs = sub.add_parser("restart", help="restart a checkpoint")
    rs.add_argument("source")
    rs.add_argument("checkpoint_file")
    rs.add_argument("--no-fallback", action="store_true",
                    help="fail instead of walking the generation chain "
                         "when the newest checkpoint is damaged")
    common(rs)
    rs.set_defaults(fn=cmd_restart)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
