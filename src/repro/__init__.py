"""Virtual-machine based heterogeneous checkpointing.

A full reproduction of Agbaria & Friedman, *Virtual Machine Based
Heterogeneous Checkpointing* (IPPS 2002): an OCaml-VM-style byte-code
virtual machine (tagged values, generational GC, ZINC interpreter,
green threads, channels) running on simulated heterogeneous platforms
(32/64-bit, little/big-endian, with/without ``fork``), plus the paper's
checkpoint/restart mechanism that saves state in native representation
and converts it lazily on restart.

Quickstart::

    from repro import VirtualMachine, compile_source, get_platform, restart_vm

    code = compile_source('''
        let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2);;
        checkpoint ();;
        print_int (fib 20)
    ''')
    vm = VirtualMachine(get_platform("rodrigo"), code)
    vm.config.chkpt_filename = "app.ckpt"
    print(vm.run().stdout)

    # ... later, on a different architecture:
    vm2, stats = restart_vm(get_platform("sp2148"), code, "app.ckpt")
    print(vm2.run().stdout)
"""

from repro.arch import (
    Architecture,
    Endianness,
    OSFamily,
    Platform,
    PLATFORMS,
    get_platform,
)
from repro.bytecode import CodeImage, disassemble
from repro.checkpoint import (
    CheckpointStats,
    CheckpointWriter,
    RestartStats,
    read_checkpoint,
    restart_vm,
)
from repro.errors import (
    CheckpointError,
    CheckpointFormatError,
    CompileError,
    ReproError,
    RestartError,
    StoreError,
    VMRuntimeError,
)
from repro.minilang import compile_source
from repro.vm import RunResult, VirtualMachine, VMConfig

__version__ = "1.0.0"

__all__ = [
    "Architecture",
    "Endianness",
    "OSFamily",
    "Platform",
    "PLATFORMS",
    "get_platform",
    "CodeImage",
    "disassemble",
    "CheckpointStats",
    "CheckpointWriter",
    "RestartStats",
    "read_checkpoint",
    "restart_vm",
    "CheckpointError",
    "CheckpointFormatError",
    "CompileError",
    "ReproError",
    "RestartError",
    "StoreError",
    "VMRuntimeError",
    "compile_source",
    "RunResult",
    "VirtualMachine",
    "VMConfig",
    "__version__",
]
