"""Baseline: homogeneous core-dump checkpointing.

The conventional approach the paper contrasts against (§1, §5.1):
"checkpoint can simply be done by dumping the process core", relying on
identical architecture, OS *and* address-space layout at restart.  This
implementation dumps every memory area in full — free heap space, the
empty young generation, entire stack capacities — with no boundary
table, no tags consulted, no conversion support.  Restart refuses
anything but the exact same platform, and restores by plain copy (no
pointer adjustment is needed precisely because the layout must match).

Used by the A2 ablation benchmark to reproduce the paper's file-size
claim: VM-level checkpoints are smaller because they save only the
logical state.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CheckpointFormatError, IncompatibleCheckpointError
from repro.memory.layout import AreaKind, MemoryArea
from repro.threads.thread import BlockKind, ThreadState, VMThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm import VirtualMachine

_MAGIC = b"COREDUMP"


class HomogeneousCheckpointer:
    """Core-dump style save/restore for one VM."""

    def __init__(self, vm: "VirtualMachine") -> None:
        self.vm = vm

    # -- save --------------------------------------------------------------

    def save(self, path: str) -> int:
        """Dump the whole process image; returns the file size."""
        vm = self.vm
        vm.interp.save_to_thread(vm.sched.current)
        arch = vm.platform.arch
        dtype = np.dtype(arch.numpy_dtype)
        out = bytearray()
        out += _MAGIC
        name = vm.platform.name.encode()
        out += struct.pack("<I", len(name)) + name
        out += vm.code.digest()
        # Every mapped area, in full (free space included).
        areas = list(vm.mem.space.areas())
        out += struct.pack("<I", len(areas))
        for a in areas:
            label = a.label.encode()
            out += struct.pack("<I", len(label)) + label
            out += struct.pack("<QQ", a.base, a.n_words)
            arr = np.asarray(a.words, dtype=np.uint64) & np.uint64(arch.word_mask)
            out += arr.astype(dtype).tobytes()
        # The text segment too — a core dump has it all.
        code_bytes = vm.code.to_bytes()
        out += struct.pack("<I", len(code_bytes)) + code_bytes
        # Raw register/thread state (pickle-free, but layout-bound).
        out += struct.pack("<I", len(vm.sched.threads))
        for tid in sorted(vm.sched.threads):
            t = vm.sched.threads[tid]
            out += struct.pack(
                "<IQQQQqQQQ",
                t.tid,
                t.pc,
                t.accu,
                t.env,
                t.stack.sp,
                t.extra_args,
                t.blocked_on,
                t.pending_mutex,
                t.trapsp,
            )
            state = t.state.value.encode()
            out += struct.pack("<I", len(state)) + state
            kind = t.block_kind.value.encode()
            out += struct.pack("<I", len(kind)) + kind
        out += struct.pack(
            "<QQQ",
            vm.mem.heap.freelist_head,
            vm.global_data,
            vm.sched.current.tid,
        )
        # Allocator state that lives outside the memory image.
        out += struct.pack("<QQ", vm.mem.minor._next, vm.mem.cglobals._next)
        reftable = sorted(vm.mem.reftable)
        out += struct.pack("<I", len(reftable))
        for addr in reftable:
            out += struct.pack("<Q", addr)
        out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(out)
        os.replace(tmp, path)
        return len(out)

    # -- restore -----------------------------------------------------------------

    def restore(self, path: str) -> None:
        """Restore the dump into this VM (same platform required)."""
        vm = self.vm
        with open(path, "rb") as f:
            data = f.read()
        if data[:8] != _MAGIC:
            raise CheckpointFormatError("not a core dump")
        (crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(data[:-4]) & 0xFFFFFFFF != crc:
            raise CheckpointFormatError("core dump CRC mismatch")
        off = 8
        (nlen,) = struct.unpack_from("<I", data, off)
        off += 4
        platform_name = data[off : off + nlen].decode()
        off += nlen
        if platform_name != vm.platform.name:
            raise IncompatibleCheckpointError(
                f"core dump from {platform_name!r} cannot restart on "
                f"{vm.platform.name!r}: homogeneous checkpoints are "
                f"architecture- and layout-bound"
            )
        digest = data[off : off + 32]
        off += 32
        if digest != vm.code.digest():
            raise IncompatibleCheckpointError("core dump from another program")
        arch = vm.platform.arch
        dtype = np.dtype(arch.numpy_dtype)
        (n_areas,) = struct.unpack_from("<I", data, off)
        off += 4
        by_label = {a.label: a for a in vm.mem.space.areas()}
        for _ in range(n_areas):
            (llen,) = struct.unpack_from("<I", data, off)
            off += 4
            label = data[off : off + llen].decode()
            off += llen
            base, n_words = struct.unpack_from("<QQ", data, off)
            off += 16
            raw = data[off : off + n_words * arch.word_bytes]
            off += len(raw)
            words = [int(w) for w in np.frombuffer(raw, dtype=dtype).astype(np.uint64)]
            area = by_label.get(label)
            if area is None:
                area = self._recreate_area(label, base, n_words)
            if label == "main-stack" and area.n_words != n_words:
                # The dumped stack had grown; match its capacity (the
                # high end is layout-fixed, so the base lines up again).
                vm.main_stack.replace_capacity(n_words)
                area = vm.main_stack.area
            if area.base != base or area.n_words != n_words:
                raise IncompatibleCheckpointError(
                    f"area {label!r} moved ({area.base:#x} != {base:#x}): "
                    f"core dumps require identical layout"
                )
            area.words[:] = words
        # The restored image replaced chunk contents wholesale; the
        # incrementally maintained header maps no longer describe them.
        for chunk in vm.mem.heap.chunks:
            chunk.header_map = None
        (clen,) = struct.unpack_from("<I", data, off)
        off += 4 + clen  # the text segment: verified by digest already
        (n_threads,) = struct.unpack_from("<I", data, off)
        off += 4
        for _ in range(n_threads):
            tid, pc, accu, env, sp, extra, blocked_on, pending, trapsp = (
                struct.unpack_from("<IQQQQqQQQ", data, off)
            )
            off += struct.calcsize("<IQQQQqQQQ")
            (slen,) = struct.unpack_from("<I", data, off)
            off += 4
            state = data[off : off + slen].decode()
            off += slen
            (klen,) = struct.unpack_from("<I", data, off)
            off += 4
            kind = data[off : off + klen].decode()
            off += klen
            t = vm.sched.threads.get(tid)
            if t is None:
                stack_label = f"thread-stack-{tid}"
                stack_area = next(
                    a for a in vm.mem.space.areas() if a.label == stack_label
                )
                from repro.memory.stack import VMStack

                stack = VMStack.__new__(VMStack)
                stack.space = vm.mem.space
                stack.arch = arch
                stack._wb = arch.word_bytes
                stack._wshift = arch.word_bytes.bit_length() - 1
                stack._base = stack_area.base
                stack.max_words = vm.platform.layout.thread_stride // arch.word_bytes
                stack.label = stack_label
                stack._bind_area(stack_area)
                stack.sp = sp
                stack.realloc_count = 0
                stack.on_grow = None
                t = VMThread(tid, stack, vm.mem.values.val_unit)
                vm.sched.adopt(t)
            t.pc = pc
            t.accu = accu
            t.env = env
            t.stack.sp = sp
            t.extra_args = extra
            t.blocked_on = blocked_on
            t.pending_mutex = pending
            t.trapsp = trapsp
            t.state = ThreadState(state)
            t.block_kind = BlockKind(kind)
        freelist, global_data, current_tid = struct.unpack_from("<QQQ", data, off)
        off += 24
        minor_next, cglobal_next = struct.unpack_from("<QQ", data, off)
        off += 16
        (n_refs,) = struct.unpack_from("<I", data, off)
        off += 4
        reftable = set(struct.unpack_from(f"<{n_refs}Q", data, off))
        vm.mem.heap.freelist_head = freelist
        vm.global_data = global_data
        vm.mem.minor._next = minor_next
        vm.mem.cglobals._next = cglobal_next
        vm.mem.reftable = reftable
        vm.sched.current = vm.sched.threads[current_tid]
        vm.interp.load_from_thread(vm.sched.current)
        vm.restarted = True

    def _recreate_area(self, label: str, base: int, n_words: int) -> MemoryArea:
        """Recreate a heap chunk or thread stack the fresh VM lacks."""
        vm = self.vm
        if label.startswith("heap-chunk-"):
            area = MemoryArea(
                AreaKind.HEAP_CHUNK, base, n_words, vm.platform.arch, label=label
            )
            vm.mem.heap.adopt_chunk(area)
            return area
        if label.startswith("thread-stack-"):
            area = MemoryArea(
                AreaKind.THREAD_STACK, base, n_words, vm.platform.arch, label=label
            )
            vm.mem.space.map(area)
            return area
        raise IncompatibleCheckpointError(f"unexpected area {label!r} in dump")
