"""Shared-memory trace plane: publish decoded traces once per machine.

The artifact store's trace fast path still paid a per-*process* tax:
every pool worker that needed a trace re-read the zlib RVTRACE1
container from disk and re-inflated it into fresh column arrays,
because the hot-trace LRU lives inside each worker.  Across a sweep
that is one redundant decompress per (worker x trace), and a
watchdog respawn throws even that warmth away.

This module publishes *decoded* trace columns into
``multiprocessing.shared_memory`` segments keyed by the trace's
content-addressed store key.  The first worker to load a trace (from
disk or by capturing it) publishes the columns once; every other
worker -- including freshly respawned ones -- maps the segment and
builds a :class:`~repro.uarch.trace.Trace` whose columns are zero-copy
``np.frombuffer`` views over the shared buffer.  No inflate, no copy,
no per-worker duplication of column memory.

Segment layout (one segment per trace)::

    [0:8]    magic  b"RPSHM1\\x00\\x00"   -- written LAST (readiness flag)
    [8:12]   header length (uint32 LE)
    [12:..]  JSON header {"meta": ..., "columns": [{name,type,count,
             offset,nbytes}, ...]}
    ...      raw column payloads, 8-byte aligned, uncompressed
             (bit columns stay 0/1-per-byte so attach is zero-copy)

Lifecycle -- leak-proof by construction:

* Publishing happens in *workers*; the engine owns cleanup.  Every
  segment name starts with a run-scoped prefix the engine exports as
  ``REPRO_SHM_PREFIX`` for the duration of one :meth:`map` call.
* Creation races are benign: the loser of a create race simply
  attaches to the winner's segment.  A reader that maps a segment
  before its magic lands treats it as absent and falls back to disk.
* Python's ``resource_tracker`` registers POSIX segments on *both*
  create and attach (bpo-38119), which would let a dying worker's
  tracker unlink segments other processes still use -- so every
  handle is unregistered immediately and ownership is explicit: the
  engine unlinks everything under its prefix when the run ends
  (normally, on ``KeyboardInterrupt``, and again via ``atexit`` as a
  backstop), scanning ``/dev/shm`` so even segments created by a
  worker that was killed mid-job -- whose names the parent never
  learned -- are reclaimed.

The plane also carries *replay-prep slices* (:func:`publish_prep` /
:func:`attach_prep`): the serialised derived layers of
:mod:`repro.uarch.replay_vec`, published once by whichever worker
built them so siblings inflate the predictor bits, cache-level and BTB
tables from the segment instead of recomputing them.  A prep segment
holds the compressed container verbatim (the same bytes as the disk
blob), so attaching one inflates it; only trace segments are mapped
zero-copy.  Prep segments live under the same run prefix (tagged
``p``), so the engine's run-end sweep reclaims them identically.

``REPRO_SHM=0`` disables the plane entirely (workers fall back to the
per-process LRU + disk container path, bit-identically).
"""

from __future__ import annotations

import atexit
import json
import os
import pathlib
import secrets
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..uarch.replay_vec import PREP_MAGIC
from ..uarch.trace import _COLUMNS, _NP_DTYPES, Trace
from . import faults

#: Readiness flag; a segment without it is still being written.
_MAGIC = b"RPSHM1\x00\x00"

#: Environment variable carrying the run-scoped segment-name prefix.
#: Set by the engine around one ``map`` call; its presence is what
#: activates the plane inside workers.
PREFIX_ENV = "REPRO_SHM_PREFIX"

#: Segment names stay short (POSIX shm names are limited to ~31 chars
#: on some platforms): prefix (11 chars) + 16 key chars.
_KEY_CHARS = 16


def shm_enabled() -> bool:
    """The ``REPRO_SHM`` knob (default on)."""
    from .engine import _env_flag

    return _env_flag("REPRO_SHM", True)


def shm_available() -> bool:
    try:
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - always present on CPython
        return False
    return True


def new_prefix() -> str:
    """A fresh run-scoped segment-name prefix, e.g. ``rpshm3fa9c1``."""
    return "rpshm" + secrets.token_hex(3)


def active_prefix() -> Optional[str]:
    """The run prefix exported by the engine, when the plane is live."""
    if not shm_enabled():
        return None
    prefix = os.environ.get(PREFIX_ENV, "").strip()
    return prefix or None


def segment_name(prefix: str, key: str) -> str:
    return prefix + key[:_KEY_CHARS]


def _unregister(shm) -> None:
    """Detach a handle from the resource tracker: segment lifetime is
    owned by the engine's run-end cleanup, not by whichever process
    happened to touch the segment first."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _align(offset: int) -> int:
    return (offset + 7) & ~7


# ------------------------------------------------------------------ publish


def publish_trace(key: str, trace: Trace) -> Optional[str]:
    """Publish a trace's columns under the active run prefix.

    Returns the segment name when this call created the segment,
    ``None`` when the plane is inactive or the segment already exists
    (someone else won the create race -- equally fine).  Never raises:
    a full ``/dev/shm`` or an exotic platform degrades to the disk
    path, not to a failed job.
    """
    prefix = active_prefix()
    if prefix is None:
        return None
    try:
        return _publish(prefix, key, trace)
    except Exception:
        return None


def _publish(prefix: str, key: str, trace: Trace) -> Optional[str]:
    from multiprocessing import shared_memory

    name = segment_name(prefix, key)
    payloads: List[Tuple[str, str, int, bytes]] = []
    for cname, typecode in _COLUMNS:
        column = getattr(trace, cname)
        if isinstance(column, np.ndarray):
            raw = column.tobytes()
        elif isinstance(column, bytearray):
            raw = bytes(column)
        else:  # array('i') / array('q')
            raw = column.tobytes()
        payloads.append((cname, typecode, len(column), raw))

    descriptors = []
    offset = 0  # filled after the header length is known
    body = 0
    for cname, typecode, count, raw in payloads:
        body = _align(body)
        descriptors.append(
            {
                "name": cname,
                "type": typecode,
                "count": count,
                "offset": body,
                "nbytes": len(raw),
            }
        )
        body += len(raw)
    header = json.dumps(
        {"meta": trace.meta, "columns": descriptors}, sort_keys=True
    ).encode()
    data_start = _align(len(_MAGIC) + 4 + len(header))
    total = max(1, data_start + body)

    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    except FileExistsError:
        return None
    _unregister(shm)
    try:
        buf = shm.buf
        struct.pack_into("<I", buf, len(_MAGIC), len(header))
        buf[len(_MAGIC) + 4 : len(_MAGIC) + 4 + len(header)] = header
        for descriptor, (_, _, _, raw) in zip(descriptors, payloads):
            offset = data_start + descriptor["offset"]
            buf[offset : offset + len(raw)] = raw
        # Readiness flag last: a concurrent attacher either sees the
        # magic (and therefore every byte written before it) or treats
        # the segment as absent.
        buf[: len(_MAGIC)] = _MAGIC
        if faults.should_leak_shm(key):
            # Simulate a worker that died between creating a segment
            # and publishing it: an abandoned, never-ready sibling the
            # run-end sweep must reclaim.
            try:
                stray = shared_memory.SharedMemory(
                    name=name + "L", create=True, size=16
                )
                _unregister(stray)
                stray.close()
            except Exception:
                pass
    finally:
        shm.close()
    return name


# ----------------------------------------------------------- prep segments
#
# A prep segment is one serialised slice.  The container's own magic
# (``replay_vec.PREP_MAGIC``) doubles as the segment readiness flag: it
# is copied into the segment *last*, same discipline as the trace plane.


def prep_segment_name(prefix: str, key: str) -> str:
    """Prep segments share the run prefix (so run-end cleanup sweeps
    them too) but carry a ``p`` tag so a trace key and a prep key can
    never collide within the 16-char name budget."""
    return prefix + "p" + key[: _KEY_CHARS - 1]


def publish_prep(key: str, blob: bytes) -> Optional[str]:
    """Publish a serialised prep slice under the active run prefix.

    Same contract as :func:`publish_trace`: returns the segment name
    when this call created it, ``None`` when the plane is inactive or
    someone else won the create race; never raises."""
    prefix = active_prefix()
    if prefix is None or len(blob) <= len(PREP_MAGIC):
        return None
    try:
        from multiprocessing import shared_memory

        name = prep_segment_name(prefix, key)
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=len(blob)
            )
        except FileExistsError:
            return None
        _unregister(shm)
        try:
            buf = shm.buf
            buf[len(PREP_MAGIC) : len(blob)] = blob[len(PREP_MAGIC) :]
            # Readiness flag last (the container magic itself).
            buf[: len(PREP_MAGIC)] = blob[: len(PREP_MAGIC)]
        finally:
            shm.close()
        return name
    except Exception:
        return None


def attach_prep(key: str) -> Optional[memoryview]:
    """Map a published prep slice; returns the segment's buffer (the
    serialised container, possibly with page-rounding slack the parser
    ignores) or ``None`` when inactive/absent/not-yet-ready.  The
    caller inflates the container into fresh arrays, after which the
    mapping is released with the last reference to the buffer."""
    prefix = active_prefix()
    if prefix is None:
        return None
    try:
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(
                name=prep_segment_name(prefix, key)
            )
        except (FileNotFoundError, OSError, ValueError):
            return None
        _unregister(shm)
        if bytes(shm.buf[: len(PREP_MAGIC)]) != PREP_MAGIC:
            _close_quietly(shm)
            return None  # mid-publish: not ready yet
        return _disarm(shm)
    except Exception:
        return None


# ------------------------------------------------------------------- attach


def attach_trace(key: str) -> Optional[Trace]:
    """Map a published trace; ``None`` when the plane is inactive, the
    segment is absent, or it is not (yet) readable -- the caller falls
    back to the disk container, so this can never fail a job."""
    prefix = active_prefix()
    if prefix is None:
        return None
    try:
        return _attach(segment_name(prefix, key))
    except Exception:
        return None


def _disarm(shm) -> memoryview:
    """Take the mapping away from a ``SharedMemory`` handle.

    The handle's ``__del__`` insists on closing the mmap, which raises
    ``BufferError`` while numpy column views still point into it --
    exactly the normal state of an attached trace at interpreter
    shutdown.  Instead: close the fd now (not needed once mapped),
    neuter the handle, and return the buffer memoryview.  The chain
    ndarray -> memoryview -> mmap then unmaps itself when the last
    view dies, and the OS reclaims the memory once the engine has
    additionally unlinked the segment name.
    """
    buf, fd = shm._buf, shm._fd
    shm._buf = None
    shm._mmap = None
    shm._fd = -1
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:
            pass
    return buf


def _close_quietly(shm) -> None:
    try:
        shm.close()
    except Exception:
        pass


def _attach(name: str) -> Optional[Trace]:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return None
    _unregister(shm)
    try:
        buf = shm.buf
        if bytes(buf[: len(_MAGIC)]) != _MAGIC:
            _close_quietly(shm)
            return None  # mid-publish: not ready yet
        (header_len,) = struct.unpack_from("<I", buf, len(_MAGIC))
        header = json.loads(
            bytes(buf[len(_MAGIC) + 4 : len(_MAGIC) + 4 + header_len])
        )
        meta = header["meta"]
        descriptors = header["columns"]
        if [(d["name"], d["type"]) for d in descriptors] != list(_COLUMNS):
            _close_quietly(shm)
            return None
        data_start = _align(len(_MAGIC) + 4 + header_len)
        views: Dict[str, np.ndarray] = {}
        for descriptor in descriptors:
            views[descriptor["name"]] = np.frombuffer(
                buf,
                dtype=_NP_DTYPES[descriptor["type"]],
                count=descriptor["count"],
                offset=data_start + descriptor["offset"],
            )
    except Exception:
        _close_quietly(shm)
        return None
    # The trace keeps the mapping alive through ``backing``; on Linux
    # the kernel keeps the memory valid for mapped processes even
    # after the engine unlinks the segment name at run end.
    return Trace.from_views(meta, views, backing=_disarm(shm))


# ------------------------------------------------------------------ cleanup

#: Prefixes this process is responsible for unlinking at exit (a
#: backstop for runs that die without reaching the engine's cleanup).
_LIVE_PREFIXES: set = set()
_ATEXIT_REGISTERED = False


def register_run(prefix: str) -> None:
    global _ATEXIT_REGISTERED
    _LIVE_PREFIXES.add(prefix)
    if not _ATEXIT_REGISTERED:
        atexit.register(_cleanup_all)
        _ATEXIT_REGISTERED = True


def _cleanup_all() -> None:  # pragma: no cover - exit-time backstop
    for prefix in list(_LIVE_PREFIXES):
        cleanup_run(prefix)


def list_segments(prefix: str) -> List[str]:
    """Names of live segments under ``prefix`` (Linux: /dev/shm scan)."""
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    try:
        return sorted(
            p.name for p in shm_dir.iterdir() if p.name.startswith(prefix)
        )
    except OSError:
        return []


def cleanup_run(prefix: str) -> int:
    """Unlink every segment under ``prefix``; returns how many went.

    Run-end cleanup: called by the engine when a ``map`` call finishes
    (normally or via Ctrl-C), after the pool has shut down.  Scanning
    the segment namespace -- rather than trusting a registry -- is
    what makes a worker killed between create and report leak-proof.
    """
    removed = 0
    shm_dir = pathlib.Path("/dev/shm")
    if shm_dir.is_dir():
        for name in list_segments(prefix):
            try:
                os.unlink(shm_dir / name)
                removed += 1
            except OSError:
                pass
    else:  # pragma: no cover - non-Linux fallback
        from multiprocessing import shared_memory

        # Without a scannable namespace the best effort is attaching
        # by derived name; unknown keys cannot be enumerated.
        try:
            shm = shared_memory.SharedMemory(name=prefix)
        except Exception:
            shm = None
        if shm is not None:
            _unregister(shm)
            try:
                shm.unlink()
                removed += 1
            finally:
                shm.close()
    _LIVE_PREFIXES.discard(prefix)
    return removed
