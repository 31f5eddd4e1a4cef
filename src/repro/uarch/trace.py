"""Committed-instruction traces: capture once, replay everywhere.

The paper's evaluation methodology (PTLSim sweeps over fixed binaries)
re-times the *same* committed instruction stream under many machine
configurations.  In this simulator the architectural side of a run --
which instructions commit, each branch outcome, every load/store
address, the final register file and memory image -- is invariant
across widths, port counts, cache geometry, BTB/RAS/DBB sizing and
front-end depth: timing never feeds back into architectural state.
The one exception is the direction predictor of a *decomposed*
program, whose PREDICT instructions architecturally steer the
committed path; a baseline program (no PREDICT/RESOLVE) commits a
predictor-independent stream (``DecodedProgram.has_decomposed``).

Because the stream does not depend on timing, it is captured without
any: :func:`repro.uarch.functional.capture_trace` runs the timing-free
functional interpreter, driving only the direction predictor and the
Decomposed Branch Buffer in commit order, and fills a
:class:`TraceCapture` with compact columnar arrays (``array``/packed-bit
columns).  :class:`Trace` is the immutable result, serialisable to a
zlib-compressed, per-column-checksummed binary container.  The replay
kernels (:mod:`repro.uarch.replay`) re-run only the *timing* machinery
over a trace -- no register values, no memory contents, no evaluator
calls -- and capture -> replay is bit-identical to the execute-driven
``InOrderCore.run`` (see ``tests/golden``,
``tests/uarch/test_trace_replay.py`` and
``tests/uarch/test_capture_differential.py``).

Columns (event-indexed):

========  ==================  =======================================
column    type                one entry per
========  ==================  =======================================
pcs       ``array('i')``      committed instruction (index into the
                              pre-decoded rows, PREDICT/HALT included)
branch_pred   packed bits     conditional branch (predicted taken)
branch_taken  packed bits     conditional branch (actual outcome)
predict_taken packed bits     PREDICT (front-end direction)
resolve_diverted packed bits  RESOLVE (correction-path divert)
load_addrs    ``array('q')``  load (word address)
load_suppressed packed bits   *speculative* load (fault suppressed)
store_addrs   ``array('q')``  store (word address)
ret_targets   ``array('i')``  RET (actual return target)
========  ==================  =======================================

The trace's ``meta`` block carries the final architectural state
(registers, non-zero memory words, suppressed-fault count, halted) so
a replayed :class:`~repro.uarch.core.SimulationResult` is complete --
the golden fingerprints hash exactly this state.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.decode import K_PREDICT, K_RESOLVE, predecode

#: Bump when the trace container layout or column semantics change.
TRACE_SCHEMA = 2

_MAGIC = b"RVTRACE2"

#: Cache artifacts trade a little disk for a lot of CPU: level 1 is
#: ~3x faster to compress than the default with ~20% larger output,
#: and capture-side serialisation sits on the sweep critical path.
_ZLIB_LEVEL = 1

#: (name, array typecode or "bits") in canonical serialisation order.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "i"),
    ("branch_pred", "bits"),
    ("branch_taken", "bits"),
    ("predict_taken", "bits"),
    ("resolve_diverted", "bits"),
    ("load_addrs", "q"),
    ("load_suppressed", "bits"),
    ("store_addrs", "q"),
    ("ret_targets", "i"),
)


class ContainerError(Exception):
    """A column container failed validation (corrupt, truncated,
    malformed or foreign)."""


class TraceError(Exception):
    """A trace failed validation (corrupt, truncated, wrong schema)."""


class TraceMismatch(Exception):
    """A trace cannot legally replay under the requested configuration."""


# ------------------------------------------------------------------ digests


def content_digest(program) -> str:
    """Content hash of a program: every instruction field plus the data
    segment.  Cached on the program instance (like ``predecode``) and
    keyed on the identity of its instruction list."""
    cached = getattr(program, "_content_digest", None)
    if cached is not None and cached[0] == id(program.instructions):
        return cached[1]
    digest = hashlib.sha256()
    digest.update(
        repr(
            [
                (
                    inst.opcode.name,
                    inst.dest,
                    tuple(inst.srcs),
                    repr(inst.imm),
                    inst.target,
                    inst.branch_id,
                    inst.predicted_dir,
                    inst.speculative,
                    inst.hoisted,
                )
                for inst in program.instructions
            ]
        ).encode()
    )
    # The data segment can be large (100k+ words); pack int words
    # straight into an array instead of repr-ing every entry.
    data = program.data
    addresses = sorted(data)
    try:
        digest.update(array("q", addresses).tobytes())
        digest.update(array("q", map(data.__getitem__, addresses)).tobytes())
    except (OverflowError, TypeError):
        digest.update(
            repr([(a, repr(data[a])) for a in addresses]).encode()
        )
    value = digest.hexdigest()
    try:
        program._content_digest = (id(program.instructions), value)
    except AttributeError:
        pass
    return value


def predictor_id(factory) -> Optional[str]:
    """Stable identity of a predictor factory, or ``None`` when the
    factory has no stable cross-process name (lambdas/closures) -- a
    ``None`` id disables trace sharing rather than risking aliasing."""
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return f"{module}.{qualname}"


# ------------------------------------------------------------------ capture


class TraceCapture:
    """Mutable column builder the functional pass fills in commit order
    (:func:`repro.uarch.functional.capture_trace`).

    The eight event columns take raw appends (ints; bit columns take
    0/1 or bools).  ``pcs`` is recorded run-length instead: commits are
    sequential except at control transfers, so the pass appends one
    ``(commits so far, target pc)`` pair to ``redirects`` per transfer
    and :meth:`finish` expands the runs -- the interpreter pays nothing
    per sequential instruction.
    """

    __slots__ = ("redirects",) + tuple(
        name for name, _ in _COLUMNS if name != "pcs"
    )

    def __init__(self) -> None:
        self.redirects = array("q")
        self.branch_pred = bytearray()
        self.branch_taken = bytearray()
        self.predict_taken = bytearray()
        self.resolve_diverted = bytearray()
        self.load_addrs = array("q")
        self.load_suppressed = bytearray()
        self.store_addrs = array("q")
        self.ret_targets = array("i")

    def _expand_pcs(self, committed: int) -> array:
        """The ``pcs`` column: run ``r`` starts at commit index
        ``at[r]`` with pc ``target[r]`` and counts up by one per commit
        until the next run (the first run starts at pc 0)."""
        pairs = np.frombuffer(self.redirects, dtype=np.int64).reshape(-1, 2)
        starts = np.concatenate(([0], pairs[:, 0]))
        targets = np.concatenate(([0], pairs[:, 1]))
        counts = np.diff(np.append(starts, committed))
        pcs = np.arange(committed, dtype=np.int64) + np.repeat(
            targets - starts, counts
        )
        column = array("i")
        column.frombytes(pcs.astype(np.int32).tobytes())
        return column

    def finish(
        self,
        program,
        registers,
        memory,
        committed: int,
        halted: bool,
        max_instructions: int,
        predictor: Optional[str],
    ) -> "Trace":
        """Freeze the capture into a :class:`Trace`.

        ``registers``, ``memory`` (a :class:`~repro.isa.Memory`),
        ``committed`` and ``halted`` are the final architectural state
        of the capturing pass; they travel in the trace's ``meta`` so
        replay can return a complete result.
        """
        decoded = predecode(program)
        pcs = self._expand_pcs(committed)
        meta = {
            "schema": TRACE_SCHEMA,
            "program": content_digest(program),
            "name": program.name,
            "budget": max_instructions,
            "predictor": predictor,
            "has_decomposed": decoded.has_decomposed,
            "committed": len(pcs),
            "halted": bool(halted),
            "faults_suppressed": memory.faults_suppressed,
            "registers": list(registers),
            # (address, value) tuples: they serialise to the same JSON
            # pairs that a decoded trace carries as lists.
            "memory": list(memory.snapshot()),
        }
        columns = {
            name: getattr(self, name) for name, _ in _COLUMNS if name != "pcs"
        }
        return Trace(meta, pcs=pcs, **columns)


#: numpy dtype per column typecode (the bit columns are 0/1-per-byte
#: bytearrays, viewed as uint8).
_NP_DTYPES = {"i": np.int32, "q": np.int64, "bits": np.uint8}


class Trace:
    """Immutable captured instruction stream plus final state.

    Besides the raw ``array``/``bytearray`` columns, a trace lazily
    exposes zero-copy numpy *views* of each column (:meth:`column`) and
    carries a replay-preparation cache (``repro.uarch.replay_vec``
    stores its precomputed kind-index/redirect/cache-level arrays here
    so one trace replayed across a whole sweep pays for the
    vectorized precompute once).  Both are derived state: they never
    change the captured stream, and :meth:`nbytes` accounts for them
    so the artifact store's LRU budget sees the true footprint.
    """

    __slots__ = ("meta", "_views", "_prep", "_backing", "_digest") + tuple(
        name for name, _ in _COLUMNS
    )

    def __init__(self, meta: Dict, **columns) -> None:
        self.meta = meta
        for name, _ in _COLUMNS:
            setattr(self, name, columns[name])
        #: name -> cached numpy view of the column buffer (zero-copy).
        self._views: Dict[str, np.ndarray] = {}
        #: Replay precompute cache (owned by repro.uarch.replay_vec).
        self._prep = None
        #: Keep-alive for an external buffer the columns view into (a
        #: ``multiprocessing.shared_memory`` handle when the trace was
        #: attached through the shared trace plane); ``None`` for
        #: traces that own their columns.
        self._backing = None
        #: Lazily computed :meth:`content_digest` (columns are
        #: immutable after capture, so one hash serves forever).
        self._digest: Optional[str] = None

    @classmethod
    def from_views(
        cls, meta: Dict, views: Dict[str, np.ndarray], backing=None
    ) -> "Trace":
        """Build a trace whose columns are externally-backed numpy
        views (zero-copy attach -- see :mod:`repro.experiments.plane`).

        ``views`` must carry every canonical column with the canonical
        dtype; ``backing`` is any object that must stay alive as long
        as the views do (e.g. the ``SharedMemory`` handle).  The views
        behave exactly like owned columns: ``len``/indexing/iteration
        work as usual, and :meth:`column` returns them directly.
        """
        missing = [name for name, _ in _COLUMNS if name not in views]
        if missing:
            raise TraceError(f"missing attached columns: {missing}")
        trace = cls(meta, **{name: views[name] for name, _ in _COLUMNS})
        trace._views = dict(views)
        trace._backing = backing
        return trace

    @property
    def committed(self) -> int:
        return len(self.pcs)

    def column(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of one column.

        ``array('i')``/``array('q')`` columns view as int32/int64; the
        0/1-per-byte bit columns view as uint8.  Views share the
        column's buffer -- they cost no extra memory and stay valid for
        the trace's lifetime (columns are never mutated after capture).
        """
        view = self._views.get(name)
        if view is None:
            for cname, typecode in _COLUMNS:
                if cname == name:
                    column = getattr(self, name)
                    if isinstance(column, np.ndarray):
                        view = column  # attached trace: already a view
                    else:
                        view = np.frombuffer(
                            column, dtype=_NP_DTYPES[typecode]
                        )
                    break
            else:
                raise KeyError(name)
            self._views[name] = view
        return view

    def nbytes(self) -> int:
        """In-memory footprint (for LRU budgeting): raw columns plus
        any replay-preparation arrays cached on the trace.  Column
        views are zero-copy and cost nothing extra."""
        total = 0
        for name, typecode in _COLUMNS:
            column = getattr(self, name)
            if typecode == "bits":
                total += len(column)
            else:
                total += len(column) * column.itemsize
        prep = self._prep
        if prep is not None:
            total += prep.nbytes()
        return total

    def content_digest(self) -> str:
        """Content hash of the *captured stream itself*: the identity
        meta fields plus every column's raw bytes.

        The program digest in ``meta`` identifies what was run; this
        digest identifies what was recorded -- derived artifacts keyed
        on it (the persisted replay-prep slices of
        :mod:`repro.uarch.replay_vec`) invalidate automatically when a
        recapture produces different columns (new budget, new
        predictor steering a decomposed program, a semantics change
        reflected in ``meta['program']``).  Cached after the first
        call; columns never mutate after capture.
        """
        if self._digest is not None:
            return self._digest
        digest = hashlib.sha256()
        identity = {
            name: self.meta.get(name)
            for name in (
                "schema", "program", "budget", "predictor",
                "has_decomposed", "committed", "halted",
            )
        }
        digest.update(
            json.dumps(identity, sort_keys=True).encode()
        )
        for name, typecode in _COLUMNS:
            column = getattr(self, name)
            if isinstance(column, np.ndarray):
                raw = column.tobytes()
            elif typecode == "bits":
                raw = bytes(column)
            else:
                raw = column.tobytes()
            digest.update(name.encode())
            digest.update(raw)
        self._digest = digest.hexdigest()
        return self._digest

    def max_outstanding_predicts(self, program) -> int:
        """High-water mark of PREDICTs awaiting their RESOLVE.

        Mirrors ``DecomposedBranchBuffer`` exactly: +1 per insert
        (PREDICT), floor-at-zero decrement per resolve -- the DBB's
        occupancy statistic is independent of its size, so the
        ablation sweep reads it off the trace instead of the core.
        Computed array-at-a-time: the reflected-at-zero running sum
        ``o_i = c_i - min(0, min_{j<=i} c_j)`` of the +1/-1 event
        deltas, so the peak falls out of two accumulations.
        """
        rows = predecode(program).rows
        if not len(self.pcs):
            return 0
        kind_by_pc = np.fromiter(
            (row[0] for row in rows), dtype=np.int8, count=len(rows)
        )
        kinds = kind_by_pc[self.column("pcs")]
        delta = np.zeros(len(kinds), dtype=np.int64)
        delta[kinds == K_PREDICT] = 1
        delta[kinds == K_RESOLVE] = -1
        walk = np.cumsum(delta)
        floor = np.minimum(np.minimum.accumulate(walk), 0)
        peak = int(np.max(walk - floor, initial=0))
        return peak

    # -------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """Binary container (:func:`pack_columns`): the trace magic, the
        schema and ``meta`` in the header, then every column in
        canonical order."""
        return pack_columns(
            _MAGIC,
            {"schema": TRACE_SCHEMA, "meta": self.meta},
            [(name, self.column(name)) for name, _ in _COLUMNS],
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Trace":
        """Parse and *validate* a container; raises :class:`TraceError`
        on any corruption (bad magic/schema, truncation, checksum or
        count mismatch) so callers can quarantine the file."""
        try:
            header, arrays = unpack_columns(_MAGIC, blob)
        except ContainerError as exc:
            raise TraceError(str(exc)) from None
        if header.get("schema") != TRACE_SCHEMA:
            raise TraceError(f"wrong schema: {header.get('schema')!r}")
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise TraceError("malformed header")
        if list(arrays) != [name for name, _ in _COLUMNS]:
            raise TraceError("unexpected column set")
        columns = {}
        for name, typecode in _COLUMNS:
            values = arrays[name]
            if values.dtype != _NP_DTYPES[typecode]:
                raise TraceError(f"unexpected dtype in column {name!r}")
            if typecode == "bits":
                columns[name] = bytearray(values)
            else:
                columns[name] = array(typecode)
                columns[name].frombytes(values.tobytes())
        if len(columns["pcs"]) != meta.get("committed"):
            raise TraceError("committed count disagrees with pcs column")
        return cls(meta, **columns)


# ------------------------------------------------------------ column codec
#
# One container format serves every persisted column set (traces here,
# replay-prep slices in :mod:`repro.uarch.replay_vec`):
#
#     magic (8 bytes) | header length (uint32 LE) | zlib(JSON header)
#     | one zlib payload per column, in header order
#
# The header is the caller's fields plus ``byteorder`` and one
# descriptor per column: ``name``, the declared ``dtype`` it decodes
# to, the stored encoding ``enc``, ``count``, ``zlen`` and the
# ``sha256`` of the compressed payload.  Integer columns are stored in
# the narrowest encoding that holds their range -- packed bits for 0/1
# data, else the smallest (u)int dtype -- and widened back on read.

#: Candidate storage dtypes, narrowest first (unsigned before signed
#: at each width, so non-negative data takes the unsigned one).
_NARROW_DTYPES = tuple(
    np.dtype(t)
    for t in (
        np.uint8, np.int8, np.uint16, np.int16,
        np.uint32, np.int32, np.uint64, np.int64,
    )
)


def _narrowest(values: np.ndarray) -> str:
    """Storage encoding of one integer column: ``"bits"`` for 0/1 data
    (and empty columns), else the ``dtype.str`` of the narrowest
    integer dtype holding its range."""
    if not values.size:
        return "bits"
    low, high = int(values.min()), int(values.max())
    if low >= 0 and high <= 1:
        return "bits"
    for dtype in _NARROW_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype.str
    raise ValueError(f"no integer dtype holds [{low}, {high}]")


def pack_columns(magic: bytes, header: Dict, columns) -> bytes:
    """Serialise 1-D integer/bool numpy ``columns`` (``(name, array)``
    pairs) and the JSON-able ``header`` fields behind ``magic``."""
    payloads: List[bytes] = []
    descriptors: List[Dict] = []
    for name, values in columns:
        if values.ndim != 1 or values.dtype.kind not in "biu":
            raise ValueError(f"column {name!r} is not a 1-D integer array")
        enc = _narrowest(values)
        if enc == "bits":
            raw = np.packbits(values, bitorder="little").tobytes()
        else:
            raw = values.astype(enc, copy=False).tobytes()
        blob = zlib.compress(raw, _ZLIB_LEVEL)
        payloads.append(blob)
        descriptors.append(
            {
                "name": name,
                "dtype": values.dtype.str,
                "enc": enc,
                "count": int(values.size),
                "zlen": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
            }
        )
    head = zlib.compress(
        json.dumps(
            dict(header, byteorder=sys.byteorder, columns=descriptors),
            sort_keys=True,
        ).encode(),
        _ZLIB_LEVEL,
    )
    return b"".join([magic, struct.pack("<I", len(head)), head] + payloads)


def _integer_dtype(spec) -> np.dtype:
    dtype = np.dtype(spec)
    if dtype.kind not in "biu":
        raise ValueError(f"not an integer dtype: {spec!r}")
    return dtype


def unpack_columns(magic: bytes, blob) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """``(header, name -> column)`` of a :func:`pack_columns` container.

    ``blob`` is any bytes-like object (a memoryview over shared memory
    included); every returned column is a fresh array of its declared
    dtype, so nothing keeps ``blob`` alive.  Raises
    :class:`ContainerError` on a wrong magic, truncation, a checksum or
    length mismatch, or a malformed header -- never returns a partial
    column set.  Bytes past the last payload are ignored."""
    start = len(magic) + 4
    if len(blob) < start or bytes(blob[: len(magic)]) != magic:
        raise ContainerError("bad magic")
    (header_len,) = struct.unpack_from("<I", blob, len(magic))
    offset = start + header_len
    if offset > len(blob):
        raise ContainerError("truncated header")
    try:
        header = json.loads(zlib.decompress(blob[start:offset]))
    except (ValueError, zlib.error) as exc:
        raise ContainerError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict) or not isinstance(
        header.get("columns"), list
    ):
        raise ContainerError("malformed header")
    if header.get("byteorder") != sys.byteorder:
        raise ContainerError("foreign byte order")
    columns: Dict[str, np.ndarray] = {}
    for descriptor in header["columns"]:
        try:
            name = descriptor["name"]
            dtype = _integer_dtype(descriptor["dtype"])
            enc = descriptor["enc"]
            stored = None if enc == "bits" else _integer_dtype(enc)
            count = int(descriptor["count"])
            zlen = int(descriptor["zlen"])
            digest = descriptor["sha256"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ContainerError(f"bad descriptor: {exc}") from None
        chunk = blob[offset : offset + zlen]
        if zlen < 0 or len(chunk) != zlen:
            raise ContainerError(f"truncated column {name!r}")
        if hashlib.sha256(chunk).hexdigest() != digest:
            raise ContainerError(f"checksum mismatch in column {name!r}")
        offset += zlen
        try:
            raw = zlib.decompress(chunk)
        except zlib.error as exc:
            raise ContainerError(
                f"undecompressable column {name!r}: {exc}"
            ) from None
        expected = (count + 7) >> 3 if stored is None else (
            count * stored.itemsize
        )
        if count < 0 or len(raw) != expected:
            raise ContainerError(f"count mismatch in column {name!r}")
        if stored is None:
            values = np.unpackbits(
                np.frombuffer(raw, np.uint8), count=count, bitorder="little"
            )
        else:
            values = np.frombuffer(raw, stored)
        columns[name] = values.astype(dtype)
    return header, columns
