"""The shared column codec (``repro.uarch.trace.pack_columns`` /
``unpack_columns``) and the prep-slice container built on it.

Traces and replay-prep slices persist through one format: integer
columns are stored in the narrowest encoding holding their range and
widened back to their declared dtype on read, each behind its own
checksum.  A damaged prep container must be rejected whole: the
artifact store then rebuilds the slice, so a rejection costs a
recompute while a misread would be a wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.branchpred import GSharePredictor, HybridPredictor
from repro.ir import lower
from repro.uarch import MachineConfig, Trace, capture_trace, replay_vec
from repro.uarch.trace import pack_columns, unpack_columns
from repro.workloads import spec_benchmark

_MAGIC = b"TESTCOL\x00"

_DTYPES = (
    np.bool_, np.uint8, np.int8, np.uint16, np.int16,
    np.uint32, np.int32, np.uint64, np.int64,
)


@st.composite
def columns(draw):
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    if dtype.kind == "b":
        values = st.booleans()
    else:
        info = np.iinfo(dtype)
        values = st.one_of(
            st.sampled_from((int(info.min), int(info.max), 0, 1)),
            st.integers(int(info.min), int(info.max)),
        )
    return np.array(draw(st.lists(values, max_size=40)), dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(columns(), max_size=6),
    extra=st.dictionaries(st.sampled_from("abc"), st.integers()),
)
def test_round_trip_restores_values_and_exact_dtype(drawn, extra):
    named = [(f"c{i}", column) for i, column in enumerate(drawn)]
    header, decoded = unpack_columns(
        _MAGIC, pack_columns(_MAGIC, extra, named)
    )
    assert {k: header[k] for k in extra} == extra
    assert list(decoded) == [name for name, _ in named]
    for name, column in named:
        assert decoded[name].dtype == column.dtype
        assert np.array_equal(decoded[name], column)


@pytest.mark.parametrize(
    "values, dtype, enc",
    [
        ([0, 1, 1, 0, 1, 1, 1, 1, 0], np.uint8, "bits"),
        ([True, False], np.bool_, "bits"),
        ([], np.int64, "bits"),
        ([2, 255], np.int64, "|u1"),
        ([-1, 127], np.int64, "|i1"),
        ([0, 400], np.int64, "<u2"),
        ([-40000, 5], np.int64, "<i4"),
        ([np.iinfo(np.int64).min, np.iinfo(np.int64).max], np.int64, "<i8"),
    ],
)
def test_columns_stored_narrowest(values, dtype, enc):
    column = np.array(values, dtype=dtype)
    blob = pack_columns(_MAGIC, {}, [("x", column)])
    header, decoded = unpack_columns(_MAGIC, blob)
    (descriptor,) = header["columns"]
    assert descriptor["enc"] == enc
    assert decoded["x"].dtype == column.dtype
    assert np.array_equal(decoded["x"], column)


def test_codec_rejects_non_integer_columns():
    with pytest.raises(ValueError):
        pack_columns(_MAGIC, {}, [("f", np.zeros(3, np.float64))])
    with pytest.raises(ValueError):
        pack_columns(_MAGIC, {}, [("m", np.zeros((2, 2), np.int64))])


# ------------------------------------------------- prep container damage


@pytest.fixture(scope="module")
def live_slice():
    """A small live-predictor slice (so the optional ``pred_bits``
    column is present) plus the trace container it was built from."""
    program = lower(spec_benchmark("bzip2", iterations=4).build(seed=1))
    blob = capture_trace(program, HybridPredictor, 2_000).to_bytes()
    config = MachineConfig().with_predictor(GSharePredictor)
    slice_blob = replay_vec.build_prep_slice(
        program, Trace.from_bytes(blob), config
    )
    assert slice_blob is not None
    header, arrays = unpack_columns(replay_vec.PREP_MAGIC, slice_blob)
    assert "pred_bits" in arrays
    return program, blob, config, slice_blob, header


def _rejected(program, trace_blob, config, slice_blob) -> bool:
    trace = Trace.from_bytes(trace_blob)
    attached = replay_vec.attach_prep_slice(
        program, trace, config, slice_blob
    )
    return not attached and trace._prep is None


def test_intact_slice_attaches(live_slice):
    program, trace_blob, config, slice_blob, _ = live_slice
    trace = Trace.from_bytes(trace_blob)
    assert replay_vec.attach_prep_slice(program, trace, config, slice_blob)
    assert replay_vec.prep_slice_ready(program, trace, config)


def test_every_truncation_is_rejected(live_slice):
    program, trace_blob, config, slice_blob, _ = live_slice
    for length in range(len(slice_blob)):
        assert _rejected(
            program, trace_blob, config, slice_blob[:length]
        ), length


def test_every_payload_byte_flip_is_rejected(live_slice):
    program, trace_blob, config, slice_blob, header = live_slice
    payloads = sum(d["zlen"] for d in header["columns"])
    assert payloads > 0
    for offset in range(len(slice_blob) - payloads, len(slice_blob)):
        damaged = bytearray(slice_blob)
        damaged[offset] ^= 0x5A
        assert _rejected(
            program, trace_blob, config, bytes(damaged)
        ), offset
