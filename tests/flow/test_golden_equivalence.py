"""Satellite gate: the pass pipeline is output-identical to the seed flow.

The default pipeline must reproduce the committed Table-I golden
depth/area cell for cell, serially and under the parallel wavefront
engine, with full stage verification (``verify_level=2``) enabled —
i.e. the refactor changed where the stages live, not what they emit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.benchgen import build_circuit
from repro.core import DDBDDConfig
from repro.flow import run_flow
from tests.bdd.test_fast_apply import TABLE1_GOLDEN
from tests.runtime.helpers import net_dump

# Smallest golden circuits: crosses every pass (collapse, DP, special
# decompositions, packing) while keeping the gate's wall time sane.
SAMPLE = ["sct", "misex1", "9sym", "count"]

# sha256 of ``repr(net_dump(network))`` for the serial flow: pins the
# cover byte for byte, not just its depth and area.
COVER_SHA256 = {
    "sct": "d42d3bbacc1862c3e021151ced4195d7d314540b85bc012da2e03ce51f790c50",
    "misex1": "e2e6faecd57903b8a1036184729095b5be0445807d54f23c927cb3ac1f6eceb6",
    "9sym": "a31d0be0eb080f82ce3048dcd23bdab459e643ee0b9fb4cff3fe687016ea3cde",
    "count": "842c098f26b935c0432e2f8aa17a997d1479d15c728228a342269ad6b2886d3a",
    "cht": "97c49af3564d328ffd3d12099e6aebdd663911aa3e9f5a9280ae304f74cff249",
}


@pytest.mark.parametrize("name", SAMPLE)
def test_pipeline_matches_table1_golden_serial(name):
    result = run_flow(build_circuit(name), DDBDDConfig(jobs=1, verify_level=2))
    assert (result.depth, result.area) == TABLE1_GOLDEN[name]


@pytest.mark.parametrize("name", SAMPLE)
def test_pipeline_jobs2_cell_identical_to_serial(name):
    net = build_circuit(name)
    serial = run_flow(net, DDBDDConfig(jobs=1, verify_level=2))
    parallel = run_flow(net, DDBDDConfig(jobs=2, verify_level=2))
    assert (serial.depth, serial.area) == TABLE1_GOLDEN[name]
    assert (parallel.depth, parallel.area) == TABLE1_GOLDEN[name]
    assert net_dump(parallel.network) == net_dump(serial.network)
    assert parallel.po_depths == serial.po_depths


@pytest.mark.parametrize("name", sorted(COVER_SHA256))
def test_pipeline_cover_is_byte_identical(name):
    result = run_flow(build_circuit(name), DDBDDConfig(jobs=1))
    digest = hashlib.sha256(repr(net_dump(result.network)).encode()).hexdigest()
    assert digest == COVER_SHA256[name]
