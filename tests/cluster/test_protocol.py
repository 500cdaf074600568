"""Wire protocol framing + codec round trips.

The cluster's determinism contract rests on lossless serialization: a
shard result that crosses the wire must merge byte-identically to the
in-process original.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.engine.plan import build_schedule, shard_schedule
from repro.engine.scan import run_shard
from repro.engine.wire import (
    config_from_wire,
    config_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)
from repro.leishen.registry import PatternSettings
from repro.workload.generator import WildScanConfig


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        message = {"type": "assign", "shard": 3, "nested": {"a": [1, 2, None]}}
        send_message(left, message)
        assert recv_message(right) == message

    def test_sequential_frames_stay_ordered(self, pair):
        left, right = pair
        for index in range(5):
            send_message(left, {"type": "heartbeat", "n": index})
        assert [recv_message(right)["n"] for _ in range(5)] == list(range(5))

    def test_eof_raises_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_message(right)

    def test_mid_frame_eof_raises_connection_closed(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", 100) + b'{"type"')
        left.close()
        with pytest.raises(ConnectionClosed, match="mid-frame"):
            recv_message(right)

    def test_oversized_frame_rejected_without_allocation(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(right)

    def test_bad_json_rejected(self, pair):
        left, right = pair
        payload = b"not json at all"
        left.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_message(right)

    def test_untyped_payload_rejected(self, pair):
        left, right = pair
        payload = b'[1, 2, 3]'
        left.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="typed JSON object"):
            recv_message(right)


class TestConfigCodec:
    def test_round_trip_defaults(self):
        config = WildScanConfig(scale=0.01, seed=11, shards=4)
        decoded = config_from_wire(config_to_wire(config))
        assert decoded == config

    def test_round_trip_with_pattern_config(self):
        config = WildScanConfig(
            scale=0.5,
            seed=3,
            with_heuristic=True,
            keep_history=True,
            pattern_config=PatternSettings.make(
                params={"KRP": {"min_buys": 7}, "MBS": {"min_rounds": 2}}
            ),
        )
        decoded = config_from_wire(config_to_wire(config))
        assert decoded == config
        assert decoded.pattern_config.param("KRP", "min_buys", None) == 7

    def test_jobs_never_crosses_the_wire(self):
        config = WildScanConfig(scale=0.01, seed=7, jobs=8)
        wire = config_to_wire(config)
        assert "jobs" not in wire
        assert config_from_wire(wire).jobs == 1


class TestShardResultCodec:
    @pytest.fixture(scope="class")
    def shard_outcome(self):
        config = WildScanConfig(scale=0.005, seed=7, shards=4)
        tasks = build_schedule(config.scale, config.seed)
        parts = shard_schedule(tasks, 4)
        return run_shard((config, 0, 4, parts[0]))

    def test_lossless_round_trip(self, shard_outcome):
        decoded = shard_result_from_wire(shard_result_to_wire(shard_outcome))
        assert decoded == shard_outcome

    def test_wire_form_is_json_safe(self, shard_outcome):
        import json

        wire = shard_result_to_wire(shard_outcome)
        assert json.loads(json.dumps(wire)) == wire

    def test_detection_truth_survives(self, shard_outcome):
        attacks = [d for d in shard_outcome.detections if d.truth.is_attack]
        assert attacks, "shard 0 at this seed should contain attacks"
        decoded = shard_result_from_wire(shard_result_to_wire(shard_outcome))
        for original, restored in zip(shard_outcome.detections, decoded.detections):
            assert restored.truth == original.truth
            assert restored.patterns == original.patterns
            assert isinstance(restored.patterns, tuple)
