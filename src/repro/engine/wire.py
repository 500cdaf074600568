"""JSON-safe serialization of scan configs and shard results.

The cluster subsystem (:mod:`repro.cluster`) ships shard descriptors to
remote workers and streams their :class:`~repro.engine.scan.ShardResult`\\ s
back over a length-prefixed JSON wire protocol, and the run ledger
(:mod:`repro.runtime.ledger`) journals the same payloads durably to
disk. Everything that crosses the wire or lands in a ledger round-trips
through the codecs in this module, and the round-trip is lossless: a
decoded shard result merges byte-identically to the in-process original
(``tests/cluster/test_protocol.py`` pins this).

Only plain JSON types ever cross the wire — no pickling — so a worker
can never execute anything the coordinator sends except the scan the
codecs describe, and vice versa.

Decoding is *strict*: every payload carries an explicit schema version
(``"v"``) and an exact field set. A version mismatch, a missing field or
an unknown field raises ``ValueError`` immediately instead of silently
producing a wrong merge — the failure mode that matters once payloads
outlive the process that wrote them (resumed ledgers, mixed-version
fleets).

Optional fields (``_CONFIG_OPTIONAL`` / ``_TRUTH_OPTIONAL``) are
*omitted at their default value* rather than encoded as nulls. That
keeps every payload written before the field existed decodable, and —
because :func:`config_digest` hashes the encoded dict — keeps the
digests of default-valued configs byte-identical across versions. A
non-default value (a non-paper pattern selection, an adversarial tail,
a family-labelled truth) encodes the field and therefore changes the
digest, which is exactly the identity contract: same digest ⇔ same
scan bytes.
"""

from __future__ import annotations

import hashlib
import json

from ..chain.types import Address
from .scan import ShardResult

__all__ = [
    "WIRE_VERSION",
    "config_digest",
    "config_to_wire",
    "config_from_wire",
    "detection_to_wire",
    "detection_from_wire",
    "shard_result_to_wire",
    "shard_result_from_wire",
]

#: schema version stamped on every top-level payload. Bump whenever a
#: codec's field set changes; decoders reject anything else.
#: v2: configs carry ``split_attacks`` (cross-transaction split-attack
#: groups — identity-relevant, it changes the canonical schedule) and
#: ground truths carry ``split_group``. Still v2: ``pattern_config``
#: is ``null`` for the paper's ``PatternSettings()`` and a namespaced
#: pattern-settings object otherwise, configs may carry ``adversarial``
#: and truths ``family`` — all optional-at-default, so default v2
#: payloads written by older builds decode unchanged. The flat
#: four-threshold ``pattern_config`` object older builds could write is
#: no longer read.
WIRE_VERSION = 2

_CONFIG_FIELDS = frozenset(
    {"v", "scale", "seed", "with_heuristic", "keep_history", "pattern_config",
     "shards", "split_attacks"}
)
#: fields omitted from the payload when at their default value.
_CONFIG_OPTIONAL = frozenset({"adversarial"})
#: the encoding of a non-default ``PatternSettings``.
_SETTINGS_FIELDS = frozenset({"enabled", "params", "registry"})
_TRUTH_FIELDS = frozenset(
    {"is_attack", "profile", "net_profit", "source_disclosed",
     "aggregator_initiated", "attacked_app", "attacker", "attack_contract",
     "asset", "month", "patterns", "known", "split_group"}
)
_TRUTH_OPTIONAL = frozenset({"family"})
_DETECTION_FIELDS = frozenset(
    {"tx_hash", "patterns", "truth", "profit_usd", "borrowed_usd"}
)
_SHARD_RESULT_FIELDS = frozenset(
    {"v", "shard_index", "total_transactions", "detections", "row_counts"}
)


def _check_payload(
    payload, fields: frozenset, what: str, optional: frozenset = frozenset()
) -> None:
    """Exact-schema check: precisely ``fields`` plus any of ``optional``."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{what}: expected a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - fields - optional)
    if unknown:
        raise ValueError(f"{what}: unknown field(s) {unknown}")
    missing = sorted(fields - set(payload))
    if missing:
        raise ValueError(f"{what}: missing field(s) {missing}")


def _check_version(payload: dict, what: str) -> None:
    version = payload.get("v") if isinstance(payload, dict) else None
    if version != WIRE_VERSION:
        raise ValueError(
            f"{what}: wire schema version mismatch — payload says "
            f"{version!r}, this build speaks v{WIRE_VERSION}"
        )


def _pattern_config_to_wire(settings):
    """Encode a :class:`~repro.leishen.registry.PatternSettings`.

    The paper defaults encode as ``None``, which keeps the digest of
    every default config what older builds wrote. Anything else encodes
    the full identity triple (enabled keys, per-pattern params, registry
    version) — so changing the enabled set *or* any threshold yields a
    distinct :func:`config_digest`.
    """
    from ..leishen.registry import PatternSettings

    if settings == PatternSettings():
        return None
    return {
        "enabled": list(settings.enabled),
        "params": {key: dict(values) for key, values in settings.params},
        "registry": settings.registry_version,
    }


def _pattern_config_from_wire(payload, what: str):
    from ..leishen.registry import PatternSettings

    if payload is None:
        return PatternSettings()
    _check_payload(payload, _SETTINGS_FIELDS, what)
    return PatternSettings.make(
        enabled=payload["enabled"],
        params=payload["params"],
        registry_version=payload["registry"],
    )


def config_to_wire(config) -> dict:
    """Encode a ``WildScanConfig`` as a JSON-safe dict.

    ``jobs`` is deliberately dropped: it is an execution knob of the
    *local* engine and must never leak into a worker's identity-relevant
    inputs (a cluster worker always executes its shard sequentially).
    """
    payload = {
        "v": WIRE_VERSION,
        "scale": config.scale,
        "seed": config.seed,
        "with_heuristic": config.with_heuristic,
        "keep_history": config.keep_history,
        "pattern_config": _pattern_config_to_wire(config.pattern_config),
        "shards": config.shards,
        "split_attacks": config.split_attacks,
    }
    if config.adversarial:
        payload["adversarial"] = config.adversarial
    return payload


def config_from_wire(payload: dict):
    """Decode :func:`config_to_wire` output back into a ``WildScanConfig``."""
    from ..workload.generator import WildScanConfig

    _check_version(payload, "scan config")
    _check_payload(payload, _CONFIG_FIELDS, "scan config", _CONFIG_OPTIONAL)
    return WildScanConfig(
        scale=payload["scale"],
        seed=payload["seed"],
        with_heuristic=payload["with_heuristic"],
        keep_history=payload["keep_history"],
        pattern_config=_pattern_config_from_wire(
            payload["pattern_config"], "pattern config"
        ),
        jobs=1,
        shards=payload["shards"],
        split_attacks=payload["split_attacks"],
        adversarial=payload.get("adversarial", 0),
    )


def config_digest(config) -> str:
    """Stable content digest of a scan config's identity-relevant fields.

    SHA-256 over the canonical JSON of :func:`config_to_wire`, so two
    configs digest equal exactly when they would produce byte-identical
    scans. The run ledger records this in its header and refuses to
    resume under a different config — silently merging shards from a
    different scan is the one corruption a journal must make impossible.
    """
    blob = json.dumps(config_to_wire(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _truth_to_wire(truth) -> dict:
    payload = {
        "is_attack": truth.is_attack,
        "profile": truth.profile,
        "net_profit": truth.net_profit,
        "source_disclosed": truth.source_disclosed,
        "aggregator_initiated": truth.aggregator_initiated,
        "attacked_app": truth.attacked_app,
        "attacker": truth.attacker,
        "attack_contract": truth.attack_contract,
        "asset": truth.asset,
        "month": truth.month,
        "patterns": list(truth.patterns),
        "known": truth.known,
        "split_group": truth.split_group,
    }
    if truth.family is not None:
        payload["family"] = truth.family
    return payload


def _truth_from_wire(payload: dict):
    from ..workload.profiles import GroundTruth

    _check_payload(payload, _TRUTH_FIELDS, "ground truth", _TRUTH_OPTIONAL)

    def address(value):
        return Address(value) if value is not None else None

    return GroundTruth(
        is_attack=payload["is_attack"],
        profile=payload["profile"],
        net_profit=payload["net_profit"],
        source_disclosed=payload["source_disclosed"],
        aggregator_initiated=payload["aggregator_initiated"],
        attacked_app=payload["attacked_app"],
        attacker=address(payload["attacker"]),
        attack_contract=address(payload["attack_contract"]),
        asset=payload["asset"],
        month=payload["month"],
        patterns=tuple(payload["patterns"]),
        known=payload["known"],
        split_group=payload["split_group"],
        family=payload.get("family"),
    )


def detection_to_wire(detection) -> dict:
    return {
        "tx_hash": detection.tx_hash,
        "patterns": list(detection.patterns),
        "truth": _truth_to_wire(detection.truth),
        "profit_usd": detection.profit_usd,
        "borrowed_usd": detection.borrowed_usd,
    }


def detection_from_wire(payload: dict):
    from ..workload.generator import Detection

    _check_payload(payload, _DETECTION_FIELDS, "detection")
    return Detection(
        tx_hash=payload["tx_hash"],
        patterns=tuple(payload["patterns"]),
        truth=_truth_from_wire(payload["truth"]),
        profit_usd=payload["profit_usd"],
        borrowed_usd=payload["borrowed_usd"],
    )


def shard_result_to_wire(result: ShardResult) -> dict:
    return {
        "v": WIRE_VERSION,
        "shard_index": result.shard_index,
        "total_transactions": result.total_transactions,
        "detections": [detection_to_wire(d) for d in result.detections],
        "row_counts": {
            name: list(counts) for name, counts in result.row_counts.items()
        },
    }


def shard_result_from_wire(payload: dict) -> ShardResult:
    _check_version(payload, "shard result")
    _check_payload(payload, _SHARD_RESULT_FIELDS, "shard result")
    return ShardResult(
        shard_index=payload["shard_index"],
        total_transactions=payload["total_transactions"],
        detections=[detection_from_wire(d) for d in payload["detections"]],
        row_counts={
            name: list(counts) for name, counts in payload["row_counts"].items()
        },
    )
