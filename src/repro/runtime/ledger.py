"""The run ledger: an append-only journal of shard outcomes.

One ledger file describes one scan. The first line is a versioned header
binding the file to a scan identity — ``(seed, scale, shard_count,
config_digest)`` plus the full wire-encoded config — and every later
line journals one finished shard as its lossless wire payload
(:mod:`repro.engine.wire`)::

    {"kind": "header", "ledger_version": 2, "wire_version": 1,
     "seed": 7, "scale": 0.01, "shard_count": 8,
     "config_digest": "ab12...", "config": {...}}
    {"kind": "shard", "shard": 3, "payload": {...}}
    {"kind": "shard", "shard": 0, "payload": {...}}

Durability guarantees — what survives a kill at each point:

- **mid-append** — records are flushed and fsync'd one by one; a kill
  mid-append leaves at worst one torn trailing line, which
  :meth:`RunLedger.open` tolerates and truncates away (records are split
  on ``b"\\n"`` alone, so a torn tail carrying a stray carriage return —
  or a ledger copied through a CRLF filesystem — still truncates on the
  true record boundary). A torn partial record followed by trailing
  blank lines classifies the same way: torn tail, never interior
  corruption.
- **right after create** — :meth:`create` fsyncs the file *and its
  parent directory*, closing the classic new-file durability gap where
  a crash loses the directory entry while the run believes it is
  journaled.
- **anything else** — a corrupt interior line, a header from an
  unsupported ledger version, a payload with the wrong wire schema
  version, two divergent records for the same shard, a config whose
  digest does not match, or a ``{"kind": "snapshot"}`` record (written
  only by the snapshot compaction of older builds, no longer read) —
  raises :class:`LedgerError` instead of producing a wrong merge.

The merge lives behind the ledger: :meth:`RunLedger.merge` decodes every
journaled payload and feeds them to
:func:`~repro.engine.scan.merge_shard_results` in shard order, so a
resumed run's result is byte-identical to an uninterrupted one — the
codec round-trip is lossless and the merge never sees *where* a shard
ran or *when* it was journaled.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..engine.scan import ShardResult, merge_shard_results
from ..engine.wire import (
    WIRE_VERSION,
    config_digest,
    config_from_wire,
    config_to_wire,
    shard_result_from_wire,
    shard_result_to_wire,
)

__all__ = ["LEDGER_VERSION", "LedgerError", "RunLedger", "ensure_ledger"]

#: ledger file format version; the header pins it and readers reject
#: anything newer (the journal outlives the process that wrote it).
#: v2 once added snapshot-compaction records; this build neither writes
#: nor reads them, and keeps v2 so uncompacted ledgers stay byte-identical
#: and resumable across builds.
LEDGER_VERSION = 2

#: versions this build can still read: v1 headers journal the same
#: shard records.
_COMPAT_LEDGER_VERSIONS = frozenset({1, LEDGER_VERSION})


class LedgerError(ValueError):
    """The ledger cannot be used: version/config mismatch or corruption."""


class RunLedger:
    """Durable journal of one scan's shard outcomes.

    Construct through :meth:`create`, :meth:`open` or
    :meth:`resume_or_create`; engines normalize path-or-ledger arguments
    through :func:`ensure_ledger`. Thread-safe appends are the caller's
    responsibility (the coordinator records under its lock; the batch
    and stream engines record from a single thread).
    """

    def __init__(
        self,
        path: Path,
        config,
        shard_count: int,
        *,
        payloads: dict[int, dict] | None = None,
        fresh: bool,
    ) -> None:
        self.path = path
        self.config = config
        self.shard_count = shard_count
        self.config_digest = config_digest(config)
        #: shard index -> wire payload, as journaled.
        self._payloads: dict[int, dict] = payloads or {}
        #: shards already in the file when it was opened (what a resume skips).
        self.resumed_count = 0 if fresh else self.completed_count
        #: shards appended by this process.
        self.recorded_count = 0
        #: idempotent re-records that were already journaled.
        self.duplicates_ignored = 0
        self._handle = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def create(cls, path, config, shard_count: int) -> "RunLedger":
        """Start a fresh ledger at ``path`` (fails if the file exists)."""
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        path = Path(path)
        header_line = json.dumps(cls._header_dict(config, shard_count), sort_keys=True)
        with open(path, "x", encoding="utf-8") as handle:
            handle.write(header_line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        # the new-file durability gap: without fsyncing the directory a
        # crash here can lose the whole file while the run believes its
        # shards are journaled.
        cls._fsync_dir(path.parent)
        return cls(path, config, shard_count, fresh=True)

    @staticmethod
    def _header_dict(config, shard_count: int) -> dict:
        return {
            "kind": "header",
            "ledger_version": LEDGER_VERSION,
            "wire_version": WIRE_VERSION,
            "seed": config.seed,
            "scale": config.scale,
            "shard_count": shard_count,
            "config_digest": config_digest(config),
            "config": config_to_wire(config),
        }

    @classmethod
    def open(cls, path, config=None, shard_count: int | None = None) -> "RunLedger":
        """Load an existing ledger, verifying it belongs to this scan.

        ``config``/``shard_count``, when given, must match the header —
        a ``config_digest`` or shard-count mismatch raises
        :class:`LedgerError` (resuming someone else's journal would merge
        shards from a different scan). A torn trailing line (the mark of
        a kill mid-append) is tolerated *and truncated away*, so records
        appended by the resumed run land on a clean line boundary instead
        of turning the tear into interior corruption at the next open.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise LedgerError(f"no ledger at {path}") from None
        if not data:
            raise LedgerError(f"{path}: empty file, not a ledger")
        # Split records on b"\n" alone — str.splitlines() also splits on
        # \r, \x1c,   and friends, which both misclassifies a torn
        # tail bearing a stray carriage return and miscounts the intact
        # byte length when truncating it.
        lines = data.split(b"\n")
        offsets: list[int] = []
        position = 0
        for line in lines:
            offsets.append(position)
            position += len(line) + 1
        header_line = cls._decode_record_line(path, lines[0], 1)
        if header_line is None:
            raise LedgerError(f"{path}: undecodable header line")
        header = cls._parse_header(path, header_line)
        ledger_config = config_from_wire(header["config"])
        if config is not None and config_digest(config) != header["config_digest"]:
            raise LedgerError(
                f"{path}: config digest mismatch — the ledger was written for "
                f"(seed={header['seed']}, scale={header['scale']}, "
                f"shard_count={header['shard_count']}, "
                f"config_digest={header['config_digest']}), the caller is "
                f"resuming (seed={config.seed}, scale={config.scale}, "
                f"shard_count={shard_count if shard_count is not None else 'auto'}, "
                f"config_digest={config_digest(config)}); refusing to resume a "
                f"different scan"
            )
        if shard_count is not None and shard_count != header["shard_count"]:
            raise LedgerError(
                f"{path}: shard count mismatch — the ledger was written for "
                f"(seed={header['seed']}, scale={header['scale']}, "
                f"shard_count={header['shard_count']}, "
                f"config_digest={header['config_digest']}), the caller "
                f"expects shard_count={shard_count}"
            )
        payloads, torn_at = cls._parse_records(
            path, lines, offsets, header["shard_count"]
        )
        if torn_at is not None:
            cls._truncate_at(path, torn_at)
        return cls(
            path, ledger_config, header["shard_count"],
            payloads=payloads, fresh=False,
        )

    @classmethod
    def resume_or_create(cls, path, config, shard_count: int) -> "RunLedger":
        """Open ``path`` when it exists (verified), else start it fresh."""
        if Path(path).exists():
            return cls.open(path, config=config, shard_count=shard_count)
        return cls.create(path, config, shard_count)

    # -- header / record parsing ----------------------------------------

    @staticmethod
    def _decode_record_line(path: Path, raw: bytes, number: int) -> str | None:
        """Decode one record line to text; ``None`` marks undecodable bytes."""
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            return None

    @staticmethod
    def _parse_header(path: Path, line: str) -> dict:
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LedgerError(f"{path}: undecodable header line: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise LedgerError(f"{path}: first line is not a ledger header")
        version = header.get("ledger_version")
        if version not in _COMPAT_LEDGER_VERSIONS:
            raise LedgerError(
                f"{path}: ledger format version mismatch — file says "
                f"{version!r}, this build speaks v{LEDGER_VERSION}"
            )
        if header.get("wire_version") != WIRE_VERSION:
            raise LedgerError(
                f"{path}: wire schema version mismatch — file says "
                f"{header.get('wire_version')!r}, this build speaks "
                f"v{WIRE_VERSION}"
            )
        for field in ("seed", "scale", "shard_count", "config_digest", "config"):
            if field not in header:
                raise LedgerError(f"{path}: header is missing {field!r}")
        return header

    @classmethod
    def _parse_records(
        cls, path: Path, lines: list[bytes], offsets: list[int], shard_count: int
    ) -> tuple[dict, int | None]:
        """Parse record lines; returns ``(payloads, torn_at)``.

        ``torn_at`` is the byte offset of a torn trailing record (to
        truncate), ``None`` when the tail is clean. A decode failure is
        torn when nothing but blank lines follows it — the final segment
        of a file killed mid-append, *or* a partial record whose trailing
        newline came from an earlier flush.
        """
        payloads: dict[int, dict] = {}
        torn_at: int | None = None
        for number in range(1, len(lines)):
            raw = lines[number]
            if not raw.strip():
                continue
            text = cls._decode_record_line(path, raw, number + 1)
            record = None
            if text is not None:
                try:
                    record = json.loads(text)
                except json.JSONDecodeError:
                    record = None
            if record is None:
                if all(not rest.strip() for rest in lines[number + 1:]):
                    torn_at = offsets[number]  # torn tail: the kill's signature
                    break
                raise LedgerError(
                    f"{path}: corrupt interior record at line {number + 1}"
                )
            if not isinstance(record, dict):
                raise LedgerError(
                    f"{path}: line {number + 1} is not a ledger record"
                )
            kind = record.get("kind")
            if kind == "snapshot":
                raise LedgerError(
                    f"{path}: line {number + 1} is a snapshot record — the "
                    f"ledger was compacted by an older build, and this build "
                    f"no longer reads compacted ledgers; rerun the scan into "
                    f"a new ledger"
                )
            if kind != "shard":
                raise LedgerError(
                    f"{path}: line {number + 1} is not a shard record"
                )
            shard = record.get("shard")
            payload = record.get("payload")
            if not isinstance(shard, int) or not 0 <= shard < shard_count:
                raise LedgerError(
                    f"{path}: line {number + 1} names shard {shard!r}, "
                    f"outside 0..{shard_count - 1}"
                )
            if not isinstance(payload, dict) or payload.get("v") != WIRE_VERSION:
                raise LedgerError(
                    f"{path}: shard {shard} payload has wire version "
                    f"{payload.get('v') if isinstance(payload, dict) else None!r}, "
                    f"this build speaks v{WIRE_VERSION}"
                )
            if shard in payloads:
                if payloads[shard] != payload:
                    raise LedgerError(
                        f"{path}: divergent duplicate records for shard {shard}"
                    )
                continue  # identical duplicate: first wins
            payloads[shard] = payload
        return payloads, torn_at

    @staticmethod
    def _truncate_at(path: Path, offset: int) -> None:
        """Cut a torn tail at its byte offset so appends resume on a
        clean line boundary."""
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """fsync a directory entry (new-file durability)."""
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            fd = os.open(directory, flags)
        except OSError:
            return  # platforms without directory fds (e.g. Windows)
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- journaling ------------------------------------------------------

    def record(self, result: ShardResult) -> bool:
        """Journal one finished shard; False if it was already journaled."""
        return self.record_payload(
            result.shard_index, shard_result_to_wire(result)
        )

    def record_payload(self, shard: int, payload: dict) -> bool:
        """Journal one shard's wire payload durably (idempotent).

        A shard already journaled with the same payload is skipped
        (``False``; counted in ``duplicates_ignored``): the late-result
        path after a resume. A *different* payload raises
        :class:`LedgerError`: the determinism contract says that cannot
        happen, so it marks corruption, not a race.
        """
        if not 0 <= shard < self.shard_count:
            raise LedgerError(
                f"shard {shard} outside 0..{self.shard_count - 1}"
            )
        if not isinstance(payload, dict) or payload.get("v") != WIRE_VERSION:
            raise LedgerError(
                f"shard {shard}: refusing to journal a payload with wire "
                f"version {payload.get('v') if isinstance(payload, dict) else None!r}"
            )
        existing = self._payloads.get(shard)
        if existing is not None:
            if existing != payload:
                raise LedgerError(
                    f"shard {shard}: divergent result for an already-journaled "
                    f"shard — same scan identity must produce identical shards"
                )
            self.duplicates_ignored += 1
            return False
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps({"kind": "shard", "shard": shard, "payload": payload})
            + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._payloads[shard] = payload
        self.recorded_count += 1
        return True

    # -- resume / merge --------------------------------------------------

    @property
    def completed_payloads(self) -> dict[int, dict]:
        """Journaled shard payloads (shard index -> wire dict), read-only
        use."""
        return self._payloads

    def completed_shards(self) -> frozenset[int]:
        """Every journaled shard index."""
        return frozenset(self._payloads)

    @property
    def completed_count(self) -> int:
        return len(self._payloads)

    def remaining(self) -> list[int]:
        """Shard indices still missing from the journal, ascending."""
        done = self.completed_shards()
        return [
            shard for shard in range(self.shard_count)
            if shard not in done
        ]

    @property
    def is_complete(self) -> bool:
        return self.completed_count == self.shard_count

    def merge(self):
        """Decode every journaled shard and merge, in shard order.

        This is the single merge path for ledger-backed runs: batch,
        stream and cluster all journal first and merge from the journal,
        which is what makes an interrupted-and-resumed run byte-identical
        to an uninterrupted one.
        """
        missing = self.remaining()
        if missing:
            raise LedgerError(
                f"cannot merge an incomplete ledger: shard(s) {missing} "
                f"not journaled"
            )
        outcomes = [
            shard_result_from_wire(self._payloads[shard])
            for shard in sorted(self._payloads)
        ]
        return merge_shard_results(self.config, outcomes)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def ensure_ledger(ledger, config, shard_count: int) -> RunLedger | None:
    """Normalize an engine's ``ledger`` argument.

    ``None`` passes through; a path resumes-or-creates; an existing
    :class:`RunLedger` is verified against this scan's ``config_digest``
    and shard count (mismatch raises :class:`LedgerError`).
    """
    if ledger is None:
        return None
    if isinstance(ledger, RunLedger):
        if ledger.config_digest != config_digest(config):
            raise LedgerError(
                f"{ledger.path}: ledger was opened for a different config "
                f"(digest mismatch) — the ledger holds "
                f"(seed={ledger.config.seed}, scale={ledger.config.scale}, "
                f"shard_count={ledger.shard_count}, "
                f"config_digest={ledger.config_digest}), this run is "
                f"(seed={config.seed}, scale={config.scale}, "
                f"shard_count={shard_count}, "
                f"config_digest={config_digest(config)})"
            )
        if ledger.shard_count != shard_count:
            raise LedgerError(
                f"{ledger.path}: ledger has shard_count={ledger.shard_count}, "
                f"this run resolves {shard_count} "
                f"(both at seed={config.seed}, scale={config.scale}, "
                f"config_digest={config_digest(config)})"
            )
        return ledger
    return RunLedger.resume_or_create(ledger, config, shard_count)
