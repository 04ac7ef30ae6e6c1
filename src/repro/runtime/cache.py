"""Content-addressed on-disk artifact cache.

Artifacts (prepared-design bundles, injected sample chunks) are stored under
the SHA-256 of a *canonical key*: a JSON-serializable dict describing
everything that determines the artifact's content — generator spec,
design configuration, stage parameters, derived seed, and the generation
code version.  Equal inputs hit the same file; any input change (including a
:data:`CODE_VERSION` bump) misses and regenerates.

Layout: ``<cache_dir>/<kind>/<hash[:2]>/<hash>.pkl`` plus a ``.key.json``
sidecar holding the canonical key and the payload's own SHA-256.  Writes
are crash-safe: sidecar first, then payload, each via tempfile → flush →
fsync → atomic rename, so a SIGKILL at any instant leaves either a
complete entry, a payload-less sidecar (read as a miss, collected by
:meth:`doctor`), or an orphaned ``*.tmp`` (collected by
:meth:`gc_orphans`) — never a torn payload served as a hit.  Reads verify
the whole entry: a missing/desynced/unparseable sidecar, a payload whose
bytes no longer hash to the recorded digest (truncation, bit rot — a
flipped bit deep inside a pickled array would otherwise unpickle
*silently wrong*), and an unpicklable payload all evict payload *and*
sidecar together and report a miss, so the entry regenerates instead of
poisoning a build.  Concurrent workers may race to fill the same entry;
the loser simply overwrites the identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import SpanTracer, get_tracer
from .instrument import RuntimeStats

__all__ = [
    "ArtifactCache",
    "CacheHealth",
    "CODE_VERSION",
    "cache_key_hash",
    "canonical_key",
]

#: Version stamp of the dataset-generation code paths baked into every cache
#: key.  Bump whenever :func:`repro.data.prepare_design`, the injection /
#: back-trace / feature code, or the chunking grid changes behaviour, so
#: stale artifacts can never be returned for new code.
CODE_VERSION = 1


def canonical_key(key: Dict[str, Any]) -> str:
    """The canonical JSON form of a cache key (sorted keys, no whitespace).

    Dataclasses (e.g. ``GeneratorSpec``, ``DesignConfig``) are flattened to
    ``{"__type__": name, **fields}`` dicts so keys stay readable and stable.
    """

    def default(obj: Any) -> Any:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            d = {"__type__": type(obj).__name__}
            d.update(dataclasses.asdict(obj))
            return d
        raise TypeError(f"cache keys must be JSON-serializable, got {type(obj).__name__}")

    return json.dumps(key, sort_keys=True, separators=(",", ":"), default=default)


def cache_key_hash(key: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical key."""
    return hashlib.sha256(canonical_key(key).encode()).hexdigest()


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tempfile + fsync + atomic rename."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheHealth:
    """One :meth:`ArtifactCache.doctor` audit result.

    Attributes:
        entries: Intact payload count per kind.
        orphan_tmps: Leftover ``*.tmp`` files from interrupted writes.
        dangling_sidecars: ``.key.json`` files whose payload is missing.
        missing_sidecars: Payloads whose ``.key.json`` is missing.
        desynced_sidecars: Payloads whose sidecar hashes to a different
            digest than the filename (the key record lies about the bytes).
        corrupt_payloads: Payloads that fail to unpickle (deep audit only).
    """

    entries: Dict[str, int] = field(default_factory=dict)
    orphan_tmps: List[Path] = field(default_factory=list)
    dangling_sidecars: List[Path] = field(default_factory=list)
    missing_sidecars: List[Path] = field(default_factory=list)
    desynced_sidecars: List[Path] = field(default_factory=list)
    corrupt_payloads: List[Path] = field(default_factory=list)

    @property
    def problems(self) -> int:
        return (len(self.orphan_tmps) + len(self.dangling_sidecars)
                + len(self.missing_sidecars) + len(self.desynced_sidecars)
                + len(self.corrupt_payloads))

    def report(self) -> str:
        """Human-readable audit summary."""
        lines = [f"cache health: {sum(self.entries.values())} artifact(s), "
                 f"{self.problems} problem(s)"]
        for kind in sorted(self.entries):
            lines.append(f"  {kind:14s} {self.entries[kind]}")
        for label, paths in (
            ("orphan tmp file", self.orphan_tmps),
            ("dangling sidecar", self.dangling_sidecars),
            ("payload without sidecar", self.missing_sidecars),
            ("desynced sidecar", self.desynced_sidecars),
            ("corrupt payload", self.corrupt_payloads),
        ):
            for p in paths:
                lines.append(f"  {label}: {p}")
        return "\n".join(lines)


class ArtifactCache:
    """Pickle-backed content-addressed store with hit/miss accounting.

    Args:
        cache_dir: Root directory; created on first write.
        stats: Optional shared :class:`RuntimeStats` receiving
            ``cache.<kind>.hit`` / ``cache.<kind>.miss`` counters.
        chaos: Optional :class:`repro.runtime.chaos.ChaosPlan`; when set,
            freshly written entries may be deliberately damaged so the
            recovery paths stay exercised.
        tracer: Optional span tracer; ``cache.<kind>.load`` /
            ``cache.<kind>.store`` spans nest under whatever span is active
            at call time.
    """

    def __init__(self, cache_dir: Union[str, Path],
                 stats: Optional[RuntimeStats] = None,
                 chaos: Optional[Any] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.root = Path(cache_dir)
        self.stats = stats if stats is not None else RuntimeStats()
        self.chaos = chaos
        self.tracer = tracer if tracer is not None else get_tracer()

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / digest[:2] / f"{digest}.pkl"

    @staticmethod
    def _sidecar(path: Path) -> Path:
        return path.with_suffix(".key.json")

    @staticmethod
    def _sidecar_doc(canonical: str, payload: bytes) -> bytes:
        """Sidecar contents: the canonical key plus payload integrity data."""
        doc = {
            "key": json.loads(canonical),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()

    @staticmethod
    def _read_sidecar(sidecar: Path, digest: str) -> Optional[Dict[str, Any]]:
        """The parsed sidecar, or ``None`` when missing/torn/desynced.

        Desynced means the recorded key does not canonicalize back to the
        payload's digest — the key record lies about which entry this is.
        """
        try:
            doc = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if not isinstance(doc, dict) or not isinstance(doc.get("payload_sha256"), str):
            return None
        canonical = json.dumps(doc.get("key"), sort_keys=True, separators=(",", ":"))
        if hashlib.sha256(canonical.encode()).hexdigest() != digest:
            return None
        return doc

    def _evict(self, path: Path) -> None:
        """Remove a payload and its sidecar (either may already be gone)."""
        self._sidecar(path).unlink(missing_ok=True)
        path.unlink(missing_ok=True)

    # ------------------------------------------------------------------- api
    def get(self, kind: str, key: Dict[str, Any]) -> Tuple[Optional[Any], bool]:
        """Look up one artifact.

        Returns:
            ``(artifact, True)`` on a hit, ``(None, False)`` on a miss.  A
            corrupt or truncated payload, a missing sidecar, and a sidecar
            desynced from the payload's digest are all treated as a miss;
            the offending payload *and* sidecar are evicted together so the
            regenerated artifact replaces a consistent void, not half an
            entry.
        """
        digest = cache_key_hash(key)
        path = self._path(kind, digest)
        if not path.exists():
            self.stats.count(f"cache.{kind}.miss")
            return None, False
        sidecar_doc = self._read_sidecar(self._sidecar(path), digest)
        if sidecar_doc is None:
            self.stats.count(f"cache.{kind}.desynced")
            self.stats.count(f"cache.{kind}.miss")
            self._evict(path)
            return None, False
        try:
            with self.tracer.span(f"cache.{kind}.load"):
                with open(path, "rb") as fh:
                    data = fh.read()
                if hashlib.sha256(data).hexdigest() != sidecar_doc["payload_sha256"]:
                    raise ValueError("payload bytes do not match recorded digest")
                artifact = pickle.loads(data)
        except Exception:
            self.stats.count(f"cache.{kind}.corrupt")
            self.stats.count(f"cache.{kind}.miss")
            self._evict(path)
            return None, False
        self.stats.count(f"cache.{kind}.hit")
        return artifact, True

    def put(self, kind: str, key: Dict[str, Any], artifact: Any) -> Path:
        """Store one artifact crash-safely; returns its payload path.

        Write order is sidecar first, payload second (each atomic with
        fsync): a crash in between leaves a sidecar without a payload,
        which reads as a plain miss — the reverse order could leave a
        payload whose key record is missing, indistinguishable from
        sidecar loss.  The sidecar doubles as debuggability — ``repro
        cache`` / ``repro doctor`` and humans can see what each entry is
        without unpickling it.
        """
        digest = cache_key_hash(key)
        path = self._path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self.tracer.span(f"cache.{kind}.store"):
            payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            sidecar = self._sidecar(path)
            _atomic_write_bytes(sidecar, self._sidecar_doc(canonical_key(key), payload))
            _atomic_write_bytes(path, payload)
        if self.chaos is not None:
            self.chaos.maybe_damage_entry(path, sidecar)
        return path

    # ------------------------------------------------------------ management
    def entries(self) -> Dict[str, int]:
        """Artifact counts per kind."""
        out: Dict[str, int] = {}
        if not self.root.exists():
            return out
        for kind_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if kind_dir.name == "manifests":
                continue  # progress manifests, not content-addressed artifacts
            out[kind_dir.name] = sum(1 for _ in kind_dir.glob("*/*.pkl"))
        return out

    def size_bytes(self) -> int:
        """Total bytes on disk under the cache root."""
        if not self.root.exists():
            return 0
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in list(self.root.rglob("*")):
            if path.is_file():
                path.unlink()
                if path.suffix == ".pkl":
                    removed += 1
        for path in sorted((p for p in self.root.rglob("*") if p.is_dir()), reverse=True):
            try:
                path.rmdir()
            except OSError:
                pass
        return removed

    def gc_orphans(self, max_age_s: float = 3600.0) -> int:
        """Remove ``*.tmp`` leftovers older than ``max_age_s`` seconds.

        The age guard keeps a concurrent writer's in-flight tempfile safe;
        pass ``0`` to collect everything (single-writer situations, tests).
        """
        removed = 0
        if not self.root.exists():
            return removed
        cutoff = time.time() - max_age_s  # repro-lint: disable=RPL002
        for tmp in self.root.rglob("*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # vanished mid-scan (concurrent writer finished)
        return removed

    def doctor(self, deep: bool = False, fix: bool = False,
               tmp_max_age_s: float = 3600.0) -> CacheHealth:
        """Audit (and optionally repair) cache health.

        Args:
            deep: Also unpickle every payload to catch silent corruption
                (bit rot) — slow on big caches, default off.
            fix: Evict every inconsistent entry and collect orphan tmps.
            tmp_max_age_s: Age threshold passed to :meth:`gc_orphans` when
                fixing.
        """
        health = CacheHealth(entries=self.entries())
        if not self.root.exists():
            return health
        health.orphan_tmps = sorted(self.root.rglob("*.tmp"))
        for kind_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if kind_dir.name == "manifests":
                continue
            for sidecar in kind_dir.glob("*/*.key.json"):
                if not sidecar.with_suffix("").with_suffix(".pkl").exists():
                    health.dangling_sidecars.append(sidecar)
            for payload in kind_dir.glob("*/*.pkl"):
                digest = payload.stem
                sidecar = self._sidecar(payload)
                if not sidecar.exists():
                    health.missing_sidecars.append(payload)
                    continue
                doc = self._read_sidecar(sidecar, digest)
                if doc is None:
                    health.desynced_sidecars.append(payload)
                    continue
                if deep:
                    try:
                        data = payload.read_bytes()
                        if hashlib.sha256(data).hexdigest() != doc["payload_sha256"]:
                            raise ValueError("payload digest mismatch")
                        pickle.loads(data)
                    except Exception:
                        health.corrupt_payloads.append(payload)
        if fix:
            for payload in (health.missing_sidecars + health.desynced_sidecars
                            + health.corrupt_payloads):
                self._evict(payload)
            for sidecar in health.dangling_sidecars:
                sidecar.unlink(missing_ok=True)
            self.gc_orphans(tmp_max_age_s)
        return health
