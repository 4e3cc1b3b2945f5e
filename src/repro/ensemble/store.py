"""Content-addressed, on-disk store of scenario run results.

The Figure-2 result-caching argument — work shared between simulation
runs must be computed once and *reused in a fixed order* — scales past
a single composite model only if runs have stable names.  Here a run's
name is a content address::

    key = sha256(callable qualname, canonical-JSON params, seed,
                 store schema version, {dep name: dep key})

so two processes that describe the same run derive the same key, a
parameter dict reordered or re-typed through numpy derives the same
key, and bumping :data:`STORE_SCHEMA_VERSION` (a serialization change)
invalidates every old entry at once instead of mixing formats.
Dependency keys fold in Merkle-style: a node's address pins its whole
upstream timeline, which is what lets branched ensembles share exactly
their common prefix.

On-disk layout (documented in README "Ensemble orchestration")::

    <root>/
      objects/<key[:2]>/<key>/run.json    # metadata + JSON result tree
      objects/<key[:2]>/<key>/arrays.npz  # numpy leaves, lossless
      checkpoints/                        # ChainCheckpoint files for
                                          # crash-resumable chain prefixes
      tmp/                                # put staging, doomed entries
      generation                          # eviction generation token

:class:`ShardedRunStore` generalizes the prefix directories into
first-class shards (the paper's §2.1 parallel-RDBMS storage argument)::

    <root>/
      shards/<i>/objects/<key[:2]>/<key>/...   # i = crc32(key) % shards
      objects/...                              # flat layout, still read
      checkpoints/  tmp/  generation           # shared across shards

A key's shard is :func:`repro.parallel.keys.partition_index` — the same
canonical CRC-32 the engine's hash partitioning and the mapreduce
shuffle use — so a content address keeps its shard across subsystem
boundaries.  Reads fall back to the flat ``objects/`` tree, which makes
opening an old flat store as a sharded one a transparent migration
(``migrate_layout`` renames entries into their shards for real).  Stat
passes run per shard and merge into one *global* oldest-first order, so
``ls(limit=)`` and size-ordered ``gc`` are byte-identical to the flat
store; ``gc`` deletions fan out one-shard-per-task through a
:mod:`repro.parallel` backend under fault scope ``store.shard``.

Writes are atomic: each entry is staged in a scratch directory and
``os.rename``d into place, so readers never observe a half-written
entry and a crash mid-``put`` leaves only scratch debris (removed by
:meth:`RunStore.gc`).  Removals are atomic the same way: an entry
directory is renamed into ``tmp/`` and deleted there, so a kill or a
concurrent reader sees the whole entry or none of it.  ``gc`` evicts by
age and/or total size, oldest first; hit/miss/put/eviction counts are
kept on the store and mirrored to ``ensemble.store.*`` obs counters
when observability is live.

Entries are immutable, so a key seen present stays present until
something removes it.  Every method that removes or moves entries
(``evict``, ``gc``, ``migrate_layout``) writes a fresh random token to
``generation`` before its first removal and again after its last, and
:meth:`RunStore.contains_many` answers a key it has already seen
present under the current token from memory, statting only the rest.
A store that never removed anything has no ``generation`` file; it
reads as the empty token.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.ensemble.spec import canonical_json, canonical_params
from repro.errors import SimulationError
from repro.obs import get_observer
from repro.parallel.backend import get_backend
from repro.parallel.keys import partition_index

#: Bump when the entry format or result encoding changes; participates
#: in every run key, so old entries become unreachable (and collectable
#: by ``gc``) rather than mis-decoded.
STORE_SCHEMA_VERSION = 1

#: Fault-plan scope for the sharded store's per-shard gc fan-out; the
#: task index is the shard's position in the deterministic ascending
#: shard order of the eviction batch.
STORE_SHARD_SCOPE = "store.shard"

#: Environment variable selecting the shard count for stores opened via
#: :func:`open_store` (the CLI's ``--shards`` flag overrides it).
SHARDS_ENV_VAR = "REPRO_STORE_SHARDS"

_ARRAY_MARKER = "__npz__"


def run_key(
    qualname: str,
    params: Mapping[str, Any],
    seed: int,
    upstream: Optional[Mapping[str, str]] = None,
    schema_version: int = STORE_SCHEMA_VERSION,
) -> str:
    """The content address of one scenario run (sha256 hex digest)."""
    payload = json.dumps(
        {
            "callable": qualname,
            "params": canonical_params(dict(params)),
            "seed": int(seed),
            "schema": int(schema_version),
            "upstream": dict(upstream or {}),
        },
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- result encoding --------------------------------------------------------

def encode_result(result: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Split a result into a JSON tree plus extracted numpy arrays.

    Arrays are replaced by ``{"__npz__": <entry>}`` references; numpy
    scalars collapse to python scalars; tuples collapse to lists.  The
    encoding is its own normal form: ``decode(encode(x))`` is identical
    for already-normalized values, which is why the scheduler returns
    normalized results even on a cache *miss* — a cold run and a warm
    run hand back byte-identical structures.
    """
    arrays: Dict[str, np.ndarray] = {}

    def walk(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            name = f"a{len(arrays)}"
            arrays[name] = value
            return {_ARRAY_MARKER: name}
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, Mapping):
            out = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise SimulationError(
                        f"result keys must be strings, got {key!r}"
                    )
                if key == _ARRAY_MARKER:
                    raise SimulationError(
                        f"result key {key!r} collides with the array marker"
                    )
                out[key] = walk(item)
            return out
        if isinstance(value, (list, tuple)):
            return [walk(item) for item in value]
        if (
            value is None
            or isinstance(value, (bool, int, float, str))
        ):
            return value
        raise SimulationError(
            f"scenario result contains {type(value).__name__} "
            f"({value!r}), which the run store cannot persist; return "
            "JSON-able scalars, lists, dicts, or numpy arrays"
        )

    return walk(result), arrays


def decode_result(tree: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode_result` (arrays restored losslessly)."""
    if isinstance(tree, dict):
        if set(tree) == {_ARRAY_MARKER}:
            return np.asarray(arrays[tree[_ARRAY_MARKER]])
        return {key: decode_result(item, arrays) for key, item in tree.items()}
    if isinstance(tree, list):
        return [decode_result(item, arrays) for item in tree]
    return tree


def normalize_result(result: Any) -> Any:
    """The store's normal form of a result (without touching disk)."""
    tree, arrays = encode_result(result)
    return decode_result(tree, arrays)


def result_fingerprint(result: Any) -> str:
    """A sha256 over the full content of a result, arrays included.

    Byte-identity oracle for tests and benchmarks: two results with the
    same fingerprint serialize to the same ``run.json`` + ``arrays.npz``
    content (array dtype, shape, and raw bytes all participate).
    """
    tree, arrays = encode_result(result)
    digest = hashlib.sha256()
    digest.update(
        json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()
    )
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# -- the store --------------------------------------------------------------

@dataclass
class StoreStats:
    """Cumulative accounting for one :class:`RunStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class StoreEntry:
    """One persisted run, as listed by :meth:`RunStore.ls`."""

    key: str
    scenario: str
    seed: int
    size_bytes: int
    mtime: float
    params_json: str = ""


def _discard_entry(
    scratch: str,
    key: str,
    entry_dirs: Sequence[str],
    checkpoint: Optional[str] = None,
) -> bool:
    """Remove ``key``'s entry directories; whether any existed.

    Each directory is renamed into ``scratch`` under a name no ``put``
    stage can take (stages start with the key) and deleted there, so a
    kill or a concurrent reader sees the whole entry or none of it;
    ``gc``'s scratch sweep collects whatever a kill leaves behind.  The
    chain ``checkpoint``, if given, goes with a removed entry.
    """
    existed = False
    for entry_dir in entry_dirs:
        doomed = os.path.join(
            scratch, f"evicted.{key}.{os.urandom(8).hex()}"
        )
        try:
            os.rename(entry_dir, doomed)
        except FileNotFoundError:
            continue
        existed = True
        shutil.rmtree(doomed, ignore_errors=True)
    if existed and checkpoint is not None:
        try:
            os.unlink(checkpoint)
        except FileNotFoundError:
            pass
    return existed


class RunStore:
    """Content-addressed result cache rooted at a directory.

    Thread-safe within one process: the serve layer hands a single
    store to every session, so ``get``/``put``/``evict`` from
    concurrent worker threads interleave freely.  Entry *content* is
    already safe by construction (entries are immutable and committed
    with one atomic rename — the first rename wins and later stagings
    of identical content are discarded, which also makes concurrent
    same-key writers from separate processes safe), but the in-process
    paths share mutable state: :class:`StoreStats` increments are
    read-modify-write, and a reader that has opened ``run.json`` can
    lose ``arrays.npz`` to a concurrent ``evict``/``gc`` mid-read.  An
    internal re-entrant lock therefore serializes the read path, the
    stage-and-rename commit, and eviction; result encoding and array
    staging (the expensive parts of ``put``) happen outside the lock.
    The keys :meth:`contains_many` has seen present are one immutable
    set, tagged with its generation and swapped under a lock of its own.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = os.fspath(root)
        self.stats = StoreStats()
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        # (generation token, keys seen present under it); an empty set
        # is sound under any token.
        self._present: Tuple[str, FrozenSet[str]] = ("", frozenset())
        self._present_lock = threading.Lock()
        os.makedirs(self._objects_dir(), exist_ok=True)
        os.makedirs(self.checkpoint_dir(), exist_ok=True)
        os.makedirs(self._scratch_dir(), exist_ok=True)

    # -- layout --------------------------------------------------------------
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _scratch_dir(self) -> str:
        return os.path.join(self.root, "tmp")

    def checkpoint_dir(self) -> str:
        """Directory for chain-prefix checkpoints (crash resumability)."""
        return os.path.join(self.root, "checkpoints")

    def _checkpoint_path(self, key: str) -> str:
        return os.path.join(self.checkpoint_dir(), f"{key}.ckpt")

    def _entry_dir(self, key: str) -> str:
        """The canonical directory new entries for ``key`` commit into."""
        self._validate_key(key)
        return os.path.join(self._objects_dir(), key[:2], key)

    def _candidate_dirs(self, key: str) -> Tuple[str, ...]:
        """Every directory ``key`` may live in (canonical first).

        The flat store has exactly one; the sharded store adds the flat
        layout as a read-through fallback for unmigrated entries.
        """
        return (self._entry_dir(key),)

    def _lock_for_key(self, key: str) -> threading.RLock:
        """The lock serializing reads/commits/evictions of ``key``."""
        return self._lock

    # -- eviction generation -------------------------------------------------
    def _generation_path(self) -> str:
        # At the root, not per shard: one token covers every layout.
        return os.path.join(self.root, "generation")

    def _read_generation(self) -> str:
        """The current eviction generation (``""`` before any removal)."""
        try:
            with open(self._generation_path(), "r", encoding="ascii") as handle:
                return handle.read()
        except FileNotFoundError:
            return ""

    def _bump_generation(self) -> None:
        """Install a fresh token with one atomic replace.

        Each token is random, never a read-modify-write counter: two
        concurrent evictors must never write the same value.
        """
        token = os.urandom(16).hex()
        staged = os.path.join(self._scratch_dir(), f"generation.{token}")
        with open(staged, "w", encoding="ascii") as handle:
            handle.write(token)
        os.replace(staged, self._generation_path())

    @contextmanager
    def _removing(self) -> Iterator[None]:
        """Bracket removals with a bump before the first and after the last.

        The first bump stops a ``contains_many`` that starts mid-removal
        from trusting a set built before it; the second drops any set
        filled by stats taken during the removal.
        """
        self._bump_generation()
        try:
            yield
        finally:
            self._bump_generation()

    def _note(self, stat: str, amount: int = 1) -> None:
        """Record one stats field + its obs counter (thread-safe)."""
        with self._stats_lock:
            setattr(self.stats, stat, getattr(self.stats, stat) + amount)
        get_observer().counter(f"ensemble.store.{stat}").add(amount)

    @staticmethod
    def _validate_key(key: str) -> None:
        # 64 lowercase hex digits, nothing else: the key names a path.
        # ``strip`` leaves a non-empty remainder iff any character is
        # outside the set, and runs in C on every contains/get/put.
        if len(key) != 64 or key.strip("0123456789abcdef"):
            raise SimulationError(f"malformed run key {key!r}")

    # -- read path -----------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether ``key`` has a committed entry (no stats recorded)."""
        return any(
            os.path.exists(os.path.join(candidate, "run.json"))
            for candidate in self._candidate_dirs(key)
        )

    def contains_many(self, keys: Sequence[str]) -> List[bool]:
        """``[self.contains(key) for key in keys]``, statting only unseen keys.

        Reads the eviction generation once.  A key this instance has
        already seen present under that generation is answered from
        memory; every other key goes through :meth:`contains`.  Only
        positive answers are remembered, under the generation read
        before them: an absence is never cached, because another process
        may put the key at any moment.
        """
        generation = self._read_generation()
        with self._present_lock:
            if self._present[0] != generation:
                self._present = (generation, frozenset())
            present = self._present[1]
        # One C-level pass answers the keys seen present; only the rest
        # are visited in Python, each with one stat.
        answers = list(map(present.__contains__, keys))
        found: List[str] = []
        for i in compress(range(len(answers)), map(not_, answers)):
            if self.contains(keys[i]):
                answers[i] = True
                found.append(keys[i])
        if found:
            with self._present_lock:
                tag, known = self._present
                if tag == generation:
                    self._present = (generation, known.union(found))
        return answers

    def get(self, key: str) -> Optional[Any]:
        """The stored result for ``key``, or ``None`` on a miss.

        An entry whose ``run.json`` references arrays that are not
        there is a miss too.  Either a removal by another process took
        the entry between the two reads, or the entry was torn by an
        earlier version's in-place removal; a torn entry is moved into
        ``tmp/`` as a removal, so the generation moves and the key
        reads absent from then on.
        """
        candidates = self._candidate_dirs(key)
        with self._lock_for_key(key):
            document = None
            entry_dir = None
            for candidate in candidates:
                run_path = os.path.join(candidate, "run.json")
                try:
                    with open(run_path, "r", encoding="utf-8") as handle:
                        document = json.load(handle)
                except FileNotFoundError:
                    continue
                entry_dir = candidate
                break
            if document is None:
                self._note("misses")
                return None
            if document.get("schema") != STORE_SCHEMA_VERSION:
                # Unreachable via run_key addressing; guards hand-made keys.
                self._note("misses")
                return None
            arrays: Dict[str, np.ndarray] = {}
            npz_path = os.path.join(entry_dir, "arrays.npz")
            if os.path.exists(npz_path):
                try:
                    with np.load(npz_path) as payload:
                        arrays = {name: payload[name] for name in payload.files}
                except FileNotFoundError:
                    pass  # removed since the check: decoding below misses
            try:
                result = decode_result(document["result"], arrays)
            except KeyError:
                torn = os.path.exists(
                    os.path.join(entry_dir, "run.json")
                ) and not os.path.exists(npz_path)
                if torn:
                    with self._removing():
                        _discard_entry(self._scratch_dir(), key, [entry_dir])
                self._note("misses")
                return None
            self._note("hits")
        return result

    # -- write path ----------------------------------------------------------
    def put(
        self,
        key: str,
        result: Any,
        scenario: str = "",
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
    ) -> Any:
        """Persist ``result`` under ``key``; returns the normalized result.

        Staged under ``tmp/`` and committed with one atomic rename of
        the entry directory; a concurrent identical ``put`` of the same
        key loses the rename race harmlessly.  A directory left at the
        entry's place without a ``run.json`` (an entry torn by an earlier
        version's in-place removal) is moved into ``tmp/`` and the
        rename retried once.
        """
        entry_dir = self._entry_dir(key)
        tree, arrays = encode_result(result)
        document = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "scenario": scenario,
            "params": canonical_json(params or {}),
            "seed": int(seed),
            "result": tree,
        }
        stage = os.path.join(
            self._scratch_dir(),
            f"{key}.{os.getpid()}.{threading.get_ident()}"
            f".{time.monotonic_ns()}",
        )
        os.makedirs(stage)
        try:
            # Staging happens lock-free: the scratch directory name is
            # unique per thread, so concurrent writers never share it.
            if arrays:
                with open(os.path.join(stage, "arrays.npz"), "wb") as handle:
                    np.savez(handle, **arrays)
            with open(
                os.path.join(stage, "run.json"), "w", encoding="utf-8"
            ) as handle:
                json.dump(document, handle, sort_keys=True, indent=1)
            with self._lock_for_key(key):
                os.makedirs(os.path.dirname(entry_dir), exist_ok=True)
                for retry in (False, True):
                    try:
                        os.rename(stage, entry_dir)
                        break
                    except OSError:
                        if self.contains(key):
                            # A same-key writer (thread or process)
                            # committed first; entries are immutable and
                            # content-addressed, so losing the race is
                            # harmless.
                            shutil.rmtree(stage, ignore_errors=True)
                            break
                        if retry:
                            raise
                        _discard_entry(self._scratch_dir(), key, [entry_dir])
                self._note("puts")
        except Exception:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        return decode_result(tree, arrays)

    # -- maintenance ---------------------------------------------------------
    @staticmethod
    def _stat_tree(objects_dir: str) -> List[StoreEntry]:
        """Unordered stat-only entries of one ``objects/`` tree."""
        entries: List[StoreEntry] = []
        if not os.path.isdir(objects_dir):
            return entries
        for prefix in sorted(os.listdir(objects_dir)):
            prefix_dir = os.path.join(objects_dir, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for key in sorted(os.listdir(prefix_dir)):
                entry_dir = os.path.join(prefix_dir, key)
                run_path = os.path.join(entry_dir, "run.json")
                if not os.path.isfile(run_path):
                    continue
                try:
                    size = 0
                    for filename in os.listdir(entry_dir):
                        info = os.stat(os.path.join(entry_dir, filename))
                        size += info.st_size
                    mtime = os.stat(run_path).st_mtime
                except OSError:
                    continue  # evicted between listing and stat
                entries.append(StoreEntry(key, "", 0, size, mtime))
        return entries

    def _stat_entries(self) -> List[StoreEntry]:
        """Every committed entry via ``stat`` only — no ``run.json`` reads.

        Entries come back oldest first (mtime, then key) with the
        metadata fields (scenario/seed/params) left empty; :meth:`ls`
        fills them in for the entries it actually returns.
        """
        entries = self._stat_tree(self._objects_dir())
        entries.sort(key=lambda entry: (entry.mtime, entry.key))
        return entries

    def _read_meta(self, entry: StoreEntry) -> StoreEntry:
        """``entry`` with scenario/seed/params filled from ``run.json``."""
        scenario, seed, params_json = "", 0, ""
        for candidate in self._candidate_dirs(entry.key):
            run_path = os.path.join(candidate, "run.json")
            try:
                with open(run_path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
                scenario = document.get("scenario", "")
                seed = int(document.get("seed", 0))
                params_json = document.get("params", "")
                break
            except (OSError, ValueError):
                continue
        return StoreEntry(
            entry.key, scenario, seed, entry.size_bytes, entry.mtime,
            params_json,
        )

    def ls(
        self,
        limit: Optional[int] = None,
        with_meta: bool = True,
    ) -> List[StoreEntry]:
        """Committed entries, oldest first (mtime, then key).

        ``limit`` truncates to the ``limit`` oldest entries *before* any
        ``run.json`` is opened, so listing a huge store costs one cheap
        ``stat`` pass plus O(limit) metadata reads rather than O(store).
        ``with_meta=False`` skips the metadata reads entirely (keys,
        sizes, and mtimes only).
        """
        entries = self._stat_entries()
        if limit is not None:
            if limit < 0:
                raise SimulationError(f"ls limit must be >= 0, got {limit}")
            entries = entries[:limit]
        if with_meta:
            entries = [self._read_meta(entry) for entry in entries]
        return entries

    def summary(self) -> Tuple[int, int]:
        """``(entry count, total bytes)`` from the stat pass alone.

        O(entries) directory stats, zero ``run.json`` reads — the cheap
        header line for ``python -m repro ensemble ls --summary`` and the
        delta CLI's store banner.
        """
        entries = self._stat_entries()
        return len(entries), sum(entry.size_bytes for entry in entries)

    def total_bytes(self) -> int:
        """Total committed entry size in bytes."""
        return self.summary()[1]

    def _discard(self, key: str) -> bool:
        """Remove ``key``'s entry and checkpoint under its lock."""
        with self._lock_for_key(key):
            return _discard_entry(
                self._scratch_dir(), key, self._candidate_dirs(key),
                self._checkpoint_path(key),
            )

    def evict(self, key: str) -> bool:
        """Remove one entry (and its chain checkpoint, if any)."""
        if not any(map(os.path.isdir, self._candidate_dirs(key))):
            return False  # nothing to remove: the generation stays
        with self._removing():
            removed = self._discard(key)
        if removed:
            self._note("evictions")
        return removed

    def _evict_many(self, keys: List[str]) -> List[str]:
        """Evict a planned batch; returns the keys actually removed.

        The sharded store overrides this to fan the deletions
        one-shard-per-task through the execution substrate; the returned
        order always matches the planned ``keys`` order.
        """
        if not keys:
            return []
        with self._removing():
            removed = [key for key in keys if self._discard(key)]
        if removed:
            self._note("evictions", len(removed))
        return removed

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        now: Optional[float] = None,
        scratch_age_seconds: float = 300.0,
    ) -> List[str]:
        """Evict entries by age and/or total size; returns evicted keys.

        Age eviction removes every entry older than ``max_age_seconds``;
        size eviction then removes *oldest-first* until the store fits
        in ``max_total_bytes``.  The size pass re-derives the total from
        a fresh stat of the *surviving* entries after every eviction
        batch — a total snapshotted before the age pass goes stale the
        moment a concurrent ``put`` lands, and trusting it could return
        with the store still above the bound.  Scratch debris from
        crashed ``put`` calls is swept once it is older than
        ``scratch_age_seconds`` — the age gate is what makes ``gc`` safe
        to run concurrently with ``put``, whose staging directory lives
        in the same scratch space until the atomic rename (an
        unconditional sweep used to delete an in-flight put's staging
        files out from under it).  With neither bound set, only stale
        debris is collected.
        """
        wall = time.time()
        now = wall if now is None else now
        evicted: List[str] = []
        # Age/size eviction needs only keys, sizes, and mtimes — skip
        # the per-entry run.json reads.
        if max_age_seconds is not None:
            stale = [
                entry.key
                for entry in self.ls(with_meta=False)
                if now - entry.mtime > max_age_seconds
            ]
            evicted.extend(self._evict_many(stale))
        if max_total_bytes is not None:
            while True:
                survivors = self.ls(with_meta=False)
                total = sum(entry.size_bytes for entry in survivors)
                if total <= max_total_bytes:
                    break
                planned: List[str] = []
                for entry in survivors:
                    if total <= max_total_bytes:
                        break
                    planned.append(entry.key)
                    total -= entry.size_bytes
                removed = self._evict_many(planned)
                evicted.extend(removed)
                if not removed:
                    break  # nothing evictable remains; avoid spinning
        scratch = self._scratch_dir()
        if os.path.isdir(scratch):
            for debris in os.listdir(scratch):
                path = os.path.join(scratch, debris)
                try:
                    # Age against the real clock, not the caller-injected
                    # ``now``: staging mtimes are real timestamps, so a
                    # test pinning ``now`` must not nuke live stages.
                    age = wall - os.path.getmtime(path)
                except OSError:
                    continue  # renamed or removed by a concurrent put
                if age <= scratch_age_seconds:
                    continue
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:  # a generation token staged by a killed bump
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunStore {self.root!r} {self.stats.as_dict()}>"


# -- the sharded store -------------------------------------------------------

def _evict_shard_batch(
    task: Tuple[str, List[Tuple[str, List[str], str]]]
) -> List[str]:
    """Backend task: remove one shard's planned entries.

    ``task`` is ``(scratch_dir, [(key, entry_dirs, checkpoint_path),
    ...])`` for one shard; each entry goes through
    :func:`_discard_entry`.  Fault injection fires *before* the body
    runs, so a retried attempt removes the same entries; the return
    value lists the keys this call removed.
    """
    scratch, entries = task
    return [
        key
        for key, entry_dirs, checkpoint in entries
        if _discard_entry(scratch, key, entry_dirs, checkpoint)
    ]


class ShardedRunStore(RunStore):
    """A :class:`RunStore` whose entries spread over ``shards`` roots.

    Key→shard assignment is :func:`repro.parallel.keys.partition_index` over
    the content address — the engine's canonical CRC-32 — so the layout
    is a pure function of the key.  Each shard has its own lock (same-
    shard operations serialize, cross-shard operations proceed in
    parallel) and its own ``objects/`` tree; ``tmp/``, ``checkpoints/``
    and the ``generation`` file stay shared at the root.  Stat passes
    merge the per-shard trees (plus any unmigrated flat-layout entries)
    into one global oldest-first order, which keeps ``ls(limit=)`` ordering and
    size-ordered ``gc`` eviction byte-identical to the flat store on the
    same corpus.  ``gc`` deletions fan out one-shard-per-task through
    :meth:`~repro.parallel.backend.Backend.map` under fault scope
    ``store.shard`` while the driver holds the affected shard locks, so
    in-process readers never lose files mid-read.
    """

    def __init__(
        self,
        root: os.PathLike,
        shards: int = 4,
        backend: Optional[Any] = None,
    ) -> None:
        if int(shards) < 1:
            raise SimulationError(
                f"shard count must be >= 1, got {shards}"
            )
        self.shards = int(shards)
        self._backend = backend
        self._shard_locks = [
            threading.RLock() for _ in range(self.shards)
        ]
        super().__init__(root)
        for shard in range(self.shards):
            os.makedirs(self._shard_objects_dir(shard), exist_ok=True)

    # -- layout --------------------------------------------------------------
    def _shard_objects_dir(self, shard: int) -> str:
        return os.path.join(self.root, "shards", str(shard), "objects")

    def shard_of(self, key: str) -> int:
        """The shard holding ``key`` (pure CRC-32 of the address)."""
        self._validate_key(key)
        return partition_index(key, self.shards)

    def _entry_dir(self, key: str) -> str:
        return os.path.join(
            self._shard_objects_dir(self.shard_of(key)), key[:2], key
        )

    def _candidate_dirs(self, key: str) -> Tuple[str, ...]:
        # Canonical shard location first, then the flat layout — an old
        # flat store opened as a sharded one reads through transparently.
        return (
            self._entry_dir(key),
            os.path.join(self._objects_dir(), key[:2], key),
        )

    def _lock_for_key(self, key: str) -> threading.RLock:
        return self._shard_locks[self.shard_of(key)]

    # -- maintenance ---------------------------------------------------------
    def _stat_entries(self) -> List[StoreEntry]:
        entries: List[StoreEntry] = []
        seen = set()
        for shard in range(self.shards):
            for entry in self._stat_tree(self._shard_objects_dir(shard)):
                entries.append(entry)
                seen.add(entry.key)
        for entry in self._stat_tree(self._objects_dir()):
            if entry.key not in seen:  # unmigrated flat-layout entry
                entries.append(entry)
        entries.sort(key=lambda entry: (entry.mtime, entry.key))
        return entries

    def per_shard_summary(self) -> List[Tuple[int, int]]:
        """``(entry count, total bytes)`` per shard (flat entries count
        toward the shard their key maps to)."""
        totals = [[0, 0] for _ in range(self.shards)]
        for entry in self._stat_entries():
            shard = self.shard_of(entry.key)
            totals[shard][0] += 1
            totals[shard][1] += entry.size_bytes
        return [(count, size) for count, size in totals]

    def migrate_layout(self) -> int:
        """Move flat-layout entries into their shards; returns the count.

        Entries move with one ``os.rename`` each (same filesystem, no
        copying); a key already committed under its shard wins and the
        flat duplicate is dropped.  Safe to re-run; a no-op on a fully
        migrated store.  A flat-layout view of the store loses every
        moved entry, so the moves are bracketed by generation bumps like
        any removal.
        """
        entries = self._stat_tree(self._objects_dir())
        if not entries:
            return 0
        moved = 0
        with self._removing():
            for entry in entries:
                source = os.path.join(
                    self._objects_dir(), entry.key[:2], entry.key
                )
                target = self._entry_dir(entry.key)
                with self._lock_for_key(entry.key):
                    if not os.path.isdir(source):
                        continue  # evicted (or migrated) concurrently
                    if os.path.isdir(target):
                        _discard_entry(self._scratch_dir(), entry.key, [source])
                        continue
                    os.makedirs(os.path.dirname(target), exist_ok=True)
                    os.rename(source, target)
                    moved += 1
        return moved

    def _evict_many(self, keys: List[str]) -> List[str]:
        """Fan a planned eviction batch one-shard-per-task.

        The driver groups keys by shard (ascending shard order, plan
        order within a shard), holds the affected shard locks across the
        fan-out — workers never take locks, so this cannot deadlock, and
        in-process readers of those shards block instead of losing
        ``arrays.npz`` mid-read — then merges the per-shard results back
        into the planned global order, so the evicted-key list is
        order-identical to the flat store's sequential pass.
        """
        if not keys:
            return []
        groups: Dict[int, List[str]] = {}
        for key in keys:
            groups.setdefault(self.shard_of(key), []).append(key)
        scratch = self._scratch_dir()
        tasks = [
            (
                scratch,
                [
                    (key, list(self._candidate_dirs(key)),
                     self._checkpoint_path(key))
                    for key in group
                ],
            )
            for _, group in sorted(groups.items())
        ]
        locks = [self._shard_locks[shard] for shard in sorted(groups)]
        with self._removing():
            for lock in locks:
                lock.acquire()
            try:
                outputs = get_backend(self._backend).map(
                    _evict_shard_batch,
                    tasks,
                    scope=STORE_SHARD_SCOPE,
                    quiet=True,
                )
            finally:
                for lock in reversed(locks):
                    lock.release()
        removed = set()
        for output in outputs:
            removed.update(output)
        confirmed = [key for key in keys if key in removed]
        if confirmed:
            self._note("evictions", len(confirmed))
        return confirmed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedRunStore {self.root!r} shards={self.shards} "
            f"{self.stats.as_dict()}>"
        )


def detect_shards(root: os.PathLike) -> Optional[int]:
    """The shard count of an existing sharded layout, or ``None``."""
    shards_dir = os.path.join(os.fspath(root), "shards")
    if not os.path.isdir(shards_dir):
        return None
    indices = [
        int(name) for name in os.listdir(shards_dir) if name.isdigit()
    ]
    if not indices:
        return None
    return max(indices) + 1


def open_store(
    root: os.PathLike,
    shards: Optional[int] = None,
    backend: Optional[Any] = None,
) -> RunStore:
    """Open ``root`` as a flat or sharded store.

    Precedence for the shard count: the explicit ``shards`` argument
    (the CLI's ``--shards``), then the ``REPRO_STORE_SHARDS``
    environment variable, then auto-detection of an existing
    ``shards/`` layout; with none of those, the flat :class:`RunStore`.
    ``shards=0`` forces the flat layout explicitly.
    """
    if shards is None:
        raw = os.environ.get(SHARDS_ENV_VAR, "").strip()
        if raw:
            try:
                shards = int(raw)
            except ValueError:
                raise SimulationError(
                    f"{SHARDS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
    if shards is None:
        shards = detect_shards(root)
    if not shards:
        return RunStore(root)
    return ShardedRunStore(root, shards=shards, backend=backend)


__all__ = [
    "SHARDS_ENV_VAR",
    "STORE_SCHEMA_VERSION",
    "STORE_SHARD_SCOPE",
    "RunStore",
    "ShardedRunStore",
    "StoreEntry",
    "StoreStats",
    "decode_result",
    "detect_shards",
    "encode_result",
    "normalize_result",
    "open_store",
    "result_fingerprint",
    "run_key",
]
