"""Content-addressed, on-disk store of scenario run results.

The Figure-2 result-caching argument — work shared between simulation
runs must be computed once and *reused in a fixed order* — scales past
a single composite model only if runs have stable names.  Here a run's
name is a content address::

    key = sha256(callable qualname, canonical-JSON params, seed,
                 store schema version, {dep name: dep key})

so two processes that describe the same run derive the same key, a
parameter dict reordered or re-typed through numpy derives the same
key, and bumping :data:`STORE_SCHEMA_VERSION` (a change to the result
encoding) invalidates every old entry at once instead of mixing formats.
Dependency keys fold in Merkle-style: a node's address pins its whole
upstream timeline, which is what lets branched ensembles share exactly
their common prefix.

On-disk layout (documented in README "Ensemble orchestration")::

    <root>/
      entries/<key[:2]>/<key>  # one file per entry: a JSON header
                               # line, then the arrays' raw bytes
      checkpoints/           # ChainCheckpoint files for
                             # crash-resumable chain prefixes
      tmp/                   # put staging
      generation             # eviction generation token

An entry's first line is its document (schema, key, scenario, params,
seed, the JSON result tree and each array's ``.npy`` dtype descr and
shape, in order) as compact JSON, its fields in sorted order and the
result's dicts in their own; the arrays' C-order bytes follow, written
and read without pickling.  The serve wire's :func:`encode_payload` is
the same codec.  This is the only layout.  A root holding ``shards/``,
``objects/`` or ``runs/`` was written by a retired layout (sharded, two
files per entry, or ``.npy`` records) and is refused on open: a store
is a cache, so such a root is deleted and its runs recomputed.

Writes are atomic: each entry is staged as one file in ``tmp/`` and
hard-linked into place, which never replaces an entry, so the first
commit of a key wins, readers never observe a half-written entry, and a
crash mid-``put`` leaves only scratch debris (removed by
:meth:`RunStore.gc`).  A removal is one ``os.unlink``, so a kill or a
concurrent reader sees the whole entry or none of it.  ``gc`` evicts by
age and/or total size, oldest first; hit/miss/put/eviction counts are
kept on the store and mirrored to ``ensemble.store.*`` obs counters
when observability is live.

Entries are immutable, so a key seen present stays present, with the
same content, until something removes it.  Every removal (``evict`` and
``gc``) writes a fresh random token to ``generation`` before its first
removal and again after its last.  A store instance remembers, under one
token, each key it has seen present and, where it wrote or fingerprinted
the entry, its fingerprint: :meth:`RunStore.contains_many` stats only
the keys it does not remember, and :meth:`RunStore.fingerprints` reads
an entry only for a key whose fingerprint it does not.  The memory
holds about 250 bytes per key and is dropped by the next removal, or
when full.  A store that never removed anything has no ``generation``
file; it reads as the empty token.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import math
import os
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import (
    Any,
    Callable,
    Dict,
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

#: Bump when the result encoding changes (what ``decode_result(
#: encode_result(x))`` returns); participates in every run key, so old
#: entries become unreachable (and collectable by ``gc``) rather than
#: mis-decoded.  The container is guarded apart from it: a root holding
#: a retired layout's directory is refused on open.
STORE_SCHEMA_VERSION = 1

_ARRAY_MARKER = "__npz__"
_INLINE_MARKER = "__ndarray__"
_JSON_LEAVES = frozenset((type(None), bool, int, float, str))

#: Top-level directory of each retired layout -> what wrote it.
_RETIRED_LAYOUTS = {
    "shards": "the retired sharded layout",
    "objects": "the retired two-file entry layout",
    "runs": "the retired layout of .npy entry records",
}

#: Keys an instance remembers (~250 B each) before it forgets them all.
_MEMORY_KEYS = 2**14


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

def _encode(value: Any, render: Callable[[np.ndarray], Any]) -> Any:
    """The one walk: ``value`` in the store's normal form, arrays rendered by
    ``render``; what the store cannot persist raises :class:`SimulationError`."""
    if type(value) in _JSON_LEAVES:  # exact types: np.float64 is a float
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise SimulationError(
                f"scenario result contains an array of dtype {value.dtype}, which the run store "
                "cannot persist without pickling; return arrays of numbers, bools or fixed-width "
                "strings"
            )
        return render(value)
    if isinstance(value, np.generic):
        # ``item()`` can return what JSON cannot hold (``date``, ``timedelta``,
        # ``complex``, ``bytes``, or a ``longdouble`` itself): check it too.
        item = value.item()
        if not isinstance(item, np.generic):
            return _encode(item, render)
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SimulationError(f"result keys must be strings, got {key!r}")
            if key == _ARRAY_MARKER or key == _INLINE_MARKER:
                raise SimulationError(f"result key {key!r} collides with an array marker")
            out[key] = _encode(item, render)
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(item, render) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SimulationError(
        f"scenario result contains {type(value).__name__} ({value!r}), which the run store "
        "cannot persist; return JSON-able scalars, lists, dicts, or numpy arrays"
    )


def _decode(tree: Any, marker: str, load: Callable[[Any], np.ndarray]) -> Any:
    """Inverse of :func:`_encode`: ``{marker: ref}`` becomes ``load(ref)``."""
    if isinstance(tree, dict):
        if len(tree) == 1 and marker in tree:
            return load(tree[marker])
        return {key: _decode(item, marker, load) for key, item in tree.items()}
    if isinstance(tree, list):
        return [_decode(item, marker, load) for item in tree]
    return tree


def _describe(array: np.ndarray) -> Dict[str, Any]:
    """The description of ``array`` itself (``np.ascontiguousarray`` would
    make a 0-d array 1-d); its bytes are ``array.tobytes()``."""
    return {"dtype": np.lib.format.dtype_to_descr(array.dtype), "shape": list(array.shape)}


def _descr_from_json(descr: Any) -> Any:
    """``descr`` with the tuples JSON made lists (fields, titled names)."""
    if isinstance(descr, str):
        return descr
    return [(tuple(n) if isinstance(n, list) else n, _descr_from_json(d), *shape)
            for n, d, *shape in descr]


def _read_array(
    description: Mapping[str, Any], readinto: Callable[[bytearray], int]
) -> np.ndarray:
    """The writable array ``description`` describes, read with ``readinto``;
    an object dtype (never read as pointers) or a short read raises."""
    dtype = np.lib.format.descr_to_dtype(_descr_from_json(description["dtype"]))
    if dtype.hasobject:
        raise SimulationError(f"an array of dtype {dtype} cannot be read without unpickling")
    shape = tuple(description["shape"])
    data = bytearray(dtype.itemsize * math.prod(shape))
    if readinto(data) != len(data):
        raise SimulationError(f"array data ends short of its {len(data)} bytes")
    return np.ndarray(shape, dtype, data)


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

    def by_reference(array: np.ndarray) -> Dict[str, str]:
        name = f"a{len(arrays)}"
        arrays[name] = array
        return {_ARRAY_MARKER: name}

    return _encode(result, by_reference), arrays


def decode_result(tree: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`encode_result` (arrays restored losslessly)."""
    return _decode(tree, _ARRAY_MARKER, lambda name: np.asarray(arrays[name]))


def encode_payload(value: Any) -> Any:
    """``value`` as the serve wire carries it: :func:`encode_result`'s walk,
    arrays inline as ``{"__ndarray__": {"dtype", "shape", "data": <base64>}}``."""
    return _encode(value, _inline)


def _inline(array: np.ndarray) -> Dict[str, Any]:
    data = base64.b64encode(array.tobytes()).decode("ascii")
    return {_INLINE_MARKER: dict(_describe(array), data=data)}


def decode_payload(tree: Any) -> Any:
    """Inverse of :func:`encode_payload` (arrays restored losslessly)."""
    return _decode(tree, _INLINE_MARKER, lambda spec: _read_array(
        spec, io.BytesIO(base64.b64decode(spec["data"])).readinto))


def normalize_result(result: Any) -> Any:
    """The store's normal form of a result (without touching disk)."""
    return decode_result(*encode_result(result))


def result_fingerprint(result: Any) -> str:
    """A sha256 over the full content of a result, arrays included.

    Byte-identity oracle for tests and benchmarks: two results with the
    same fingerprint store the same result tree and arrays (array dtype,
    shape, and raw bytes all participate).
    """
    return _fingerprint(*encode_result(result))


def _fingerprint(tree: Any, arrays: Mapping[str, np.ndarray]) -> str:
    """:func:`result_fingerprint` of an already encoded result."""
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


def _read_header(handle) -> Dict[str, Any]:
    """An entry's document, from its first line."""
    return json.loads(handle.readline())


def _read_arrays(handle, document: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """The arrays, named ``a0, a1, …``, of the entry ``document`` heads."""
    return {
        f"a{i}": _read_array(description, handle.readinto)
        for i, description in enumerate(document["arrays"])
    }


def _current(document: Dict[str, Any]) -> bool:
    # Another schema is unreachable via run_key addressing; this guards
    # hand-made keys.
    return document.get("schema") == STORE_SCHEMA_VERSION


class RunStore:
    """Content-addressed result cache rooted at a directory.

    Thread-safe within one process: the serve layer hands a single
    store to every session, so ``get``/``put``/``evict`` from
    concurrent worker threads interleave freely.  Entry *content* is
    safe by construction: entries are immutable, each is one file
    committed with one hard link (the first link wins and later
    stagings of identical content are discarded, which also makes
    concurrent same-key writers from separate processes safe), and a
    reader that has opened an entry reads all of it even if a
    concurrent ``evict``/``gc`` unlinks it meanwhile, so reads take no
    lock.  :class:`StoreStats` increments are read-modify-write and take
    a lock of their own; an internal re-entrant lock serializes the
    commit and eviction.  Result encoding and staging (the expensive
    parts of ``put``) happen outside it.  What the instance remembers is
    one dict, key to fingerprint (``None`` where only presence is
    known), tagged with its generation: a token change swaps in a fresh
    dict under a lock of its own, entries are only added (or all
    dropped, at ``_MEMORY_KEYS``), and readers look keys up without a
    lock.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = os.fspath(root)
        for name, layout in _RETIRED_LAYOUTS.items():
            if os.path.isdir(os.path.join(self.root, name)):
                raise SimulationError(
                    f"run store {self.root!r} holds {name}/, {layout}, "
                    "which this version does not read; a store is a "
                    "cache: delete it and rerun"
                )
        self.stats = StoreStats()
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        # (generation token, {key seen present under it: its fingerprint,
        # or None}); an empty dict is sound under any token.
        self._memory: Tuple[str, Dict[str, Optional[str]]] = ("", {})
        self._memory_lock = threading.Lock()
        os.makedirs(self._runs_dir(), exist_ok=True)
        os.makedirs(self.checkpoint_dir(), exist_ok=True)
        os.makedirs(self._scratch_dir(), exist_ok=True)

    # -- layout --------------------------------------------------------------
    def _runs_dir(self) -> str:
        return os.path.join(self.root, "entries")

    def _scratch_dir(self) -> str:
        return os.path.join(self.root, "tmp")

    def checkpoint_dir(self) -> str:
        """Directory for chain-prefix checkpoints (crash resumability)."""
        return os.path.join(self.root, "checkpoints")

    def _checkpoint_path(self, key: str) -> str:
        return os.path.join(self.checkpoint_dir(), f"{key}.ckpt")

    def _entry_path(self, key: str) -> str:
        """The file ``key``'s entry lives in."""
        self._validate_key(key)
        return os.path.join(self._runs_dir(), key[:2], key)

    # -- eviction generation -------------------------------------------------
    def _generation_path(self) -> str:
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

    # -- memory --------------------------------------------------------------
    #
    # A key is filed under a token only if it was seen present after that
    # token was read: ``contains_many`` and ``fingerprints`` read the
    # token first, and ``get`` and ``put`` take the memory as it stands
    # before they open or link the entry, then file into that same dict.
    # A removal bumps the token before its first unlink and after its
    # last, so once it has finished, every key it removed was filed
    # under a token that is no longer current: the next read drops it.
    def _memory_under(self, generation: str) -> Dict[str, Optional[str]]:
        """The memory tagged ``generation``, swapping out any other."""
        with self._memory_lock:
            if self._memory[0] != generation:
                self._memory = (generation, {})
            return self._memory[1]

    @staticmethod
    def _remember(
        memory: Dict[str, Optional[str]], key: str,
        fingerprint: Optional[str] = None,
    ) -> None:
        """File ``key`` as present, with its fingerprint when known.

        Filing into a memory a newer token has replaced is harmless:
        calls that start later read only the newer one.  Emptying a full
        one is as sound: an empty memory is sound under any token."""
        if len(memory) >= _MEMORY_KEYS and key not in memory:
            memory.clear()
        if fingerprint is None:
            memory.setdefault(key, None)
        else:
            memory[key] = fingerprint

    # -- read path -----------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether ``key`` has a committed entry (no stats recorded)."""
        return os.path.exists(self._entry_path(key))

    def contains_many(self, keys: Sequence[str]) -> List[bool]:
        """``[self.contains(key) for key in keys]``, statting only unseen keys.

        Reads the eviction generation once.  A key this instance has
        already seen present under that generation (by a stat, a ``get``
        hit or a committed ``put``) is answered from memory; every other
        key goes through :meth:`contains`.  Only positive answers are
        remembered: an absence is never cached, because another process
        may put the key at any moment.
        """
        memory = self._memory_under(self._read_generation())
        # One C-level pass answers the keys seen present; only the rest
        # are visited in Python, each with one stat.
        answers = list(map(memory.__contains__, keys))
        for i in compress(range(len(answers)), map(not_, answers)):
            if self.contains(keys[i]):
                answers[i] = True
                self._remember(memory, keys[i])
        return answers

    def fingerprints(self, keys: Sequence[str]) -> List[Optional[str]]:
        """Each key's stored :func:`result_fingerprint`, or ``None`` if
        the key has no entry.

        Reads the eviction generation once, like :meth:`contains_many`,
        and answers from memory where it holds the fingerprint (a
        committed ``put`` or an earlier call filed it); otherwise it
        reads the entry and fingerprints its stored tree and arrays, with
        no decode.  Not a ``get``: it records no hit or miss.
        """
        memory = self._memory_under(self._read_generation())
        answers = list(map(memory.get, keys))
        for i in compress(range(len(answers)), map(not_, answers)):
            fingerprint = self._stored_fingerprint(keys[i])
            if fingerprint is not None:
                answers[i] = fingerprint
                self._remember(memory, keys[i], fingerprint)
        return answers

    def _stored_fingerprint(self, key: str) -> Optional[str]:
        """The fingerprint of ``key``'s stored result, or ``None``."""
        try:
            handle = open(self._entry_path(key), "rb")
        except FileNotFoundError:
            return None
        with handle:
            document = _read_header(handle)
            if not _current(document):
                return None
            # A JSON round trip keeps the tree's leaves exact.
            return _fingerprint(document["result"], _read_arrays(handle, document))

    def get(self, key: str) -> Optional[Any]:
        """The stored result for ``key``, or ``None`` on a miss.

        The entry is opened once: a ``get`` that opened it before a
        concurrent removal reads all of it, and one that opens it after
        misses.
        """
        memory = self._memory[1]  # as it stands before the entry is opened
        try:
            handle = open(self._entry_path(key), "rb")
        except FileNotFoundError:
            self._note("misses")
            return None
        with handle:
            document = _read_header(handle)
            if not _current(document):
                self._note("misses")
                return None
            result = decode_result(document["result"], _read_arrays(handle, document))
        self._remember(memory, key)
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

        Staged as one file under ``tmp/`` and committed with one hard
        link, which never replaces an entry: when a same-key writer
        (thread or process) committed first, this stage is dropped.
        Entries are immutable and content-addressed, so losing that race
        is harmless.  A commit files the result's fingerprint in this
        instance's memory; a stage dropped for another writer's entry
        files nothing.
        """
        path = self._entry_path(key)
        tree, arrays = encode_result(result)
        fingerprint = _fingerprint(tree, arrays)
        document = {
            "arrays": [_describe(array) for array in arrays.values()],
            "key": key,
            "params": canonical_json(params or {}),
            "result": tree,
            "scenario": scenario,
            "schema": STORE_SCHEMA_VERSION,
            "seed": int(seed),
        }
        stage = os.path.join(
            self._scratch_dir(),
            f"{key}.{os.getpid()}.{threading.get_ident()}"
            f".{time.monotonic_ns()}",
        )
        try:
            # Staging happens lock-free: the stage name is unique per
            # thread, so concurrent writers never share it.
            with open(stage, "wb") as handle:
                # Not ``sort_keys``: the result's dicts keep their order,
                # so ``get`` returns what ``put`` returns (sorted, arrays
                # under keys out of order would be numbered, and
                # fingerprinted, differently warm than cold).
                line = json.dumps(document, separators=(",", ":"))
                handle.write(line.encode("ascii") + b"\n")
                for array in arrays.values():
                    handle.write(array.tobytes())
            memory = self._memory[1]  # as it stands before the commit
            with self._lock:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                try:
                    os.link(stage, path)
                except FileExistsError:
                    pass  # another writer's entry: remember nothing
                else:
                    self._remember(memory, key, fingerprint)
                self._note("puts")
        finally:
            with suppress(FileNotFoundError):
                os.unlink(stage)
        return decode_result(tree, arrays)

    # -- maintenance ---------------------------------------------------------
    def _stat_entries(self) -> List[StoreEntry]:
        """Every committed entry via ``stat`` only — no entry is read.

        Entries come back oldest first (mtime, then key) with the
        metadata fields (scenario/seed/params) left empty; :meth:`ls`
        fills them in for the entries it actually returns.
        """
        runs_dir = self._runs_dir()
        entries: List[StoreEntry] = []
        for prefix in os.listdir(runs_dir):
            prefix_dir = os.path.join(runs_dir, prefix)
            for key in os.listdir(prefix_dir):
                try:
                    info = os.stat(os.path.join(prefix_dir, key))
                except FileNotFoundError:
                    continue  # evicted between listing and stat
                entries.append(
                    StoreEntry(key, "", 0, info.st_size, info.st_mtime)
                )
        entries.sort(key=lambda entry: (entry.mtime, entry.key))
        return entries

    def _read_meta(self, entry: StoreEntry) -> StoreEntry:
        """``entry`` with scenario/seed/params filled from its header."""
        scenario, seed, params_json = "", 0, ""
        try:
            with open(self._entry_path(entry.key), "rb") as handle:
                document = _read_header(handle)
            scenario = document.get("scenario", "")
            seed = int(document.get("seed", 0))
            params_json = document.get("params", "")
        except (OSError, ValueError):
            pass  # evicted since the stat pass, or unreadable
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
        header is read, so listing a huge store costs one cheap ``stat``
        pass plus O(limit) header reads rather than O(store).
        ``with_meta=False`` skips the header reads entirely (keys, sizes,
        and mtimes only).
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

        O(entries) stats, zero entry reads — the cheap header line for
        ``python -m repro ensemble ls --summary`` and the delta CLI's
        store banner.
        """
        entries = self._stat_entries()
        return len(entries), sum(entry.size_bytes for entry in entries)

    def total_bytes(self) -> int:
        """Total committed entry size in bytes."""
        return self.summary()[1]

    def _discard(self, key: str) -> bool:
        """Remove ``key``'s entry, and with it its chain checkpoint, under
        the store lock; whether the entry existed."""
        with self._lock:
            try:
                os.unlink(self._entry_path(key))
            except FileNotFoundError:
                return False
            with suppress(FileNotFoundError):
                os.unlink(self._checkpoint_path(key))
        return True

    def evict(self, key: str) -> bool:
        """Remove one entry (and its chain checkpoint, if any)."""
        if not self.contains(key):
            return False  # nothing to remove: the generation stays
        with self._removing():
            removed = self._discard(key)
        if removed:
            self._note("evictions")
        return removed

    def _evict_many(self, keys: List[str]) -> List[str]:
        """Evict one planned ``gc`` batch under one pair of generation
        bumps; returns the keys actually removed, in planned order."""
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
        crashed ``put`` calls and generation bumps is swept once it is
        older than ``scratch_age_seconds`` — the age gate is what makes
        ``gc`` safe to run concurrently with ``put``, whose stage lives
        in the same scratch space until it is linked into place (an
        unconditional sweep used to delete an in-flight put's staging
        files out from under it).  With neither bound set, only stale
        debris is collected.  A negative or NaN bound raises
        :class:`SimulationError` before anything is removed.
        """
        for name, bound in (
            ("max_age_seconds", max_age_seconds),
            ("max_total_bytes", max_total_bytes),
            ("scratch_age_seconds", scratch_age_seconds),
        ):
            if bound is not None and not bound >= 0:
                raise SimulationError(f"gc {name} must be >= 0, got {bound}")
        wall = time.time()
        now = wall if now is None else now
        evicted: List[str] = []
        # Age/size eviction needs only keys, sizes, and mtimes — skip
        # the per-entry header reads.
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
        for debris in os.listdir(scratch):
            path = os.path.join(scratch, debris)
            # Age against the real clock, not the caller-injected
            # ``now``: staging mtimes are real timestamps, so a test
            # pinning ``now`` must not nuke live stages.
            with suppress(FileNotFoundError):  # a concurrent put's commit
                if wall - os.path.getmtime(path) > scratch_age_seconds:
                    os.unlink(path)
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunStore {self.root!r} {self.stats.as_dict()}>"


__all__ = [
    "STORE_SCHEMA_VERSION",
    "RunStore",
    "StoreEntry",
    "StoreStats",
    "decode_payload",
    "decode_result",
    "encode_payload",
    "encode_result",
    "normalize_result",
    "result_fingerprint",
    "run_key",
]
