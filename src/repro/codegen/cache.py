"""Fingerprint-keyed cache of compiled specialized modules.

Extends the PR-5 discipline — one compiled artifact per obfuscation-plan
fingerprint, shared across every replay of that plan — from ``CodecPlan``
objects to whole generated modules.  Two levels:

* an in-process LRU keyed ``(fingerprint, form, emitter version)`` mapping
  to the loaded module object, so every session speaking the same dialect
  executes the exact same compiled code object, and
* an optional on-disk layer (``REPRO_CODEGEN_CACHE`` or an explicit
  directory) where the emitted *source* is stored as ``codec_<fp>.py`` /
  ``codec_<fp>_spec.py`` / ``codec_<fp>_parse.py``, sharing the emission cost
  across processes.  Files written by an older emitter are refused by the
  loader's version check and transparently regenerated and overwritten.

Graphs without a plan fingerprint fall back to the content-derived
:func:`~repro.core.fingerprint.graph_fingerprint`, so unstamped-but-identical
graphs still share a slot.
"""

from __future__ import annotations

import os
import types
from collections import OrderedDict
from pathlib import Path

from ..core.errors import CodegenError
from ..core.fingerprint import graph_fingerprint
from ..core.graph import FormatGraph
from .emitter import EMITTER_VERSION, generate_module
from .loader import load_source
from .specializer import generate_specialized_module

#: Loaded modules keyed ``(fingerprint, form, emitter version)``, where the
#: form is the file suffix below, least-recently-used first.  Mirrors the
#: plan cache's bound: rotation-heavy servers cycle through dialects and must
#: not grow the cache without limit.
_MODULE_CACHE: "OrderedDict[tuple[str, str, str], types.ModuleType]" = OrderedDict()
_MODULE_CACHE_CAPACITY = 64

_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0, "disk_hits": 0}

#: Environment variable naming the shared on-disk module cache directory.
CACHE_DIR_ENV = "REPRO_CODEGEN_CACHE"


def module_fingerprint(graph: FormatGraph) -> str:
    """The cache key of ``graph``: its plan fingerprint, else content hash."""
    stamped = getattr(graph, "plan_fingerprint", None)
    if stamped is not None:
        return stamped
    return graph_fingerprint(graph)


def _disk_dir(cache_dir: str | Path | None) -> Path | None:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


def _disk_path(directory: Path, fingerprint: str, form: str) -> Path:
    return directory / f"codec_{fingerprint}{form}.py"


def _store_disk(path: Path, source: str) -> None:
    """Atomically write ``source`` to ``path`` (tmp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(source, encoding="utf-8")
    os.replace(tmp, path)


def cached_module(graph: FormatGraph, *, specialize: bool = True,
                  parse_only: bool = False,
                  cache_dir: str | Path | None = None) -> types.ModuleType:
    """The loaded (specialized) module of ``graph``, emitted at most once.

    ``parse_only=True`` asks for the specialized parse half alone
    (``parse_prefix`` / ``parse``), cached under its own key: the stream
    framer's unit, about half the emission and compile cost of a full module.

    Resolution order: in-process LRU → on-disk source (when a cache directory
    is configured) → fresh emission.  Sources read back from disk must carry
    the current emitter version; stale files are regenerated and overwritten
    instead of being run.
    """
    fingerprint = module_fingerprint(graph)
    form = "_parse" if parse_only else "_spec" if specialize else ""
    key = (fingerprint, form, EMITTER_VERSION)
    module = _MODULE_CACHE.get(key)
    if module is not None:
        _CACHE_STATS["hits"] += 1
        _MODULE_CACHE.move_to_end(key)
        return module
    _CACHE_STATS["misses"] += 1
    directory = _disk_dir(cache_dir)
    source = None
    if directory is not None:
        path = _disk_path(directory, fingerprint, form)
        if path.is_file():
            try:
                module = load_source(path.read_text(encoding="utf-8"),
                                     require_version=True)
                _CACHE_STATS["disk_hits"] += 1
            except (CodegenError, OSError):
                # Stale emitter version / unstamped / unreadable: regenerate.
                module = None
    if module is None:
        if parse_only:
            source = generate_specialized_module(
                graph, plan_fingerprint=fingerprint, parse_only=True)
        else:
            source = generate_module(graph, specialize=specialize,
                                     plan_fingerprint=fingerprint)
        module = load_source(source)
        if directory is not None:
            try:
                _store_disk(_disk_path(directory, fingerprint, form), source)
            except OSError:
                pass  # a read-only cache dir degrades to in-memory caching
    while len(_MODULE_CACHE) >= _MODULE_CACHE_CAPACITY:
        _MODULE_CACHE.popitem(last=False)
        _CACHE_STATS["evictions"] += 1
    _MODULE_CACHE[key] = module
    return module


def module_cache_stats() -> dict[str, int]:
    """Hit/miss/evict/disk-hit counters of the module cache (a copy)."""
    return dict(_CACHE_STATS)


def clear_module_cache() -> None:
    """Drop every cached module and zero the counters (test isolation)."""
    _MODULE_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def cached_module_count() -> int:
    """Number of loaded modules held by the in-process cache."""
    return len(_MODULE_CACHE)
