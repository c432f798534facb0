"""The on-disk snapshot format: generations, manifests, atomic publish.

A snapshot *root* directory holds numbered generation directories plus
a ``CURRENT`` pointer file::

    root/
      CURRENT              # "gen-000003\n" -- the last good generation
      gen-000001/
        manifest.json
        column__R__A1.npy
        ...
      gen-000003/
        manifest.json      # may reference arrays back in gen-000001
        index__R__A1__cuts.npy

Each generation is *self-describing*: its ``manifest.json`` records,
for every logical array, the root-relative file it lives in, its dtype,
shape and sha256 -- so a manifest can carry unchanged arrays forward by
referencing files of older generations instead of rewriting them
(incremental checkpointing).

Crash consistency follows the classic write-new-then-rename protocol:

1. arrays and the manifest are written into a hidden ``.tmp-*`` dir,
2. every file and the dir are fsynced,
3. the tmp dir is renamed to ``gen-NNNNNN`` (atomic on POSIX),
4. ``CURRENT`` is republished via ``os.replace``.

A crash at any step leaves the previous ``CURRENT`` generation -- and
every older generation it references -- untouched; leftover tmp dirs
and unpublished generations are garbage collected on the next write.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np

from repro import faults
from repro.errors import PersistError

#: Bump on any incompatible manifest/layout change.
FORMAT_VERSION = 3

CURRENT_FILE = "CURRENT"
MANIFEST_FILE = "manifest.json"

_GEN_RE = re.compile(r"^gen-(\d{6})$")
_TMP_PREFIX = ".tmp-"


def generation_name(generation: int) -> str:
    """The directory name of generation ``generation``."""
    if generation < 1:
        raise PersistError(f"generation must be >= 1, got {generation}")
    return f"gen-{generation:06d}"


def _sanitize(name: str) -> str:
    """Map a logical array name to a flat, filesystem-safe file stem."""
    return name.replace("/", "__")


def sha256_of_array(array: np.ndarray) -> str:
    """Content hash of an array's raw little-endian bytes."""
    contiguous = np.ascontiguousarray(array)
    return hashlib.sha256(memoryview(contiguous).cast("B")).hexdigest()


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def list_generations(root: Path) -> list[int]:
    """Published generation numbers under ``root``, ascending."""
    root = Path(root)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        match = _GEN_RE.match(entry.name)
        if match and entry.is_dir():
            found.append(int(match.group(1)))
    return sorted(found)


def current_generation(root: Path) -> int | None:
    """The generation ``CURRENT`` points at, or ``None`` if unwritten.

    Raises:
        PersistError: when the pointer is malformed or dangling.
    """
    root = Path(root)
    pointer = root / CURRENT_FILE
    if not pointer.exists():
        return None
    text = pointer.read_text().strip()
    match = _GEN_RE.match(text)
    if not match:
        raise PersistError(
            f"corrupt CURRENT pointer in {root}: {text!r}"
        )
    generation = int(match.group(1))
    if not (root / text / MANIFEST_FILE).exists():
        raise PersistError(
            f"CURRENT points at {text} but its manifest is missing"
        )
    return generation


def read_manifest(root: Path, generation: int) -> dict:
    """Load and validate the manifest of ``generation``.

    Raises:
        PersistError: on a missing, unparsable or wrong-version
            manifest.
    """
    root = Path(root)
    path = root / generation_name(generation) / MANIFEST_FILE
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise PersistError(f"no manifest at {path}") from None
    except json.JSONDecodeError as error:
        raise PersistError(f"corrupt manifest at {path}: {error}") from None
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"snapshot format {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    if manifest.get("generation") != generation:
        raise PersistError(
            f"manifest at {path} claims generation "
            f"{manifest.get('generation')!r}"
        )
    return manifest


def read_current_manifest(root: Path) -> tuple[int, dict]:
    """The last published generation and its manifest.

    Raises:
        PersistError: when no generation was ever published, or the
            pointer/manifest is corrupt.
    """
    generation = current_generation(root)
    if generation is None:
        raise PersistError(f"no snapshot published under {Path(root)}")
    return generation, read_manifest(root, generation)


def write_generation(
    root: Path,
    arrays: dict[str, np.ndarray],
    meta: dict,
    carry: dict[str, dict] | None = None,
) -> int:
    """Publish a new generation; returns its number.

    Args:
        root: snapshot root directory (created if missing).
        arrays: logical name to array -- written fresh into the new
            generation directory.
        meta: JSON-serializable snapshot metadata, stored verbatim
            under the manifest's ``meta`` key.
        carry: manifest array entries (from an older manifest) adopted
            unchanged -- their files are *referenced*, not rewritten.

    Raises:
        PersistError: on sanitized-name collisions or a carried entry
            whose file does not exist.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    _collect_garbage(root)
    carry = dict(carry or {})

    stems: dict[str, str] = {}
    for name in arrays:
        stem = _sanitize(name)
        if stem in stems.values():
            raise PersistError(
                f"array names {name!r} and another entry collide on "
                f"file stem {stem!r}"
            )
        stems[name] = stem
    overlap = set(arrays) & set(carry)
    if overlap:
        raise PersistError(
            f"arrays both written and carried: {sorted(overlap)}"
        )
    for name, entry in carry.items():
        if not (root / entry["file"]).exists():
            raise PersistError(
                f"carried array {name!r} references missing file "
                f"{entry['file']!r}"
            )

    previous = current_generation(root)
    generation = (previous or 0) + 1
    gen_name = generation_name(generation)
    tmp = root / f"{_TMP_PREFIX}{gen_name}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()

    entries: dict[str, dict] = {}
    try:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            file_name = f"{stems[name]}.npy"
            np.save(tmp / file_name, array)
            _fsync_path(tmp / file_name)
            entries[name] = {
                "file": f"{gen_name}/{file_name}",
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "nbytes": int(array.nbytes),
                "sha256": sha256_of_array(array),
                "generation": generation,
            }
        entries.update(carry)
        manifest = {
            "format_version": FORMAT_VERSION,
            "generation": generation,
            "previous_generation": previous,
            "arrays": entries,
            "meta": meta,
        }
        manifest_path = tmp / MANIFEST_FILE
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        _fsync_path(manifest_path)
        _fsync_path(tmp)
        os.rename(tmp, root / gen_name)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_path(root)

    pointer_tmp = root / f"{CURRENT_FILE}.tmp"
    pointer_tmp.write_text(gen_name + "\n")
    _fsync_path(pointer_tmp)
    os.replace(pointer_tmp, root / CURRENT_FILE)
    _fsync_path(root)
    _tamper_published(root, generation, entries)
    return generation


def _tamper_published(root: Path, generation: int, entries: dict) -> None:
    """Apply armed corruption faults to the just-published generation.

    Simulates media failures *after* the write path reported success --
    torn/bit-flipped array files and a garbage ``CURRENT`` pointer --
    which is exactly the corruption class the restore walk-back must
    survive.  No plan armed: zero work.
    """
    if faults.active() is None:
        return
    if faults.tamper("persist.publish.pointer") is not None:
        (root / CURRENT_FILE).write_text("gen-garbage\n")
    fresh = [
        entry
        for entry in entries.values()
        if int(entry["generation"]) == generation
    ]
    if not fresh:
        return
    # The largest freshly-written file: tearing it is visible to the
    # structural quick check, flipping a bit lands in the data region
    # where only a checksum can see it.
    target = max(fresh, key=lambda e: (int(e["nbytes"]), e["file"]))["file"]
    if faults.tamper("persist.publish.torn") is not None:
        faults.tear_file(root / target)
    if faults.tamper("persist.publish.bitflip") is not None:
        faults.flip_bit(root / target)


def load_array(
    root: Path, entry: dict, mmap_mode: str | None = None
) -> np.ndarray:
    """Load one manifest array entry, validating dtype and shape.

    Raises:
        PersistError: on a missing file or metadata mismatch.
    """
    root = Path(root)
    path = root / entry["file"]
    try:
        array = np.load(path, mmap_mode=mmap_mode)
    except FileNotFoundError:
        raise PersistError(f"snapshot array missing: {path}") from None
    except ValueError as error:
        raise PersistError(f"corrupt snapshot array {path}: {error}") from None
    if str(array.dtype) != entry["dtype"] or list(array.shape) != list(
        entry["shape"]
    ):
        raise PersistError(
            f"snapshot array {path} is {array.dtype}{array.shape}, "
            f"manifest says {entry['dtype']}{tuple(entry['shape'])}"
        )
    return array


def quick_verify_manifest(root: Path, manifest: dict) -> None:
    """Structural integrity check, O(metadata): every referenced file
    exists and holds at least its array's payload bytes.

    Catches torn (truncated) and missing files without hashing a byte,
    so it can sit on the restore critical path; bit flips need the
    full :func:`verify_manifest`.

    Raises:
        PersistError: on a missing or truncated array file.
    """
    root = Path(root)
    for name, entry in manifest["arrays"].items():
        path = root / entry["file"]
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            raise PersistError(f"snapshot array missing: {path}") from None
        if size < int(entry["nbytes"]):
            raise PersistError(
                f"snapshot array {name!r} ({entry['file']}) is torn: "
                f"{size} bytes on disk < {entry['nbytes']} payload bytes"
            )


def verify_manifest(root: Path, manifest: dict) -> None:
    """Recompute every array checksum against the manifest.

    Raises:
        PersistError: on the first mismatch.
    """
    for name, entry in manifest["arrays"].items():
        array = load_array(root, entry, mmap_mode="r")
        digest = sha256_of_array(array)
        if digest != entry["sha256"]:
            raise PersistError(
                f"checksum mismatch for array {name!r} "
                f"({entry['file']}): stored {entry['sha256'][:12]}..., "
                f"recomputed {digest[:12]}..."
            )


def referenced_generations(manifest: dict) -> set[int]:
    """Generations whose files the manifest references (incl. itself)."""
    generations = {int(manifest["generation"])}
    for entry in manifest["arrays"].values():
        generations.add(int(entry["generation"]))
    return generations


def prune(root: Path) -> list[str]:
    """Drop generations not reachable from ``CURRENT``; returns names.

    Never touches the current generation or any older generation it
    carries arrays from.  A root with no ``CURRENT`` is left alone
    (there is nothing proven safe to delete).
    """
    root = Path(root)
    generation = current_generation(root)
    if generation is None:
        return []
    keep = referenced_generations(read_manifest(root, generation))
    removed = []
    for number in list_generations(root):
        if number not in keep and number < generation:
            name = generation_name(number)
            shutil.rmtree(root / name)
            removed.append(name)
    return removed


def _collect_garbage(root: Path) -> None:
    """Remove crash leftovers: tmp dirs and unpublished generations."""
    published = current_generation(root)
    for entry in root.iterdir():
        if entry.name.startswith(_TMP_PREFIX) and entry.is_dir():
            shutil.rmtree(entry)
            continue
        match = _GEN_RE.match(entry.name)
        if (
            match
            and entry.is_dir()
            and (published is None or int(match.group(1)) > published)
        ):
            # Renamed into place but CURRENT was never republished:
            # the generation is unreachable, treat it as garbage.
            shutil.rmtree(entry)
