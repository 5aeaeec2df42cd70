"""Corpus, sidecar and report file formats.

Corpora are stored as line-aligned ``<split>.src`` / ``<split>.tgt`` UTF-8
token files (single-space separation, newline endings) plus a
``manifest.json`` carrying the seed, grammar parameters, split sizes and
content hashes.  Auxiliary artefacts (held-out pairs, synonym maps,
exception sets) are JSON sidecars.  Every evaluation mode writes one
versioned ``report.json`` and one ``strata.csv`` breakdown for plotting.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .generation import Corpus, GrammarParams, Sample, UniquenessLedger
from .language import (
    DEFAULT_REGISTRY,
    FunctionRegistry,
    LanguageError,
    OutputTooLong,
    fold,
    interpret,
    stats,
)

# the suite's records are imported where a sidecar is read, so commands
# that read no sidecar do not load the test constructors
if TYPE_CHECKING:
    from .harness import EvaluationReport
    from .suite import ExceptionEntry, HeldOutPair, SynonymMap

SCHEMA_VERSION = 1

# canonical split emission order; unknown names follow alphabetically
_SPLIT_ORDER = {"train": 0, "valid": 1, "test": 2}


class ManifestError(Exception):
    """manifest.json is missing, malformed or contradicts the files."""


class MalformedLine(Exception):
    """A line of a token file is not UTF-8, or a source line does not parse."""


def _split_sort_key(name: str) -> tuple[int, str]:
    return (_SPLIT_ORDER.get(name, len(_SPLIT_ORDER)), name)


def file_sha256(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_token_file(path: Path | str, rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(" ".join(row))
            handle.write("\n")


def read_token_file(path: Path | str) -> list[list[str]]:
    """The whitespace-split lines of a file; MalformedLine if not UTF-8."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(f"{path.name}:{lineno}: not UTF-8 ({exc.reason})") from None
    return [line.split() for line in text.splitlines()]


def write_corpus(
    directory: Path | str,
    corpus: Corpus,
    *,
    extra: Mapping | None = None,
) -> dict:
    """Write split token files and the manifest; returns the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if corpus.splits:
        names = sorted(corpus.splits, key=_split_sort_key)
        splits = [(name, corpus.split(name)) for name in names]
    else:
        splits = [("all", corpus)]
    hashes = {}
    sizes = {}
    for name, samples in splits:
        src_path = directory / f"{name}.src"
        tgt_path = directory / f"{name}.tgt"
        write_token_file(src_path, [s.src for s in samples])
        write_token_file(tgt_path, [s.tgt for s in samples])
        hashes[src_path.name] = file_sha256(src_path)
        hashes[tgt_path.name] = file_sha256(tgt_path)
        sizes[name] = len(samples)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": corpus.seed,
        "params": corpus.params.to_dict() if corpus.params is not None else None,
        "sizes": sizes,
        "hashes": hashes,
    }
    if extra:
        manifest.update(extra)
    write_json(directory / "manifest.json", manifest)
    return manifest


def write_json(path: Path | str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path: Path | str):
    """The JSON document in a file; one that is not UTF-8 JSON raises a
    ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None


def _manifest(path: Path) -> dict:
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    return manifest


def verify_manifest(directory: Path | str) -> list[str]:
    """Check manifest hashes against the files; returns problem strings."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        return [f"{manifest_path}: missing manifest"]
    try:
        manifest = _manifest(manifest_path)
    except ValueError as exc:
        return [str(exc)]
    return _hash_problems(directory, manifest)


def _hash_problems(directory: Path, manifest: dict) -> list[str]:
    """The files of ``directory`` whose hashes disagree with the parsed
    manifest, or are missing, in words."""
    problems = []
    hashes = manifest.get("hashes")
    if not isinstance(hashes, dict):
        return [f"{directory / 'manifest.json'}: no hash table"]
    for name, want in sorted(hashes.items()):
        path = directory / name
        if not path.exists():
            problems.append(f"{path}: listed in manifest but missing")
            continue
        got = file_sha256(path)
        if got != want:
            problems.append(f"{path}: hash mismatch (manifest {want[:12]}…, file {got[:12]}…)")
    return problems


def discover_splits(directory: Path | str) -> list[str]:
    directory = Path(directory)
    names = sorted(
        (p.stem for p in directory.glob("*.src")),
        key=_split_sort_key,
    )
    return list(names)


def read_corpus(
    directory: Path | str,
    *,
    splits: Sequence[str] | None = None,
) -> Corpus:
    """Load a corpus directory back into memory.

    Sources are folded to check them and compute their stats, but not
    evaluated; targets are taken verbatim from the .tgt files (they may
    deliberately disagree with the evaluator, as in exception training
    sets).  When a manifest.json is present the files must match its
    hashes, or ManifestError is raised.  When a
    synonyms.json sidecar is present the registry is extended with it
    automatically.  A line that is not UTF-8 or a source line that does
    not parse raises MalformedLine naming the file and line.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = None
    if manifest_path.exists():
        try:
            manifest = _manifest(manifest_path)
        except ValueError as exc:
            raise ManifestError(str(exc)) from None
        problems = _hash_problems(directory, manifest)
        if problems:
            raise ManifestError("; ".join(problems))
    registry = registry_for_directory(directory)
    names = list(splits) if splits is not None else discover_splits(directory)
    if not names:
        raise FileNotFoundError(f"{directory}: no .src files found")
    seed = None
    params = None
    if manifest is not None:
        seed = manifest.get("seed")
        raw_params = manifest.get("params")
        if raw_params is not None:
            params = _params(manifest_path, raw_params)
    samples: list[Sample] = []
    positions: dict[str, tuple[int, ...]] = {}
    for name in names:
        srcs = read_token_file(directory / f"{name}.src")
        tgts = read_token_file(directory / f"{name}.tgt")
        if len(srcs) != len(tgts):
            raise ManifestError(
                f"{directory}/{name}: {len(srcs)} src lines vs {len(tgts)} tgt lines"
            )
        first = len(samples)
        for lineno, (src, tgt) in enumerate(zip(srcs, tgts), start=1):
            try:
                seq_stats = stats(src, registry)
            except LanguageError as exc:
                raise MalformedLine(f"{name}.src:{lineno}: does not parse ({exc})") from None
            samples.append(Sample(tuple(src), tuple(tgt), seq_stats))
        positions[name] = tuple(range(first, len(samples)))
    return Corpus(samples=samples, seed=seed, params=params, splits=positions)


def registry_for_directory(directory: Path | str) -> FunctionRegistry:
    """Extend the registry with the directory's synonym sidecar if present."""
    sidecar = Path(directory) / "synonyms.json"
    if sidecar.exists():
        return read_synonyms(sidecar).registry()
    return DEFAULT_REGISTRY


# ---------------------------------------------------------------------------
# sidecars


def write_pairs(path: Path | str, pairs: Sequence[HeldOutPair]) -> None:
    write_json(path, [{"outer": p.outer, "inner": p.inner} for p in pairs])


def _rows(path: Path | str, fields: Mapping[str, type]) -> list[dict]:
    """The rows of a JSON sidecar that holds a list of objects, each with
    ``fields`` of the given types; any other shape raises ValueError naming
    the file and the row."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list, got {type(rows).__name__}")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {index}: expected an object")
        for name, kind in fields.items():
            if name not in row:
                raise ValueError(f"{path}: row {index}: missing {name!r}")
            # JSON true and false are ints to isinstance
            if not isinstance(row[name], kind) or isinstance(row[name], bool):
                raise ValueError(f"{path}: row {index}: {name!r} must be {kind.__name__}")
    return rows


def read_pairs(path: Path | str) -> list[HeldOutPair]:
    from .suite import HeldOutPair
    rows = _rows(path, {"outer": str, "inner": str})
    if not rows:  # no pair to hold out would leave the test split empty
        raise ValueError(f"{path}: holds no pairs")
    return [HeldOutPair(row["outer"], row["inner"]) for row in rows]


def write_synonyms(path: Path | str, synonyms: SynonymMap) -> None:
    write_json(path, synonyms.as_dict())


def read_synonyms(path: Path | str) -> SynonymMap:
    from .suite import SynonymMap
    synonyms = read_json(path)
    if not isinstance(synonyms, dict) or not all(
        isinstance(name, str) for name in synonyms.values()
    ):
        raise ValueError(f"{path}: expected a JSON object of function names")
    return SynonymMap.from_dict(synonyms)


def write_exceptions(path: Path | str, entries: Sequence[ExceptionEntry]) -> None:
    write_json(
        path,
        [
            {
                "sample_id": e.sample_id,
                "src": " ".join(e.src),
                "original_tgt": " ".join(e.original_tgt),
                "exception_tgt": " ".join(e.exception_tgt),
                "pair": list(e.pair),
            }
            for e in entries
        ],
    )


def read_exceptions(path: Path | str) -> list[ExceptionEntry]:
    from .suite import ExceptionEntry
    rows = _rows(path, {"sample_id": int, "src": str, "original_tgt": str,
                        "exception_tgt": str, "pair": list})
    entries = []
    for index, row in enumerate(rows):
        pair = row["pair"]
        if len(pair) != 2 or not all(isinstance(name, str) for name in pair):
            raise ValueError(f"{path}: row {index}: 'pair' must be two function names")
        entries.append(
            ExceptionEntry(
                sample_id=row["sample_id"],
                src=tuple(row["src"].split()),
                original_tgt=tuple(row["original_tgt"].split()),
                exception_tgt=tuple(row["exception_tgt"].split()),
                pair=(pair[0], pair[1]),
            )
        )
    return entries


# ---------------------------------------------------------------------------
# predictions


def write_predictions(path: Path | str, predictions: Iterable[Sequence[str] | None]) -> None:
    """One token line per prediction; a failed prediction (None) is an empty line."""
    write_token_file(path, (() if p is None else p for p in predictions))


_CHECKPOINT_RE = re.compile(r"^(\d+)_(.+)\.pred$")


def read_checkpoint_predictions(directory: Path | str) -> list[tuple[str, list[list[str]]]]:
    """Load `<ordinal>_<label>.pred` files in ordinal order."""
    directory = Path(directory)
    found = []
    for path in directory.glob("*.pred"):
        match = _CHECKPOINT_RE.match(path.name)
        if not match:
            raise ValueError(
                f"{path}: checkpoint files must be named <ordinal>_<label>.pred"
            )
        found.append((int(match.group(1)), match.group(2), path))
    if not found:
        raise FileNotFoundError(f"{directory}: no .pred files found")
    found.sort(key=lambda item: (item[0], item[1]))
    return [(label, read_token_file(path)) for _, label, path in found]


# ---------------------------------------------------------------------------
# reports


def write_report(path: Path | str, report: EvaluationReport) -> None:
    write_json(path, {"schema_version": SCHEMA_VERSION, **report.to_dict()})


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One CSV table: ``csv.writer``'s defaults (CRLF rows; None is empty), UTF-8."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_strata_csv(path: Path | str, report: EvaluationReport) -> None:
    """The report's strata rows, families by name and each family's rows in
    the report's order."""
    write_csv(path, ["family", "label", "mean", "count"], (
        [family, label, f"{mean:.9f}", count]
        for family, rows in sorted(report.strata.items())
        for label, (mean, count) in rows.items()
    ))


def write_params(path: Path | str, params: GrammarParams) -> None:
    write_json(path, params.to_dict())


def read_params(path: Path | str) -> GrammarParams:
    """Grammar parameters from a JSON file; a document of the wrong shape or
    with invalid values raises ValueError naming the file."""
    return _params(path, read_json(path))


def _params(path: Path | str, document) -> GrammarParams:
    try:
        return GrammarParams.from_dict(document)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# validation


def validate_corpus_files(
    directory: Path | str,
    *,
    exceptions: Sequence[ExceptionEntry] | None = None,
    counts: dict[str, int] | None = None,
) -> list[str]:
    """The corpus validator; returns line-addressed violation strings.

    Every line pair is checked in split order, with one
    ``UniquenessLedger`` across all splits: the source must parse, the
    target must match its evaluation unless an exception entry with the
    same source prescribes exactly that target (a value too long to build
    is a problem of its own, reported only when the source parses), and
    the corpus constraints must hold; a row that breaks none is recorded.
    A file that is not UTF-8 is reported, and its split skipped.
    ``counts``, when given, receives each read split's number of sources.
    """
    directory = Path(directory)
    problems = list(verify_manifest(directory)) if (directory / "manifest.json").exists() else []
    registry = registry_for_directory(directory)
    excused = {entry.src: entry.exception_tgt for entry in exceptions or ()}
    names = discover_splits(directory)
    if not names:
        problems.append(f"{directory}: no .src files found")
        return problems
    ledger = UniquenessLedger()
    for name in names:
        try:
            src_rows = read_token_file(directory / f"{name}.src")
            tgt_rows = read_token_file(directory / f"{name}.tgt")
        except MalformedLine as exc:
            problems.append(str(exc))
            continue
        if counts is not None:
            counts[name] = len(src_rows)
        if len(src_rows) != len(tgt_rows):
            problems.append(
                f"{name}: {len(src_rows)} src lines vs {len(tgt_rows)} tgt lines"
            )
        for lineno, (src, tgt) in enumerate(zip(src_rows, tgt_rows), start=1):
            where = f"{name}.src:{lineno}"
            try:
                value = fold(src, registry, interpret)[1]
            except OutputTooLong as exc:
                problems.append(f"{where}: does not evaluate ({exc})")
            except LanguageError as exc:
                problems.append(f"{where}: does not parse ({exc})")
                continue
            else:
                tgt = tuple(tgt)
                if value != tgt and excused.get(tuple(src)) != tgt:
                    problems.append(f"{name}.tgt:{lineno}: target does not match evaluation")
            violation = ledger.admit(src, where)
            if violation is not None:
                problems.append(f"{where}: {violation}")
    return problems
