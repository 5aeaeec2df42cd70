"""Independent checker for the outputs of the pcfgset commands.

Written from the language definition alone: it imports nothing from
``pcfgset``. It holds an iterative reference interpreter for the ten
string-edit functions (so any nesting depth is fine), the overgeneralisation
exception remap, the three corpus constraints checked at the level of
literals, and one check per command output that the benchmark runs.

Every check raises ``CheckFailure`` with a message naming the file and
line at fault.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

ARITY = {
    "copy": 1, "reverse": 1, "shift": 1, "echo": 1, "swap": 1, "repeat": 1,
    "append": 2, "prepend": 2, "remove_first": 2, "remove_second": 2,
}
SEPARATOR = ","
LITERAL = re.compile(r"[A-Z](?:1[0-9]|[1-9])?")

HELD_OUT_PAIRS = (
    ("swap", "repeat"),
    ("append", "remove_second"),
    ("repeat", "remove_second"),
    ("append", "swap"),
)
SYNONYMS = {
    "swap": "swap_syn",
    "repeat": "repeat_syn",
    "append": "append_syn",
    "remove_second": "remove_second_syn",
}
EXCEPTION_REMAP = {
    ("reverse", "echo"): ("echo", "copy"),
    ("prepend", "remove_first"): ("remove_second", "append"),
    ("echo", "remove_first"): ("copy", "append"),
    ("prepend", "reverse"): ("remove_second", "echo"),
}
OVERGEN_GRID = (0.0001, 0.0005, 0.001, 0.005)
SPLIT_FRACTIONS = {"valid": 0.05, "test": 0.10}


class CheckFailure(Exception):
    """An output of the program disagrees with the reference."""


# --- reference interpreter --------------------------------------------------
#
# A tree is ("lit", symbols) for a literal run or (name, (arg, ...)) for an
# application, where name is the function as written (a synonym stays a
# synonym; ``aliases`` maps it to the function whose meaning it has).


def apply(name: str, args: list[tuple]) -> tuple:
    x = args[0]
    if name == "copy":
        return x
    if name == "reverse":
        return x[::-1]
    if name == "shift":
        return x[1:] + x[:1]
    if name == "echo":
        return x + x[-1:]
    if name == "swap":
        return x if len(x) == 1 else x[-1:] + x[1:-1] + x[:1]
    if name == "repeat":
        return x + x
    y = args[1]
    if name == "append":
        return x + y
    if name == "prepend":
        return y + x
    if name == "remove_first":
        return y
    if name == "remove_second":
        return x
    raise CheckFailure(f"no function {name!r}")


def parse(tokens, aliases=None):
    """Parse prefix notation without recursion; raises CheckFailure."""
    aliases = aliases or {}
    toks = list(tokens)
    stack: list[tuple[str, list]] = []
    pos = 0
    while True:
        if pos >= len(toks):
            raise CheckFailure(f"unexpected end at {pos}")
        tok = toks[pos]
        name = aliases.get(tok, tok)
        if name in ARITY:
            stack.append((tok, []))
            pos += 1
            continue
        if not LITERAL.fullmatch(tok):
            raise CheckFailure(f"unexpected token {tok!r} at {pos}")
        start = pos
        while pos < len(toks) and LITERAL.fullmatch(toks[pos]):
            pos += 1
        node = ("lit", tuple(toks[start:pos]))
        while stack:
            fn, args = stack[-1]
            args.append(node)
            if len(args) < ARITY[aliases.get(fn, fn)]:
                if pos >= len(toks) or toks[pos] != SEPARATOR:
                    raise CheckFailure(f"expected ',' at {pos}")
                pos += 1
                break
            stack.pop()
            node = (fn, tuple(args))
        else:
            if pos != len(toks):
                raise CheckFailure(f"trailing token {toks[pos]!r} at {pos}")
            return node


def evaluate(tree, aliases=None, remap=None) -> tuple:
    """Meaning of a tree; with ``remap``, the overgeneralisation exceptions.

    A remapped pair is a function whose first argument is headed by another
    function. Matching is on the tree as written, and both members take
    their replacement meanings for that occurrence.
    """
    aliases = aliases or {}
    values: list[tuple] = []
    work = [(tree, None, False)]
    while work:
        node, forced, ready = work.pop()
        if node[0] == "lit":
            values.append(node[1])
            continue
        name, args = node
        if ready:
            k = len(args)
            result = apply(forced, values[-k:])
            del values[-k:]
            values.append(result)
            continue
        effective = forced
        child_forced: list = [None] * len(args)
        if remap and args[0][0] != "lit":
            key = (aliases.get(name, name), aliases.get(args[0][0], args[0][0]))
            if key in remap:
                outer, inner = remap[key]
                if effective is not None and effective != outer:
                    raise CheckFailure(f"conflicting remaps at {name!r}")
                effective = outer
                child_forced[0] = inner
        work.append((node, effective or aliases.get(name, name), True))
        for arg, f in zip(reversed(args), reversed(child_forced)):
            work.append((arg, f, False))
    return values[0]


def answer(text: str, aliases=None, remap=None) -> str:
    return " ".join(evaluate(parse(text.split(), aliases), aliases, remap))


def literal_runs(tokens) -> list[tuple[str, ...]]:
    runs, run = [], []
    for tok in tokens:
        if LITERAL.fullmatch(tok):
            run.append(tok)
        elif run:
            runs.append(tuple(run))
            run = []
    if run:
        runs.append(tuple(run))
    return runs


def function_count(tokens, aliases=None) -> int:
    aliases = aliases or {}
    return sum(1 for t in tokens if aliases.get(t, t) in ARITY)


def has_pair(tokens, pairs, aliases=None) -> bool:
    aliases = aliases or {}
    names = [aliases.get(t, t) for t in tokens]
    wanted = set(pairs)
    return any((a, b) in wanted for a, b in zip(names, names[1:]))


class Ledger:
    """The corpus constraints, checked on literals.

    Sources are pairwise distinct, no literal occurs twice within one
    sample, and every argument of two or more symbols occurs once in the
    whole corpus.
    """

    def __init__(self):
        self.sources: dict[str, str] = {}
        self.args: dict[tuple[str, ...], str] = {}

    def add(self, tokens, where: str) -> None:
        text = " ".join(tokens)
        if text in self.sources:
            raise CheckFailure(f"{where}: duplicate source (also {self.sources[text]})")
        self.sources[text] = where
        runs = literal_runs(tokens)
        literals = [s for r in runs for s in r]
        if len(set(literals)) != len(literals):
            raise CheckFailure(f"{where}: repeated literal in {text!r}")
        for run in runs:
            if len(run) >= 2:
                if run in self.args:
                    raise CheckFailure(
                        f"{where}: argument {' '.join(run)!r} reused (also {self.args[run]})"
                    )
                self.args[run] = where


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# --- corpus files -----------------------------------------------------------


def read_lines(path: Path) -> list[list[str]]:
    return [line.split() for line in path.read_text(encoding="utf-8").splitlines()]


def read_split(directory: Path, name: str) -> tuple[list[list[str]], list[list[str]]]:
    src = read_lines(directory / f"{name}.src")
    tgt = read_lines(directory / f"{name}.tgt")
    if len(src) != len(tgt):
        raise CheckFailure(f"{directory}/{name}: {len(src)} sources vs {len(tgt)} targets")
    return src, tgt


def check_manifest(directory: Path, sizes: dict[str, int] | None = None) -> dict:
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    for name, want in manifest["hashes"].items():
        got = hashlib.sha256((directory / name).read_bytes()).hexdigest()
        if got != want:
            raise CheckFailure(f"{directory}/{name}: manifest hash does not match")
    if sizes is not None and manifest["sizes"] != sizes:
        raise CheckFailure(f"{directory}: manifest sizes {manifest['sizes']} != {sizes}")
    return manifest


def check_corpus(directory: Path, splits, aliases=None, excused=None) -> dict:
    """Targets, constraints and manifest of one corpus directory.

    ``excused`` maps a source text to the exception target that it carries
    instead of its meaning. Returns {split: (sources, targets)}.
    """
    directory = Path(directory)
    excused = excused or {}
    ledger = Ledger()
    data = {}
    for name in splits:
        src, tgt = read_split(directory, name)
        for lineno, (s, t) in enumerate(zip(src, tgt), start=1):
            where = f"{directory.name}/{name}.src:{lineno}"
            ledger.add(s, where)
            text = " ".join(s)
            want = excused.get(text) or " ".join(evaluate(parse(s, aliases), aliases))
            if " ".join(t) != want:
                raise CheckFailure(f"{where}: target {' '.join(t)!r} != {want!r}")
        data[name] = (src, tgt)
    check_manifest(directory, {name: len(data[name][0]) for name in splits})
    return data


def check_generated(directory: Path, size: int) -> dict:
    """A ``generate`` output: sizes of an 85/5/10 floor split, and the corpus."""
    n_valid = int(size * SPLIT_FRACTIONS["valid"])
    n_test = int(size * SPLIT_FRACTIONS["test"])
    data = check_corpus(directory, ("train", "valid", "test"))
    want = {"train": size - n_valid - n_test, "valid": n_valid, "test": n_test}
    got = {name: len(src) for name, (src, _) in data.items()}
    if got != want:
        raise CheckFailure(f"{directory}: split sizes {got} != {want}")
    return data


def check_validate_output(text: str, size: int) -> None:
    if f"PASS: {size} samples across 3 splits" not in text:
        raise CheckFailure(f"validate did not pass {size} samples: {text.strip()!r}")


# --- test constructors ------------------------------------------------------


def check_systematicity(directory: Path, base: dict, test_size: int) -> None:
    data = check_corpus(directory, ("train", "test"))
    train, test = data["train"][0], data["test"][0]
    if len(test) != test_size:
        raise CheckFailure(f"{directory}: {len(test)} test samples, want {test_size}")
    for i, s in enumerate(test, 1):
        if not has_pair(s, HELD_OUT_PAIRS):
            raise CheckFailure(f"{directory}/test.src:{i}: no held-out bigram")
    for i, s in enumerate(train, 1):
        if has_pair(s, HELD_OUT_PAIRS):
            raise CheckFailure(f"{directory}/train.src:{i}: holds a held-out bigram")
    base_sources = [s for split in base.values() for s in split[0]]
    negatives = sum(1 for s in base_sources if not has_pair(s, HELD_OUT_PAIRS))
    if len(train) != negatives:
        raise CheckFailure(f"{directory}: {len(train)} train samples, want {negatives}")


def check_productivity(directory: Path, base: dict, threshold: int = 8) -> None:
    data = check_corpus(directory, ("train", "test"))
    for name, ok in (("train", lambda k: k <= threshold), ("test", lambda k: k > threshold)):
        for i, s in enumerate(data[name][0], 1):
            if not ok(function_count(s)):
                raise CheckFailure(f"{directory}/{name}.src:{i}: wrong side of {threshold}")
    total = sum(len(split[0]) for split in base.values())
    if len(data["train"][0]) + len(data["test"][0]) != total:
        raise CheckFailure(f"{directory}: train and test do not cover the base")


def _synonym_aliases(directory: Path) -> dict[str, str]:
    mapping = json.loads((directory / "synonyms.json").read_text(encoding="utf-8"))
    if mapping != SYNONYMS:
        raise CheckFailure(f"{directory}/synonyms.json: {mapping} != default map")
    return {syn: base for base, syn in mapping.items()}


def check_substitutivity_equal(directory: Path, base: dict) -> dict:
    """floor(half) of each base function's train occurrences are rewritten,
    every rewritten source means what it meant, and targets are unchanged."""
    aliases = _synonym_aliases(directory)
    splits = [n for n in ("train", "valid", "test") if n in base]
    data = check_corpus(directory, splits, aliases)
    old_src, old_tgt = base["train"]
    new_src, new_tgt = data["train"]
    if new_tgt != old_tgt or len(new_src) != len(old_src):
        raise CheckFailure(f"{directory}: train targets changed")
    for i, (a, b) in enumerate(zip(old_src, new_src), 1):
        if [aliases.get(t, t) for t in b] != a:
            raise CheckFailure(f"{directory}/train.src:{i}: not a synonym rewrite")
    for name in splits[1:]:
        if data[name] != base[name]:
            raise CheckFailure(f"{directory}: {name} split changed")
    for fn, syn in SYNONYMS.items():
        total = sum(s.count(fn) for s in old_src)
        rewritten = sum(s.count(syn) for s in new_src)
        if rewritten != total // 2:
            raise CheckFailure(f"{directory}: {syn} rewrote {rewritten} of {total}")
    return data


def check_substitutivity_primitive(directory: Path, base: dict, fraction: float = 0.001) -> None:
    aliases = _synonym_aliases(directory)
    splits = [n for n in ("train", "valid", "test") if n in base]
    data = check_corpus(directory, splits, aliases)
    old_src = base["train"][0]
    new_src = data["train"][0]
    if new_src[: len(old_src)] != old_src:
        raise CheckFailure(f"{directory}: base train samples changed")
    per_base = round_half_up(fraction * len(old_src))
    added = new_src[len(old_src):]
    counts = {syn: 0 for syn in SYNONYMS.values()}
    for i, s in enumerate(added, len(old_src) + 1):
        if s[0] not in counts or function_count(s, aliases) != 1:
            raise CheckFailure(f"{directory}/train.src:{i}: not a primitive synonym sample")
        counts[s[0]] += 1
    if any(c != per_base for c in counts.values()):
        raise CheckFailure(f"{directory}: added {counts}, want {per_base} each")


def check_overgen(directory: Path, base: dict) -> None:
    """One corpus per percentage; each pair gets round-half-up(pct x count of
    its rarer member over train) exception targets from the remap."""
    train_src = base["train"][0]
    fn_counts: dict[str, int] = {}
    for s in train_src:
        for t in s:
            if t in ARITY:
                fn_counts[t] = fn_counts.get(t, 0) + 1
    for pct in OVERGEN_GRID:
        variant = Path(directory) / f"pct-{pct:g}"
        entries = json.loads((variant / "exceptions.json").read_text(encoding="utf-8"))
        excused = {}
        per_pair: dict[tuple[str, str], int] = {}
        for e in entries:
            pair = tuple(e["pair"])
            tokens = e["src"].split()
            if not has_pair(tokens, [pair]):
                raise CheckFailure(f"{variant}: exception source lacks {pair}")
            if e["original_tgt"] != answer(e["src"]):
                raise CheckFailure(f"{variant}: wrong original target for {e['src']!r}")
            if e["exception_tgt"] != answer(e["src"], remap=EXCEPTION_REMAP):
                raise CheckFailure(f"{variant}: wrong exception target for {e['src']!r}")
            if e["src"] in excused:
                raise CheckFailure(f"{variant}: {e['src']!r} serves two pairs")
            excused[e["src"]] = e["exception_tgt"]
            per_pair[pair] = per_pair.get(pair, 0) + 1
        for (outer, inner) in EXCEPTION_REMAP:
            want = round_half_up(pct * min(fn_counts.get(outer, 0), fn_counts.get(inner, 0)))
            if per_pair.get((outer, inner), 0) != want:
                raise CheckFailure(
                    f"{variant}: {outer}+{inner} has {per_pair.get((outer, inner), 0)} "
                    f"exceptions, want {want}"
                )
        data = check_corpus(variant, ("train",), excused=excused)
        if data["train"][0][: len(train_src)] != train_src:
            raise CheckFailure(f"{variant}: train sources changed")
        sources = {" ".join(s) for s in data["train"][0]}
        if not set(excused) <= sources:
            raise CheckFailure(f"{variant}: an exception source is missing from train")


# --- evaluation and naturalisation -----------------------------------------


def check_report(path: Path, count: int) -> dict:
    """An oracle evaluation: exactly 1.0 over ``count`` items, no errors."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if report.get("metric") == "eos_analysis":
        if report["total"] != count or report["incorrect"] != 0:
            raise CheckFailure(f"{path}: {report['incorrect']} of {report['total']} wrong")
        return report
    if report["count"] != count or report["overall"] != 1.0 or report["errors"]:
        raise CheckFailure(
            f"{path}: {report['metric']} {report['overall']} over {report['count']} "
            f"(want 1.0 over {count}), errors {report['errors']}"
        )
    return report


def check_naturalise(directory: Path, stdout: str) -> list[float]:
    """KL trace never increases and ends at or below the initial KL; the
    shipped corpus is correct. Returns the trace."""
    directory = Path(directory)
    match = re.search(r"initial KL: (\S+)", stdout)
    if not match:
        raise CheckFailure("naturalise printed no initial KL")
    initial = float(match.group(1))
    with open(directory / "kl_trace.csv", newline="", encoding="utf-8") as handle:
        trace = [float(row["kl"]) for row in csv.DictReader(handle)]
    if not trace:
        raise CheckFailure(f"{directory}/kl_trace.csv: empty")
    if any(b > a for a, b in zip(trace, trace[1:])):
        raise CheckFailure(f"{directory}/kl_trace.csv: KL increases: {trace}")
    if trace[-1] > initial:
        raise CheckFailure(f"final KL {trace[-1]} above initial {initial}")
    json.loads((directory / "params.json").read_text(encoding="utf-8"))
    check_corpus(directory, ("train", "valid", "test"))
    return trace


def regenerations(trace: list[float]) -> int:
    """How many iterations regenerated a corpus: the first, and every later
    one whose KL improved on the one before (a regressing candidate is
    recorded at the incumbent KL and regenerates nothing)."""
    return 1 + sum(1 for a, b in zip(trace, trace[1:]) if b < a)


# --- deep nesting -----------------------------------------------------------


def deep_requests(depth: int = 3000) -> list[tuple[str, str]]:
    """Requests nested ``depth`` levels, each with its answer by construction."""
    letters = ["A", "B", "C"]
    return [
        (" ".join(["copy"] * depth + ["A"]), "A"),
        (" ".join(["reverse"] * (depth + 1) + letters), " ".join(reversed(letters))),
        (" ".join(["append", "A", ","] * depth + ["A"]), " ".join(["A"] * (depth + 1))),
    ]
