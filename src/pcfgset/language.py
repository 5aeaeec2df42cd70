"""Core language for the PCFG SET string-edit task.

Sequences are prefix-notation programs over ten string-edit functions and
uppercase literal symbols, e.g. ``append swap F G H , repeat I J``.  A
program is its list of token strings.  This module owns tokenisation, the
one structural fold over a program's tokens (``fold``: parsing,
per-sequence statistics and any bottom-up value), and the ground-truth
interpreter; ``serve`` answers programs over the line protocol for the
``oracle`` command.

No evaluation builds a value longer than MAX_OUTPUT_LENGTH.  The length
is checked once per program, from its token counts
(``within_output_limit``); only a program that bound does not clear is
folded with ``interpret``, which checks each call's output length before
building it.
"""

from __future__ import annotations

import string
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

SEPARATOR = ","

# The alphabet: one uppercase letter, optionally suffixed by an integer
# 1..19 (A..Z, then A1..Z1 up to A19..Z19).
LITERALS = tuple(string.ascii_uppercase) + tuple(
    f"{c}{i}" for i in range(1, 20) for c in string.ascii_uppercase
)
LITERAL_SET = frozenset(LITERALS)


class LanguageError(Exception):
    """Base class for tokenisation, parsing and interpretation errors."""


class UnknownToken(LanguageError):
    """A piece of input is neither a function, a separator, nor a literal."""

    def __init__(self, piece: str, position: int | None = None):
        self.piece = piece
        self.position = position
        where = "" if position is None else f" at position {position}"
        super().__init__(f"unknown token {piece!r}{where}")


class UnexpectedEnd(LanguageError):
    """Input ended while a function still expected an argument."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"unexpected end of input at position {position}")


class UnexpectedToken(LanguageError):
    """A token that cannot start or continue a constituent at this point."""

    def __init__(self, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"unexpected token {text!r} at position {position}")


class OutputTooLong(LanguageError):
    """An application would build a value longer than MAX_OUTPUT_LENGTH."""

    def __init__(self, name: str, length: int):
        self.name = name
        self.length = length
        super().__init__(
            f"{name} would output {length} symbols, over the limit of {MAX_OUTPUT_LENGTH}"
        )


Symbols = tuple[str, ...]


class FunctionSymbol(NamedTuple("FunctionSymbol", [
    ("name", str), ("arity", int), ("fn", Callable[..., Symbols]), ("size", Callable[..., int]),
])):
    """A named string-edit function with fixed arity.

    ``size`` gives the output length from the argument lengths, so a value
    can be bounded before it is built.
    """

    __slots__ = ()

    def __new__(cls, name: str, arity: int, fn: Callable[..., Symbols],
                size: Callable[..., int]):
        if arity not in (1, 2):
            raise ValueError(f"{name}: the grammar has unary and binary functions only")
        return super().__new__(cls, name, arity, fn, size)


# --- interpretation functions -------------------------------------------
#
# All operate on non-empty tuples of literal symbols and return tuples.
# shift moves the first symbol to the end and swap trades the first and
# last; both are the identity on single symbols.  The third entry is the
# output length as a function of the argument lengths.

_SEMANTICS: dict[str, tuple[int, Callable[..., Symbols], Callable[..., int]]] = {
    "copy": (1, lambda x: x, lambda n: n),
    "reverse": (1, lambda x: x[::-1], lambda n: n),
    "shift": (1, lambda x: x[1:] + x[:1], lambda n: n),
    "echo": (1, lambda x: x + x[-1:], lambda n: n + 1),
    "swap": (1, lambda x: x if len(x) == 1 else x[-1:] + x[1:-1] + x[:1], lambda n: n),
    "repeat": (1, lambda x: x + x, lambda n: 2 * n),
    "append": (2, lambda x, y: x + y, lambda n, m: n + m),
    "prepend": (2, lambda x, y: y + x, lambda n, m: n + m),
    "remove_first": (2, lambda x, y: y, lambda n, m: m),
    "remove_second": (2, lambda x, y: x, lambda n, m: n),
}

# The longest value one application may build.  A hostile line doubles its value
# with every ``repeat``, so 41 tokens would ask for 2**40 symbols.  The
# longest target seen in a generated corpus is 3,351 symbols (generate
# --seed 0 --size 100000; the calibration run's 100k base peaks at 672), and
# the benchmark's deepest requests answer with 5,001.
MAX_OUTPUT_LENGTH = 1_000_000

# Every function's output is at most the sum of its argument lengths plus
# one, except repeat's, which doubles its argument.
_DOUBLING_SIZE = _SEMANTICS["repeat"][2]
_KNOWN_SIZES = frozenset(size for _, _, size in _SEMANTICS.values())


# what a registry's token table gives a token that is not a function, and
# what fold reads past the last token
_LITERAL, _SEPARATOR, _END = object(), object(), object()


class FunctionRegistry:
    """Closed set of function symbols known to the tokeniser and parser.

    Immutable; ``with_synonyms`` returns an extended copy so concurrent
    users of the default registry never observe mutation.  ``kinds`` maps
    every token the language knows to what it is: the separator, a
    function symbol, or a literal, in that precedence.  ``doubling`` names
    the functions that double a value (``repeat`` and its synonyms), or is
    None when some function's size is none of the built-in ones, so that
    ``within_output_limit`` knows no bound.
    """

    def __init__(self, symbols: Iterable[FunctionSymbol]):
        self._by_name: dict[str, FunctionSymbol] = {}
        for sym in symbols:
            if sym.name in self._by_name:
                raise ValueError(f"duplicate function name {sym.name!r}")
            self._by_name[sym.name] = sym
        self.kinds = dict.fromkeys(LITERALS, _LITERAL) | self._by_name | {SEPARATOR: _SEPARATOR}
        symbols = self._by_name.values()
        self.doubling = (
            tuple(sym.name for sym in symbols if sym.size is _DOUBLING_SIZE)
            if all(sym.size in _KNOWN_SIZES for sym in symbols) else None
        )

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[FunctionSymbol]:
        return iter(self._by_name.values())

    def lookup(self, name: str) -> FunctionSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no function named {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def unary_names(self) -> tuple[str, ...]:
        return tuple(n for n, s in self._by_name.items() if s.arity == 1)

    def binary_names(self) -> tuple[str, ...]:
        return tuple(n for n, s in self._by_name.items() if s.arity == 2)

    def with_synonyms(self, synonym_map: dict[str, str]) -> "FunctionRegistry":
        """Extend with synonyms sharing the base function's behaviour.

        ``synonym_map`` maps base name -> synonym name.  This is where a
        synonym map is checked: every base must be a function of this
        registry, and the synonym names distinct single tokens (a corpus
        file could not hold a name with a space), fresh, and not a literal
        or the separator; ValueError names the first fault.
        """
        for base in synonym_map:
            if base not in self._by_name:
                raise ValueError(f"unknown function {base!r}")
        if len(set(synonym_map.values())) != len(synonym_map):
            raise ValueError("synonym names must be distinct")
        extra = []
        for base, syn in synonym_map.items():
            if syn.split() != [syn] or syn in self.kinds:
                raise ValueError(f"invalid synonym name {syn!r}")
            extra.append(self._by_name[base]._replace(name=syn))
        return FunctionRegistry(list(self._by_name.values()) + extra)


DEFAULT_REGISTRY = FunctionRegistry(
    FunctionSymbol(name, arity, fn, size) for name, (arity, fn, size) in _SEMANTICS.items()
)


class SequenceStats(NamedTuple):
    length: int
    depth: int
    num_functions: int


# --- tokenisation and the structural fold ----------------------------------

def _classify(tokens: Sequence[str], registry: FunctionRegistry) -> list:
    """Each token's entry in the registry's token table; UnknownToken names
    the first piece that has none, and its position."""
    table = registry.kinds
    try:
        return [table[text] for text in tokens]
    except KeyError:
        i = next(i for i, text in enumerate(tokens) if text not in table)
        raise UnknownToken(tokens[i], i) from None


def tokenize(text: str, registry: FunctionRegistry = DEFAULT_REGISTRY) -> list[str]:
    """Split on whitespace; every piece must be a function, the separator
    or a literal, else UnknownToken names it and its position.

    >>> tokenize("append A B , C")
    ['append', 'A', 'B', ',', 'C']
    """
    tokens = text.split()
    _classify(tokens, registry)
    return tokens


def fold(
    tokens: Sequence[str],
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    apply: Callable[[FunctionSymbol, int, list], Any] | None = None,
) -> tuple[SequenceStats, Any]:
    """The one structural pass over a prefix-notation program.

    The tokens are read left to right.  A function opens a call that
    waits on an explicit stack; a maximal run of literals is one string
    argument, ended only by a separator or the end of input; each argument
    closes the calls it completes, after which the innermost open (binary)
    call needs a separator and its second argument.  The whole sequence
    must form exactly one constituent.  Nesting depth is bounded by memory
    alone.

    Returns the program's stats (length: tokens; depth: the most calls
    open at once; the number of functions) and a value.  With ``apply``,
    a string argument's value is its tuple of symbols and each call, as it
    closes (children before parents, left to right), takes the value
    ``apply(function, position, argument values)``, ``position`` being the
    index of its function token.  Without ``apply`` the value is None.

    An unknown piece raises UnknownToken before the structure is read; a
    structural fault raises UnexpectedEnd or UnexpectedToken at its
    position.  A LanguageError raised by ``apply`` (OutputTooLong, say) is
    held until the whole structure has been checked, so a structural fault
    anywhere takes precedence over it.
    """
    literal, separator, end = _LITERAL, _SEPARATOR, _END
    kinds = _classify(tokens, registry)
    kinds.append(end)
    pos = depth = count = 0
    waiting: list[tuple[FunctionSymbol, int, list]] = []
    held: LanguageError | None = None
    try:
        while True:
            kind = kinds[pos]
            if kind is not literal:
                if kind is separator or kind is end:
                    raise _fault(tokens, pos)
                waiting.append((kind, pos, []))
                count += 1
                if len(waiting) > depth:
                    depth = len(waiting)
                pos += 1
                continue
            start = pos
            pos += 1
            while kinds[pos] is literal:
                pos += 1
            value = tuple(tokens[start:pos]) if apply is not None else None
            # close every call this constituent completes
            while waiting:
                fn, at, args = waiting[-1]
                args.append(value)
                if fn.arity == 2 and len(args) < 2:
                    break
                waiting.pop()
                value = None
                if apply is not None:
                    try:
                        value = apply(fn, at, args)
                    except LanguageError as exc:
                        held, apply = exc, None
            else:
                if kinds[pos] is not end:
                    raise _fault(tokens, pos)
                if held is not None:
                    raise held
                return SequenceStats(pos, depth, count), value
            if kinds[pos] is not separator:
                raise _fault(tokens, pos)
            pos += 1
    finally:
        # a raised error's traceback keeps this frame, so drop the held error: no cycle
        held = None


def _fault(tokens: Sequence[str], pos: int) -> LanguageError:
    """The structural error of a program that cannot go on at ``pos``."""
    if pos == len(tokens):
        return UnexpectedEnd(pos)
    return UnexpectedToken(tokens[pos], pos)


def parse(tokens: Sequence[str],
          registry: FunctionRegistry = DEFAULT_REGISTRY) -> tuple[str, ...]:
    """Check that the tokens form exactly one program; returns them as a tuple.

    A program is its tokens: every consumer folds over them.
    """
    fold(tokens, registry)
    return tuple(tokens)


def render(src: Sequence[str]) -> list[str]:
    """The token texts of a program."""
    return list(src)


def stats(src: Sequence[str],
          registry: FunctionRegistry = DEFAULT_REGISTRY) -> SequenceStats:
    """Length (all tokens), depth (nested applications on the deepest
    path), and total number of function applications.

    A pure string has depth 0; a single function application has depth 1.
    """
    return fold(src, registry)[0]


def within_output_limit(tokens: Sequence[str],
                        registry: FunctionRegistry = DEFAULT_REGISTRY) -> bool:
    """Whether no call of the program ``tokens`` can build a value longer
    than MAX_OUTPUT_LENGTH, known from its token counts alone.

    Every symbol of a value is a literal of the program or the one symbol
    an ``echo`` call adds, one token each, and each call of ``repeat`` (or
    of a synonym of it) at most doubles a value, so no value is longer than
    ``len(tokens) << k``, ``k`` counting the tokens that name such a
    function.  A registry holding a function of any other size gives no
    bound: False.
    """
    doubling = registry.doubling
    if doubling is None:
        return False
    return len(tokens) << sum(map(tokens.count, doubling)) <= MAX_OUTPUT_LENGTH


def interpret(fn: FunctionSymbol, position: int | None, args: Sequence[Symbols]) -> Symbols:
    """``fold``'s callback for ground-truth evaluation with the length
    checked at every call: for a program that ``within_output_limit``
    does not clear.

    Arguments a fold passes are non-empty and match the arity, so only the
    output length is checked: OutputTooLong is raised, before building it,
    for a value longer than MAX_OUTPUT_LENGTH.
    """
    size = fn.size(*map(len, args))
    if size > MAX_OUTPUT_LENGTH:
        raise OutputTooLong(fn.name, size)
    return fn.fn(*args)


def build(fn: FunctionSymbol, position: int | None, args: Sequence[Symbols]) -> Symbols:
    """``fold``'s callback for ground-truth evaluation of a program whose
    length is already bounded (``within_output_limit``): ``interpret``
    without the per-call check."""
    return fn.fn(*args)


def evaluator(tokens: Sequence[str],
              registry: FunctionRegistry = DEFAULT_REGISTRY) -> Callable[..., Symbols]:
    """The ``fold`` callback that evaluates ``tokens``: ``build`` when
    ``within_output_limit`` clears them, else ``interpret``."""
    return build if within_output_limit(tokens, registry) else interpret


def evaluate(src: Sequence[str],
             registry: FunctionRegistry = DEFAULT_REGISTRY) -> Symbols:
    """Ground-truth interpretation of a program as a symbol tuple.

    Raises OutputTooLong, before building it, for any value longer than
    MAX_OUTPUT_LENGTH, once the program is known to parse.

    >>> " ".join(evaluate("repeat A B C".split()))
    'A B C A B C'
    """
    return fold(src, registry, evaluator(src, registry))[1]


def evaluate_text(text: str, registry: FunctionRegistry = DEFAULT_REGISTRY) -> str:
    return " ".join(evaluate(text.split(), registry))


def serve(registry: FunctionRegistry, lines: Iterable[str], out: TextIO) -> int:
    """The oracle's side of the line protocol: answer each program line
    with its value, and a line that does not evaluate (or is blank) with
    an empty one, flushed at once."""
    for line in lines:
        line = line.strip()
        try:
            answer = evaluate_text(line, registry) if line else ""
        except LanguageError:
            answer = ""
        out.write(answer + "\n")
        out.flush()
    return 0
