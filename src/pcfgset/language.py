"""Core language for the PCFG SET string-edit task.

Sequences are prefix-notation programs over ten string-edit functions and
uppercase literal symbols, e.g. ``append swap F G H , repeat I J``.  This
module owns tokenisation, parsing, rendering, per-sequence statistics, and
the ground-truth interpreter.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, Union

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

    def __init__(self, token: "Token", position: int):
        self.token = token
        self.position = position
        super().__init__(f"unexpected token {token.text!r} at position {position}")


class ArityMismatch(LanguageError):
    """A function was applied to the wrong number of arguments."""

    def __init__(self, name: str, expected: int, got: int):
        self.name = name
        self.expected = expected
        self.got = got
        super().__init__(f"{name} expects {expected} argument(s), got {got}")


class EmptyArgument(LanguageError):
    """A function received an empty string argument."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"{name} received an empty argument")


class TokenKind(Enum):
    FUNCTION = "function"
    LITERAL = "literal"
    SEPARATOR = "separator"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str

    def __str__(self) -> str:
        return self.text


Symbols = tuple[str, ...]


@dataclass(frozen=True)
class FunctionSymbol:
    """A named string-edit function with fixed arity.

    Equality and hashing go by (name, arity) so that a synonym registered
    with the same underlying behaviour still compares as a distinct symbol.
    """

    name: str
    arity: int
    fn: Callable[..., Symbols] = field(compare=False, repr=False)

    def __call__(self, *args: Symbols) -> Symbols:
        return self.fn(*args)


# --- interpretation functions -------------------------------------------
#
# All operate on non-empty tuples of literal symbols and return tuples.
# shift moves the first symbol to the end and swap trades the first and
# last; both are the identity on single symbols.

_SEMANTICS: dict[str, tuple[int, Callable[..., Symbols]]] = {
    "copy": (1, lambda x: x),
    "reverse": (1, lambda x: x[::-1]),
    "shift": (1, lambda x: x[1:] + x[:1]),
    "echo": (1, lambda x: x + x[-1:]),
    "swap": (1, lambda x: x if len(x) == 1 else x[-1:] + x[1:-1] + x[:1]),
    "repeat": (1, lambda x: x + x),
    "append": (2, lambda x, y: x + y),
    "prepend": (2, lambda x, y: y + x),
    "remove_first": (2, lambda x, y: y),
    "remove_second": (2, lambda x, y: x),
}


class FunctionRegistry:
    """Closed set of function symbols known to the tokeniser and parser.

    Immutable; ``with_synonyms`` returns an extended copy so concurrent
    users of the default registry never observe mutation.
    """

    def __init__(self, symbols: Iterable[FunctionSymbol]):
        self._by_name: dict[str, FunctionSymbol] = {}
        for sym in symbols:
            if sym.name in self._by_name:
                raise ValueError(f"duplicate function name {sym.name!r}")
            self._by_name[sym.name] = sym

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

        ``synonym_map`` maps base name -> synonym name.  Synonym names must
        be fresh and must not collide with literals or the separator.
        """
        extra = []
        for base, syn in synonym_map.items():
            original = self.lookup(base)
            if syn in self or syn in LITERAL_SET or syn == SEPARATOR:
                raise ValueError(f"invalid synonym name {syn!r}")
            extra.append(FunctionSymbol(syn, original.arity, original.fn))
        return FunctionRegistry(list(self._by_name.values()) + extra)


DEFAULT_REGISTRY = FunctionRegistry(
    FunctionSymbol(name, arity, fn) for name, (arity, fn) in _SEMANTICS.items()
)


# --- syntax trees --------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """A maximal run of literal symbols (a string argument)."""

    symbols: Symbols

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("leaf must hold at least one symbol")


@dataclass(frozen=True)
class Apply:
    function: FunctionSymbol
    args: tuple["SyntaxTree", ...]

    def __post_init__(self):
        if len(self.args) != self.function.arity:
            raise ArityMismatch(self.function.name, self.function.arity, len(self.args))


SyntaxTree = Union[Leaf, Apply]


@dataclass(frozen=True, slots=True)
class SequenceStats:
    length: int
    depth: int
    num_functions: int


# --- tokenisation and parsing --------------------------------------------

def classify(piece: str, registry: FunctionRegistry = DEFAULT_REGISTRY,
             position: int | None = None) -> Token:
    """Classify one whitespace-delimited piece into a Token."""
    if piece == SEPARATOR:
        return Token(TokenKind.SEPARATOR, piece)
    if piece in registry:
        return Token(TokenKind.FUNCTION, piece)
    if piece in LITERAL_SET:
        return Token(TokenKind.LITERAL, piece)
    raise UnknownToken(piece, position)


def tokenize(text: str, registry: FunctionRegistry = DEFAULT_REGISTRY) -> list[Token]:
    """Split on whitespace and classify each piece.

    >>> [t.text for t in tokenize("append A B , C")]
    ['append', 'A', 'B', ',', 'C']
    """
    return [classify(piece, registry, i) for i, piece in enumerate(text.split())]


def _coerce_tokens(tokens: Sequence[Token | str],
                   registry: FunctionRegistry) -> list[Token]:
    return [tok if isinstance(tok, Token) else classify(tok, registry, i)
            for i, tok in enumerate(tokens)]


def parse(tokens: Sequence[Token | str],
          registry: FunctionRegistry = DEFAULT_REGISTRY) -> SyntaxTree:
    """Parse a token sequence into a syntax tree.

    Accepts Token objects or raw strings.  Literal runs are greedy: a run
    of adjacent literals forms a single Leaf, terminated only by a
    separator or the end of input.  The entire sequence must form exactly
    one constituent.  Open calls wait on an explicit stack, so nesting
    depth is bounded by memory alone.
    """
    toks = _coerce_tokens(tokens, registry)
    end = len(toks)
    pos = 0
    waiting: list[tuple[FunctionSymbol, list[SyntaxTree]]] = []
    while True:
        if pos == end:
            raise UnexpectedEnd(pos)
        tok = toks[pos]
        if tok.kind is TokenKind.FUNCTION:
            waiting.append((registry.lookup(tok.text), []))
            pos += 1
            continue
        if tok.kind is not TokenKind.LITERAL:
            raise UnexpectedToken(tok, pos)
        start = pos
        while pos < end and toks[pos].kind is TokenKind.LITERAL:
            pos += 1
        node: SyntaxTree = Leaf(tuple(t.text for t in toks[start:pos]))
        # close every call this constituent completes
        while waiting:
            fn, args = waiting[-1]
            args.append(node)
            if fn.arity != 1 and len(args) < 2:
                break
            waiting.pop()
            node = Apply(fn, tuple(args))
        else:
            if pos != end:
                raise UnexpectedToken(toks[pos], pos)
            return node
        # the innermost open call now needs a separator and its second argument
        if pos == end:
            raise UnexpectedEnd(pos)
        if toks[pos].kind is not TokenKind.SEPARATOR:
            raise UnexpectedToken(toks[pos], pos)
        pos += 1


def parse_text(text: str, registry: FunctionRegistry = DEFAULT_REGISTRY) -> SyntaxTree:
    return parse(tokenize(text, registry), registry)


def postorder(tree: SyntaxTree) -> list[SyntaxTree]:
    """Every node of a tree, children before parents, left child first.

    An explicit stack, so any nesting depth fits in memory.
    """
    order: list[SyntaxTree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Apply):
            stack.extend(node.args)
    order.reverse()
    return order


def render(tree: SyntaxTree) -> list[str]:
    """Emit the prefix-notation token texts of a tree.

    ``parse(render(t))`` reproduces ``t`` for every valid tree.
    """
    out: list[str] = []
    # nodes still to emit, and separators between arguments, next on top
    stack: list[SyntaxTree | str] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Leaf):
            out.extend(node.symbols)
        else:
            out.append(node.function.name)
            if len(node.args) == 2:
                stack += (node.args[1], SEPARATOR)
            stack.append(node.args[0])
    return out


def render_text(tree: SyntaxTree) -> str:
    return " ".join(render(tree))


def stats(tree: SyntaxTree) -> SequenceStats:
    """Length (all rendered tokens), depth (nested applications on the
    deepest path), and total number of function applications.

    A pure string has depth 0; a single function application has depth 1.
    """
    parts: list[tuple[int, int, int]] = []
    for node in postorder(tree):
        if isinstance(node, Leaf):
            parts.append((len(node.symbols), 0, 0))
            continue
        length, depth, count = parts.pop()
        if len(node.args) == 2:
            # fold in the left argument and the separator after it
            left_length, left_depth, left_count = parts.pop()
            length += left_length + 1
            depth = max(depth, left_depth)
            count += left_count
        parts.append((length + 1, depth + 1, count + 1))
    length, depth, count = parts[0]
    return SequenceStats(length=length, depth=depth, num_functions=count)


def apply_function(fn: FunctionSymbol, args: Sequence[Sequence[str]]) -> Symbols:
    """Apply one function to already-evaluated string arguments."""
    if len(args) != fn.arity:
        raise ArityMismatch(fn.name, fn.arity, len(args))
    coerced = []
    for a in args:
        t = tuple(a)
        if not t:
            raise EmptyArgument(fn.name)
        coerced.append(t)
    return fn(*coerced)


def evaluate(tree: SyntaxTree) -> Symbols:
    """Ground-truth interpretation of a tree as a symbol tuple.

    >>> " ".join(evaluate(parse_text("repeat A B C")))
    'A B C A B C'
    """
    values: list[Symbols] = []
    for node in postorder(tree):
        if isinstance(node, Leaf):
            values.append(node.symbols)
            continue
        args = values[-len(node.args):]
        del values[-len(args):]
        values.append(apply_function(node.function, args))
    return values[0]


def evaluate_text(text: str, registry: FunctionRegistry = DEFAULT_REGISTRY) -> str:
    return " ".join(evaluate(parse_text(text, registry)))
