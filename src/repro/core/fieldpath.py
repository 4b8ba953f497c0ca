"""Logical field paths.

A :class:`FieldPath` identifies a field of the *logical* message model, i.e.
the message as the core application sees it, independently of any obfuscating
transformation.  A path is a sequence of steps:

* a ``str`` step selects a member of a dictionary (a Sequence child),
* an ``int`` step selects an element of a list (a Repetition/Tabular element),
* the :data:`INDEX` sentinel is an *unbound* list index.  It is used in the
  ``origin`` attribute of graph nodes that live under a Repetition or Tabular
  node; the wire runtime binds it to the concrete element index while walking
  the repetition.

Examples
--------
``FieldPath.parse("header.transaction_id")`` → ``('header', 'transaction_id')``

``FieldPath.parse("headers[*].name")`` → ``('headers', INDEX, 'name')``

``FieldPath.parse("registers[2]")`` → ``('registers', 2)``
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .errors import MessageError


class _Index:
    """Singleton sentinel representing an unbound repetition index."""

    _instance: "_Index | None" = None

    def __new__(cls) -> "_Index":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "*"

    def __deepcopy__(self, memo: dict) -> "_Index":
        return self

    def __copy__(self) -> "_Index":
        return self


#: Unbound repetition index marker used inside :class:`FieldPath` steps.
INDEX = _Index()

Step = Union[str, int, _Index]

_STEP_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[(?:\d+|\*)\])*)")
_BRACKET_RE = re.compile(r"\[(\d+|\*)\]")


class FieldPath:
    """An immutable, hashable sequence of logical field path steps."""

    __slots__ = ("_steps", "_has_index")

    def __init__(self, steps: Iterable[Step] = ()):
        checked: list[Step] = []
        for step in steps:
            if isinstance(step, (str, int)) or step is INDEX:
                checked.append(step)
            else:
                raise MessageError(f"invalid field path step: {step!r}")
        self._steps = tuple(checked)
        self._has_index = any(step is INDEX for step in checked)

    # -- construction -------------------------------------------------------

    @classmethod
    def _trusted(cls, steps: tuple[Step, ...], has_index: bool) -> "FieldPath":
        """Internal constructor for steps that are already validated.

        Path binding runs once per terminal per message on the wire hot path;
        skipping re-validation there is a measurable win.
        """
        path = object.__new__(cls)
        path._steps = steps
        path._has_index = has_index
        return path

    @classmethod
    def parse(cls, text: str) -> "FieldPath":
        """Parse a dotted path such as ``"headers[*].name"``.

        Memoized per string: paths are immutable, and ``Message.get``/``set``
        re-parse their string paths on every call.  An invalid path is not
        cached and raises on every call.
        """
        return _parse_path(text)

    @classmethod
    def of(cls, value: "FieldPath | str | Iterable[Step]") -> "FieldPath":
        """Coerce strings, step iterables or paths into a :class:`FieldPath`."""
        if isinstance(value, FieldPath):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    # -- combinators --------------------------------------------------------

    def child(self, step: Step) -> "FieldPath":
        """Return a new path extended with one step."""
        return FieldPath(self._steps + (step,))

    def extend(self, steps: Iterable[Step]) -> "FieldPath":
        """Return a new path extended with several steps."""
        return FieldPath(self._steps + tuple(steps))

    def parent(self) -> "FieldPath":
        """Return the path without its final step."""
        if not self._steps:
            raise MessageError("the empty path has no parent")
        return FieldPath(self._steps[:-1])

    def resolve(self, indices: Sequence[int]) -> "FieldPath":
        """Replace unbound :data:`INDEX` markers with concrete indices.

        Markers are replaced left to right with the values of ``indices``;
        the number of markers must not exceed ``len(indices)``.  Extra
        indices (from deeper nesting than this path uses) are ignored.
        Concrete paths are returned unchanged (paths are immutable).
        """
        if not self._has_index:
            return self
        resolved: list[Step] = []
        cursor = 0
        for step in self._steps:
            if step is INDEX:
                if cursor >= len(indices):
                    raise MessageError(
                        f"cannot resolve {self}: needs more than {len(indices)} bound indices"
                    )
                resolved.append(indices[cursor])
                cursor += 1
            else:
                resolved.append(step)
        return FieldPath._trusted(tuple(resolved), False)

    def startswith(self, prefix: "FieldPath") -> bool:
        """True when ``prefix`` is a (non-strict) prefix of this path."""
        return self._steps[: len(prefix._steps)] == prefix._steps

    # -- inspection ---------------------------------------------------------

    @property
    def steps(self) -> tuple[Step, ...]:
        return self._steps

    @property
    def is_concrete(self) -> bool:
        """True when the path contains no unbound :data:`INDEX` marker."""
        return not self._has_index

    def index_arity(self) -> int:
        """Number of unbound :data:`INDEX` markers in the path."""
        return sum(1 for step in self._steps if step is INDEX)

    def leaf_name(self) -> str | None:
        """Return the final string step, or ``None`` if the path ends on an index."""
        if self._steps and isinstance(self._steps[-1], str):
            return self._steps[-1]
        return None

    # -- dunder protocol ----------------------------------------------------

    def __iter__(self) -> Iterator[Step]:
        return iter(self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __bool__(self) -> bool:
        return bool(self._steps)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldPath):
            return self._steps == other._steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._steps)

    def __repr__(self) -> str:
        return f"FieldPath({str(self)!r})"

    def __str__(self) -> str:
        out: list[str] = []
        for step in self._steps:
            if isinstance(step, str):
                if out:
                    out.append(".")
                out.append(step)
            elif step is INDEX:
                out.append("[*]")
            else:
                out.append(f"[{step}]")
        return "".join(out)


@lru_cache(maxsize=4096)
def _parse_path(text: str) -> FieldPath:
    if text == "":
        return FieldPath(())
    steps: list[Step] = []
    for part in text.split("."):
        match = _STEP_RE.fullmatch(part)
        if match is None:
            raise MessageError(f"invalid field path segment: {part!r} in {text!r}")
        steps.append(match.group(1))
        for bracket in _BRACKET_RE.findall(match.group(2)):
            steps.append(INDEX if bracket == "*" else int(bracket))
    return FieldPath(steps)


#: The empty path, i.e. the whole message.
ROOT_PATH = FieldPath(())
