"""Framing of back-to-back wire messages off a byte stream.

The whole-message :class:`~repro.wire.parser.Parser` assumes the complete
message sits in one buffer.  On a live transport bytes arrive in arbitrary
chunks, and several messages ride back-to-back on one TCP stream with no
envelope between them.  :class:`StreamingDecoder` frames them with that same
parser, not a second one: it runs :meth:`Parser.parse_prefix` over the bytes
buffered from the current message's start, through an :class:`_OpenWindow`
whose end is the end of what has arrived so far.  Where a closed
:class:`~repro.wire.window.Window` would fail (or answer) at that end, the
open window raises :class:`_Truncated` with the offset the parse needs; the
decoder keeps the bytes and tries again once that offset is buffered (for a
delimiter search, once the delimiter has arrived).  At
end-of-stream the rest is parsed with ordinary closed windows, so a message
cut short fails with exactly the error ``Parser.parse`` reports for its
bytes.

Fast path.  For a self-framing graph the decoder also holds the graph's
specialized parse unit (``parse_prefix`` of :mod:`repro.codegen.specializer`,
compiled once per dialect fingerprint through the module cache) and runs it
first on every open-window attempt.  Its answer is exact.  A self-framing
graph's top level consults the end of the bytes received only to fail, with
one exception: a top-level delimited repetition may stop at that end, and
``stream=True`` makes the compiled loop fail there too.  So a parse that
succeeds over the buffered bytes is the answer the open window would give.
When the unit fails, the reference attempt above runs and alone decides:
the truncation (the offset to wait for, the delimiter wait, the
``declared_bytes`` refusal), and the error text, offset and node.  Greedy
graphs and the closed windows of :meth:`StreamingDecoder.feed_eof` keep the
reference parser only.

Framing caveat — *greedy* graphs.  A graph whose parse consults the end of
the enclosing window at the top level (an END-bounded terminal such as the
HTTP body, or an Optional without a presence reference) cannot be framed on
a bare stream: the next message's bytes would be swallowed.  Exactly like
HTTP/1.0 without ``Content-Length``, such messages end only at end-of-stream.
:func:`stream_greedy_nodes` / :func:`is_self_framing` perform that static
analysis; the session layer (:mod:`repro.net`) switches to an explicit
record framing when a graph is not self-framing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..core.boundary import BoundaryKind
from ..core.errors import BudgetExceeded, ParseError, StreamError
from ..core.graph import FormatGraph
from ..core.message import Message
from ..core.node import Node, NodeType
from .parser import Parser
from .plan import CodecPlan
from .window import Window


#: ``_Truncated.need`` of a read that only end-of-stream can satisfy.
_AT_EOF = sys.maxsize


class _Truncated(Exception):
    """A stream parse ran into the end of the bytes buffered so far.

    Deliberately not a :class:`ParseError`: the parser re-wraps the
    ParseErrors of terminal reads, and this signal must reach the decoder
    untouched.
    """

    def __init__(self, need: int, declared: int | None = None,
                 delimiter: bytes | None = None, scan_from: int = 0):
        super().__init__(need)
        #: window offset one past the last byte the parse needs next.
        self.need = need
        #: byte count of the counted read that ran short (``None`` for a
        #: delimiter search, an end-of-window check or an END-bounded read).
        self.declared = declared
        #: delimiter the parse searched for, and the first offset at which
        #: a later byte could complete it: a re-try before it appears there
        #: would stop at the same search.
        self.delimiter = delimiter
        self.scan_from = scan_from


class _OpenWindow(Window):
    """The top window of a stream parse: it ends where the received bytes end.

    Every primitive whose closed-window answer depends on the window's end
    raises :class:`_Truncated` there instead, because the stream may still
    extend past it.  Sub-windows and mirrored regions are closed windows:
    they are only cut once all their bytes have arrived.
    """

    __slots__ = ()

    def at_end(self) -> bool:
        if self._cursor >= self._end:
            raise _Truncated(self._cursor + 1)
        return False

    def starts_with(self, prefix: bytes) -> bool:
        need = self._cursor + len(prefix)
        if need > self._end:
            raise _Truncated(need)
        return Window.starts_with(self, prefix)

    def read(self, count: int) -> bytes:
        need = self._cursor + count
        if need > self._end:
            raise _Truncated(need, count)
        return Window.read(self, count)

    def read_rest(self) -> bytes:
        # An END boundary on the stream itself: only end-of-stream ends it.
        raise _Truncated(_AT_EOF)

    def read_until(self, delimiter: bytes) -> bytes:
        try:
            return Window.read_until(self, delimiter)
        except ParseError:
            if not delimiter:
                raise
            raise _Truncated(
                self._end + 1, delimiter=delimiter,
                scan_from=max(self._cursor, self._end - len(delimiter) + 1),
            ) from None

    def subwindow(self, length: int) -> Window:
        need = self._cursor + length
        if need > self._end:
            raise _Truncated(need, length)
        return Window.subwindow(self, length)


@dataclass(frozen=True)
class DecodedMessage:
    """One message framed off a stream: logical content plus wire extent."""

    message: Message
    #: exact wire bytes of this message (``stream[start:end]``).
    raw: bytes
    #: absolute stream offset of the first byte.
    start: int
    #: absolute stream offset one past the last byte.
    end: int

    def __len__(self) -> int:
        return self.end - self.start


class StreamingDecoder:
    """Feeds arbitrary chunks; emits complete messages as they frame.

    ``feed()`` returns the messages completed by that chunk (zero or more —
    one chunk can complete several back-to-back messages, or none).
    ``feed_eof()`` parses what is left with closed windows: a message waiting
    on an END boundary completes, a message cut short raises
    :class:`StreamError` with the parse error's node and offset.
    ``needs_more`` reports whether bytes of an unfinished message are held.

    ``budget`` is any object exposing ``max_stream_bytes`` /
    ``max_declared_bytes`` / ``max_steps_per_feed`` attributes (``None``
    meaning unlimited) — typically a
    :class:`~repro.net.governance.ResourceBudget`, duck-typed so the wire
    layer stays independent of the net layer.  ``max_steps_per_feed`` bounds
    the parse attempts of one feed: each completed message is one attempt,
    and so is each attempt that runs out of buffered bytes.  A counted read
    that runs past the buffered bytes and is longer than
    ``max_declared_bytes`` is refused before the decoder waits for any byte
    toward it.  Whatever the budget, each attempt re-parses the message from
    its first byte, so the bytes re-read by one message's truncated attempts
    are bounded by ``REPARSE_FACTOR`` times its buffered bytes plus
    ``REPARSE_SLACK`` (resource ``reparse_bytes``): a message dribbled in
    many small feeds costs work linear in its size or is refused.  A wait
    on a delimiter re-tries only once the delimiter has arrived.  Violations
    raise :class:`~repro.core.errors.BudgetExceeded` and latch the decoder
    dead like any other stream failure.
    """

    #: Re-parse bound of one message: the bytes its truncated attempts
    #: re-read may total ``REPARSE_FACTOR`` times its buffered bytes plus
    #: ``REPARSE_SLACK`` (``reparse_bytes``; independent of ``budget``).
    REPARSE_FACTOR = 16
    REPARSE_SLACK = 1 << 16

    def __init__(self, graph: FormatGraph, *, plan: CodecPlan | None = None,
                 budget=None):
        self.parser = Parser(graph, plan=plan)
        #: the specialized ``parse_prefix`` tried first on open windows, and
        #: the error it fails with (``None``: a greedy graph, reference only).
        self._compiled = self._compiled_error = None
        if is_self_framing(graph):
            # Imported here: a process that frames no stream never compiles
            # the code generator.
            from ..codegen.cache import cached_module

            unit = cached_module(graph, parse_only=True)
            self._compiled = unit.parse_prefix
            self._compiled_error = unit.GeneratedCodecError
        self._max_stream = getattr(budget, "max_stream_bytes", None)
        self._max_declared = getattr(budget, "max_declared_bytes", None)
        self._max_steps = getattr(budget, "max_steps_per_feed", None)
        #: received bytes not yet framed; ``_buffer[0]`` starts a message.
        self._buffer = bytearray()
        #: absolute stream offset of ``_buffer[0]``.
        self._start = 0
        #: buffered length the next parse attempt waits for.
        self._need = 1
        #: delimiter the last attempt searched for, and the buffer offset
        #: from which a fed byte could complete it (``None``: no search).
        self._delimiter: bytes | None = None
        self._scan_from = 0
        #: bytes of the current message that truncated attempts re-parsed.
        self._reparsed = 0
        #: parse attempts made by the current feed.
        self._attempts = 0
        self._eof = False
        self._decoded = 0
        self._failed: StreamError | None = None

    # -- state ----------------------------------------------------------------

    @property
    def needs_more(self) -> bool:
        """True when bytes of an unfinished message are waiting for more."""
        return bool(self._buffer)

    @property
    def buffered(self) -> int:
        """Number of received-but-unconsumed bytes."""
        return len(self._buffer)

    @property
    def decoded_count(self) -> int:
        """Number of messages completed so far."""
        return self._decoded

    @property
    def at_eof(self) -> bool:
        return self._eof

    # -- feeding --------------------------------------------------------------

    def feed(self, data: bytes) -> list[DecodedMessage]:
        """Buffer ``data`` and return every message it completed."""
        self._check_failed()
        if self._eof:
            raise StreamError("cannot feed bytes after end-of-stream")
        if (self._max_stream is not None
                and len(self._buffer) + len(data) > self._max_stream):
            raise self._fail(BudgetExceeded(
                "stream_bytes", limit=self._max_stream,
                actual=len(self._buffer) + len(data),
                message_index=self._decoded,
            ))
        self._buffer += data
        if len(self._buffer) < self._need:
            return []
        if self._delimiter is not None:
            if self._buffer.find(self._delimiter, self._scan_from) < 0:
                self._scan_from = max(
                    self._scan_from,
                    len(self._buffer) - len(self._delimiter) + 1)
                return []
        return self._frame(_OpenWindow)

    def feed_eof(self) -> list[DecodedMessage]:
        """Signal end-of-stream and return the flushed tail messages."""
        self._check_failed()
        self._eof = True
        self._need, self._delimiter = 1, None
        return self._frame(Window)

    # -- framing ----------------------------------------------------------------

    def _frame(self, window_type: type[Window]) -> list[DecodedMessage]:
        """Parse every message the buffer completes, from one snapshot."""
        completed: list[DecodedMessage] = []
        data = bytes(self._buffer)
        self._attempts = pos = 0
        while len(data) - pos >= self._need:
            try:
                message, end = self._parse_at(data, pos, window_type)
            except _Truncated as cut:
                if (cut.declared is not None and self._max_declared is not None
                        and cut.declared > self._max_declared):
                    raise self._fail(BudgetExceeded(
                        "declared_bytes", limit=self._max_declared,
                        actual=cut.declared, message_index=self._decoded,
                    )) from None
                self._count_attempt()
                self._wait(cut, pos, len(data) - pos)
                break
            except ParseError as exc:
                if pos:
                    # Re-parse from the message's own first byte, so the
                    # error's offsets read as Parser.parse reports them.
                    data, pos = data[pos:], 0
                    continue
                raise self._fail(self._undecodable(exc)) from exc
            if end == pos:
                raise self._fail(StreamError(
                    "a zero-length message cannot be framed",
                    offset=self._start, message_index=self._decoded,
                ))
            completed.append(DecodedMessage(
                message=message, raw=data[pos:end],
                start=self._start, end=self._start + end - pos,
            ))
            self._start += end - pos
            self._decoded += 1
            self._need, self._delimiter, self._reparsed = 1, None, 0
            pos = end
            self._count_attempt()
        del self._buffer[:pos]
        return completed

    def _parse_at(self, data: bytes, pos: int, window_type: type[Window]
                  ) -> tuple[Message, int]:
        """One parse attempt of the message starting at ``data[pos]``.

        On an open window the compiled unit answers whenever it succeeds;
        everything it refuses goes to the reference parser.
        """
        if self._compiled is not None and window_type is _OpenWindow:
            try:
                logical, end = self._compiled(data, pos, True)
                return Message(logical), end
            except self._compiled_error:
                pass
        return self.parser.parse_prefix(window_type(data, pos))

    def _wait(self, cut: _Truncated, pos: int, held: int) -> None:
        """Park the message starting at ``pos`` until ``cut`` can be met.

        Each attempt re-parses the message from its first byte, so the bytes
        those re-reads cost are summed per message and refused past a fixed
        multiple of the message's buffered bytes: a message dribbled in many
        small feeds must not cost work quadratic in its size.
        """
        self._reparsed += held
        limit = self.REPARSE_FACTOR * held + self.REPARSE_SLACK
        if self._reparsed > limit:
            raise self._fail(BudgetExceeded(
                "reparse_bytes", limit=limit, actual=self._reparsed,
                message_index=self._decoded,
            ))
        self._need = cut.need - pos
        self._delimiter = cut.delimiter
        self._scan_from = cut.scan_from - pos

    def _count_attempt(self) -> None:
        self._attempts += 1
        if self._max_steps is not None and self._attempts > self._max_steps:
            raise self._fail(BudgetExceeded(
                "decode_steps", limit=self._max_steps, actual=self._attempts,
                message_index=self._decoded,
            ))

    def _undecodable(self, exc: ParseError) -> StreamError:
        """Re-home a parse error of the current message on the stream."""
        error = StreamError(
            f"undecodable message at stream offset {self._start}: {exc}",
            message_index=self._decoded,
        )
        error.node = exc.node
        error.offset = None if exc.offset is None else self._start + exc.offset
        return error

    def _fail(self, error: StreamError) -> StreamError:
        self._failed = error
        return error

    def _check_failed(self) -> None:
        # Re-raise the *original* stored error: callers diagnosing a dead
        # stream rely on message_index/offset/node surviving repeated feeds.
        if self._failed is not None:
            raise self._failed


def decode_stream(graph: FormatGraph, chunks, *, plan: CodecPlan | None = None
                  ) -> list[DecodedMessage]:
    """Decode an iterable of chunks into framed messages (EOF at exhaustion)."""
    decoder = StreamingDecoder(graph, plan=plan)
    decoded: list[DecodedMessage] = []
    for chunk in chunks:
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    return decoded


# ---------------------------------------------------------------------------
# framability analysis
# ---------------------------------------------------------------------------


def stream_greedy_nodes(graph: FormatGraph) -> tuple[str, ...]:
    """Names of the nodes that make ``graph`` unframable on a bare stream.

    A node is *stream-greedy* when parsing it consults the end of the
    top-level (stream-extent) window: an END-bounded read swallows every
    byte to end-of-stream, and an Optional without a presence reference
    treats the next message's bytes as its own content.  Nodes inside a
    LENGTH-bounded region are never greedy — the region supplies the end.
    """
    greedy: list[str] = []

    def visit(node: Node, bounded: bool) -> None:
        if node.mirrored and not bounded:
            if node.boundary.kind is BoundaryKind.END:
                greedy.append(node.name)
            # The extracted region bounds the sub-parse regardless.
            for child in node.children:
                visit(child, True)
            return
        if node.type is NodeType.TERMINAL:
            if not bounded and node.boundary.kind in (BoundaryKind.END,
                                                      BoundaryKind.DELEGATED):
                greedy.append(node.name)
            return
        child_bounded = bounded or node.boundary.kind is BoundaryKind.LENGTH
        if node.type is NodeType.OPTIONAL:
            if not child_bounded and node.presence_ref is None:
                greedy.append(node.name)
        elif node.type in (NodeType.REPETITION, NodeType.TABULAR):
            if (not child_bounded
                    and node.boundary.kind not in (BoundaryKind.COUNTER,
                                                   BoundaryKind.DELIMITED)):
                greedy.append(node.name)
        for child in node.children:
            visit(child, child_bounded)

    visit(graph.root, False)
    return tuple(greedy)


def is_self_framing(graph: FormatGraph) -> bool:
    """True when back-to-back messages of ``graph`` frame on a bare stream."""
    return not stream_greedy_nodes(graph)
