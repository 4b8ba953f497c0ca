"""Wire runtime: on-the-fly serialization and parsing of (obfuscated) messages.

One parser serves every decoding path: :class:`Parser` parses whole
messages, and :class:`StreamingDecoder` frames back-to-back messages off a
byte stream by running the same parser over a prefix of the buffered bytes.
"""

from .codec import WireCodec
from .parser import Parser, parse
from .pieces import Chunk, LengthSlot, PieceList
from .plan import (
    CodecPlan,
    TerminalPlan,
    cache_stats,
    compile_plan,
    invalidate,
    plan_for,
    reset_cache_stats,
)
from .serializer import Serializer, serialize, serialize_with_spans
from .spans import FieldSpan, boundaries
from .streaming import (
    DecodedMessage,
    StreamingDecoder,
    decode_stream,
    is_self_framing,
    stream_greedy_nodes,
)
from .window import Window

__all__ = [
    "Chunk",
    "CodecPlan",
    "DecodedMessage",
    "FieldSpan",
    "LengthSlot",
    "Parser",
    "PieceList",
    "Serializer",
    "StreamingDecoder",
    "TerminalPlan",
    "Window",
    "WireCodec",
    "boundaries",
    "cache_stats",
    "compile_plan",
    "decode_stream",
    "invalidate",
    "is_self_framing",
    "parse",
    "plan_for",
    "reset_cache_stats",
    "serialize",
    "serialize_with_spans",
    "stream_greedy_nodes",
]
