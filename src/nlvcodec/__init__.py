"""nlvcodec: near-entropy-optimal encodings of an array's next/previous
larger/smaller-value structure, with array-free query answering.

The top level holds the library's verbs; every other name is imported
from its own module."""

from .arrays import ValueArray, parse_array_text
from .colored import ColoredEncoding
from .container import MAX_N, decode, deserialize, encode, serialize
from .errors import (AllocationError, CorruptionError, EmptyArrayError,
                     NlvError, ParseError, PreconditionError, RangeError)
from .general import GeneralEncoding
from .joint import JointEncoding
from .queries import QueryStructure

__all__ = ["ValueArray", "parse_array_text", "encode", "decode", "serialize",
           "deserialize", "QueryStructure", "MAX_N", "JointEncoding",
           "ColoredEncoding", "GeneralEncoding", "NlvError", "EmptyArrayError",
           "RangeError", "ParseError", "PreconditionError", "CorruptionError",
           "AllocationError"]

__version__ = "0.1.0"
