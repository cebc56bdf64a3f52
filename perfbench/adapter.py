"""The only benchmark file that names nlvcodec's functions.

It maps each scheme to the callables the benchmark times (integer text to
container bytes, container bytes to a query-ready structure, and a query
function over that structure), reads exact segment sizes out of a
container, and holds the trace-patch table.  When the library's public
path changes, this file is the one to update.

The library is imported from ``src/`` next to this directory, never from
an installed copy, so a checkout without the source cannot be measured.
"""

import math
import os
import sys
from collections import namedtuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(SRC, "nlvcodec", "__init__.py")):
    raise ImportError("nlvcodec source not found under %s" % SRC)
sys.path.insert(0, SRC)

from nlvcodec import (arrays, bitio, colored, container, fuzz,  # noqa: E402
                      general, joint, queries, trees)

QUERY_KINDS = arrays.QUERY_KINDS
ORACLES = arrays.ORACLES
ValueArray = arrays.ValueArray

# Every module whose namespace may hold an alias of a traced function.
MODULES = (arrays, bitio, colored, container, general, joint, queries, trees)

Scheme = namedtuple("Scheme", "encode setup querier payload_bound")


def _encode_colored(text):
    a = arrays.parse_array_text(text)
    cmin = trees.colorize(trees.build_min_heap(a), a)
    cmax = trees.colorize(trees.build_max_heap(a), a)
    return container.serialize(colored.encode_colored(cmin, cmax))


def _setup_colored(data):
    return colored.decode_colored(container.deserialize(data))


def _colored_querier(pair):
    cmin, cmax = pair
    tree_of = {"psv": cmin, "nsv": cmin, "plv": cmax, "nlv": cmax}

    def query(kind, i):
        return queries.TREE_QUERIES[kind](tree_of[kind], i)
    return query


def _encode_general(text):
    return container.serialize(general.encode_general(arrays.parse_array_text(text)))


def _setup_general(data):
    return general.decode_general(container.deserialize(data))


def _general_querier(structure):
    return structure.query


SCHEMES = {
    "colored": Scheme(_encode_colored, _setup_colored, _colored_querier,
                      fuzz.colored_payload_bound),
    "general": Scheme(_encode_general, _setup_general, _general_querier,
                      fuzz.general_payload_bound),
}


def inspect(data):
    """Exact sizes of a container, plus whether it re-serializes to the
    same bytes.  Not timed."""
    enc = container.deserialize(data)
    if isinstance(enc, general.GeneralEncoding):
        k, rank_bits, c = enc.k, len(enc.c_rank_bits), enc.colored
    else:
        k, rank_bits, c = 0, 0, enc
    m = len(c.v_neutral)
    trits = bitio.trit_pack_bits(m)
    return {
        "n": enc.n,
        "k": k,
        "g": c.g,
        "m": m,
        "payload_bits": enc.payload_bits(),
        "bits.degree": len(c.t_min) + len(c.t_max),
        "bits.gb": len(c.u_gb) + len(c.v_bad),
        "bits.trits": trits,
        "bits.trits_excess": trits - m * math.log2(3),
        "bits.rank": rank_bits,
        "roundtrip_equal": container.serialize(enc) == data,
    }


# Trace-patch table: span name -> (defining owner, attribute).  Tracing
# rebinds the attribute on its owner and every alias of the same function
# in MODULES (for example nlvcodec.general.subset_rank and the values of
# queries.TREE_QUERIES), so callers reach the wrapper by the names they
# already look up.
TRACE_SPANS = {
    "arrays.parse_array_text": (arrays, "parse_array_text"),
    "arrays.compute_runs": (arrays, "compute_runs"),
    "arrays.map_query_index": (arrays, "map_query_index"),
    "arrays.map_answer_to_original": (arrays, "map_answer_to_original"),
    "trees.build_min_heap": (trees, "build_min_heap"),
    "trees.build_max_heap": (trees, "build_max_heap"),
    "trees.colorize": (trees, "colorize"),
    "joint.degree_streams": (joint, "degree_streams"),
    "colored.encode_colored": (colored, "encode_colored"),
    "colored.decode_colored": (colored, "decode_colored"),
    "general.encode_general": (general, "encode_general"),
    "general.decode_general": (general, "decode_general"),
    "bitio.subset_rank": (bitio, "subset_rank"),
    "bitio.subset_unrank": (bitio, "subset_unrank"),
    "bitio.subset_rank_width": (bitio, "subset_rank_width"),
    "bitio.pack_trits": (bitio, "pack_trits"),
    "bitio.unpack_trits": (bitio, "unpack_trits"),
    "bitio.BitStream.to_bytes": (bitio.BitStream, "to_bytes"),
    "bitio.BitStream.from_bytes": (bitio.BitStream, "from_bytes"),
    "container.serialize": (container, "serialize"),
    "container.deserialize": (container, "deserialize"),
    "queries.psv": (queries, "psv_from_tree"),
    "queries.plv": (queries, "plv_from_tree"),
    "queries.nsv": (queries, "nsv_from_tree"),
    "queries.nlv": (queries, "nlv_from_tree"),
}

# Calls too frequent for a span each (one per bit read, one per walk
# step); tracing counts them per request instead.
TRACE_COUNTERS = {
    "bitio.BitStream.read_bit": (bitio.BitStream, "read_bit"),
    "queries.right_sibling": (trees.OrdinalTree, "right_sibling"),
}
