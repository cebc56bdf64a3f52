"""nlvcodec: near-entropy-optimal encodings of an array's next/previous
larger/smaller-value structure, with array-free query answering."""

from .arrays import (ORACLES, QUERY_KINDS, RunStructure, ValueArray,
                     compute_runs, format_array_text, map_answer_to_original,
                     map_query_index, oracle_nlv, oracle_nsv, oracle_plv,
                     oracle_psv, parse_array_text)
from .bitio import (BitStream, pack_trits, read_degree, subset_rank,
                    subset_rank_width, subset_unrank, trit_pack_bits,
                    unpack_trits, write_degree)
from .colored import (ColoredEncoding, classify_index, count_good_bad,
                      decode_colored, encode_colored)
from .container import MAX_N, decode, deserialize, encode, serialize
from .errors import (AllocationError, CorruptionError, EmptyArrayError,
                     NlvError, ParseError, PreconditionError, RangeError)
from .general import (GeneralEncoding, decode_general, encode_general,
                      check_subset_coding_inequality)
from .joint import JointEncoding, decode_joint, encode_joint
from .queries import (TREE_QUERIES, QueryStructure, nlv_from_tree,
                      nsv_from_tree, plv_from_tree, psv_from_tree)
from .trees import (ColoredTree, OrdinalTree, build_max_heap, build_min_heap,
                    check_leaf_internal_duality, check_red_leaf_rule, colorize, tree_to_text)

__version__ = "0.1.0"
