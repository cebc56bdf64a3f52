"""Command-line front end: encode/decode containers, answer queries,
report bit budgets, and run the fuzz suites.

Exit codes: 0 success, 1 usage, 2 parse, 3 precondition, 4 corruption,
5 fuzz failure, 6 a container whose n-entry decode tables do not fit in
memory.
"""

import argparse
import sys

from .arrays import parse_array_text
from .container import decode, decode_shapes, deserialize, encode, serialize
from .errors import (AllocationError, CorruptionError, ParseError,
                     PreconditionError, RangeError)
from .fuzz import run_fuzz
from .trees import tree_to_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CORRUPTION = 4
EXIT_FUZZ = 5
EXIT_ALLOCATION = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(text):
    """argparse type of the fuzz counts: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _build_parser():
    parser = _Parser(prog="nlvcodec",
                     description="Near-entropy-optimal encodings for "
                                 "next/previous larger/smaller value queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an integer array file")
    p.add_argument("--scheme", required=True,
                   choices=["joint", "colored", "general"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("decode", help="validate a container, optionally dump trees")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dump-trees", action="store_true")

    p = sub.add_parser("query", help="answer a query from a container alone")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", required=True, choices=["psv", "plv", "nsv", "nlv"])
    p.add_argument("--index", required=True, type=int)

    p = sub.add_parser("stats", help="report payload bits vs. the size bound")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("fuzz", help="randomized/exhaustive self checks")
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--max-n", type=_count, default=50)
    p.add_argument("--alphabet", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")

    return parser


def _read_array(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("input is not ASCII text: %s" % exc) from None
    return parse_array_text(text)


def _stats_line(enc):
    """The payload against its bound; the margin is bound - payload, so
    a negative one is a payload over its bound."""
    bits = enc.payload_bits()
    bound = enc.payload_bound(enc.n)
    return ("n=%d scheme=%s payload=%d bits bits/n=%.4f bound=%.2f margin=%.2f"
            % (enc.n, enc.scheme, bits, bits / enc.n, bound, bound - bits))


def cmd_encode(args):
    enc = encode(_read_array(args.infile), args.scheme)
    with open(args.outfile, "wb") as fh:
        fh.write(serialize(enc))
    print(_stats_line(enc))
    return EXIT_OK


def _load_container(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def cmd_decode(args):
    enc = _load_container(args.infile)
    print("scheme=%s n=%d payload=%d bits"
          % (enc.scheme, enc.n, enc.payload_bits()))
    c_bits, heaps = decode_shapes(enc)
    if args.dump_trees:
        if c_bits is not None:
            print("c: %s" % c_bits)
        for name, tree in zip(("min", "max"), heaps):
            print("%s: %s" % (name, tree_to_text(tree)))
    return EXIT_OK


def cmd_query(args):
    print(decode(_load_container(args.infile)).query(args.kind, args.index))
    return EXIT_OK


def cmd_stats(args):
    print(_stats_line(_load_container(args.infile)))
    return EXIT_OK


def cmd_fuzz(args):
    report = run_fuzz(args.count, args.max_n, args.alphabet, args.seed,
                      exhaustive=args.exhaustive, log=print)
    return EXIT_OK if report.ok else EXIT_FUZZ


def _where(exc):
    """Where a CorruptionError says the payload broke, e.g. " (segment
    t_min, bit 17)"; empty when it names no segment.  The offset counts
    trits in v_neutral and bits elsewhere."""
    if exc.segment is None:
        return ""
    if exc.offset is None:
        return " (segment %s)" % exc.segment
    unit = "trit" if exc.segment == "v_neutral" else "bit"
    return " (segment %s, %s %d)" % (exc.segment, unit, exc.offset)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"encode": cmd_encode, "decode": cmd_decode,
                "query": cmd_query, "stats": cmd_stats, "fuzz": cmd_fuzz}
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print("precondition error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except CorruptionError as exc:
        print("corruption error: %s%s" % (exc, _where(exc)), file=sys.stderr)
        return EXIT_CORRUPTION
    except RangeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except AllocationError as exc:
        print("allocation error: %s" % exc, file=sys.stderr)
        return EXIT_ALLOCATION
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
