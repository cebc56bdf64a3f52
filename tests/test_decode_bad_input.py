"""The shape loop on bad input: random segments and one-character edits
of valid encodings, at n <= 12, under ``decode_joint`` and
``decode_colored``.

Each case is decoded from its segments as they are, with no constructor
check, so strings of any length reach the loop.  It must either raise
``CorruptionError`` or decode to trees that the encoder turns back into
the very same segments.  This reaches accepted payloads beyond the
exhaustive enumeration (n <= 5) and the container mutation test.
"""

import types

from nlvcodec import CorruptionError, encode
from nlvcodec.colored import decode_colored, encode_colored
from nlvcodec.joint import decode_joint, encode_joint

from conftest import make_rng, random_no_equal_neighbours

MAX_N = 12
CASES = 4000
FIELDS = {"joint": ("u", "t_min", "t_max"),
          "colored": ("t_min", "t_max", "u_gb", "v_bad", "v_neutral")}
DECODE = {"joint": (decode_joint, encode_joint),
          "colored": (decode_colored, encode_colored)}


def bits(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


def near(rng, length):
    """A length, off by one now and then."""
    return max(0, length + rng.choice((0,) * 8 + (-1, 1)))


def random_case(rng, scheme):
    n = rng.randint(1, MAX_N)
    # a valid pair holds n + 1 unary codes, so n + 1 zeros in 2n bits
    degree = ["0"] * (n + 1) + ["1"] * (n - 1)
    rng.shuffle(degree)
    degree = ("".join(degree) + rng.choice("01"))[:near(rng, 2 * n)]
    split = rng.randint(0, len(degree))
    case = {"t_min": degree[:split], "t_max": degree[split:]}
    if scheme == "joint":
        case["u"] = bits(rng, near(rng, n - 1))
    else:
        g = rng.randint(0, (n - 1) // 2)
        case["u_gb"] = bits(rng, near(rng, 2 * g))
        case["v_bad"] = bits(rng, near(rng, g))
        # now and then one character that is no trit
        case["v_neutral"] = "".join(rng.choice("012012012x")
                                    for _ in range(near(rng, n - 1 - 2 * g)))
    return n, case


def edited_case(rng, scheme):
    """A valid encoding with one character substituted, inserted or
    deleted, or one bit moved across the two degree streams."""
    enc = encode(random_no_equal_neighbours(rng, rng.randint(1, MAX_N),
                                            hi=MAX_N), scheme)
    case = {name: getattr(enc, name) for name in FIELDS[scheme]}
    name = rng.choice(FIELDS[scheme])
    text = case[name]
    alphabet = "012x" if name == "v_neutral" else "01"
    edit = rng.choice(("substitute", "insert", "delete", "move"))
    pos = rng.randint(0, len(text))
    if edit == "move" and case["t_min"] and case["t_max"]:
        if rng.random() < 0.5:
            case["t_min"], case["t_max"] = (case["t_min"][:-1],
                                            case["t_min"][-1] + case["t_max"])
        else:
            case["t_min"], case["t_max"] = (case["t_min"] + case["t_max"][0],
                                            case["t_max"][1:])
    elif edit == "insert":
        case[name] = text[:pos] + rng.choice(alphabet) + text[pos:]
    elif text and pos < len(text):
        replacement = "" if edit == "delete" else rng.choice(alphabet)
        case[name] = text[:pos] + replacement + text[pos + 1:]
    return enc.n, case


def check(scheme, n, case):
    """True when the case decodes, after checking that it round-trips;
    False when it is rejected."""
    decoder, encoder = DECODE[scheme]
    try:
        pair = decoder(types.SimpleNamespace(n=n, **case))
    except CorruptionError:
        return False
    again = encoder(*pair)
    assert {name: getattr(again, name) for name in case} == case, (n, case)
    return True


def test_shape_loop_rejects_or_round_trips():
    rng = make_rng(61)
    for scheme in ("joint", "colored"):
        accepted = {"random": 0, "edited": 0}
        for _ in range(CASES):
            for kind, make in (("random", random_case), ("edited", edited_case)):
                accepted[kind] += check(scheme, *make(rng, scheme))
        # neither family is all rejections nor all valid
        for kind, count in accepted.items():
            assert 0 < count < CASES, (scheme, kind, count)
