"""Golden container bytes: the sha256 of ``serialize(encode(a, scheme))``
for fixed arrays, so any change to the bits on the wire shows here."""

import hashlib
import random

import pytest

from nlvcodec import ValueArray, encode, serialize

from conftest import FIGURE_VALUES


def permutation(seed, n):
    values = list(range(1, n + 1))
    random.Random(seed).shuffle(values)
    return values


def alphabet(seed, n, size):
    rng = random.Random(seed)
    return [rng.randint(1, size) for _ in range(n)]


def monotone_runs(seed, n):
    """Increasing, with floor(n/13) seeded places that repeat a value."""
    repeats = set(random.Random(seed).sample(range(1, n), n // 13))
    values = [1]
    for i in range(1, n):
        values.append(values[-1] + (0 if i in repeats else 1))
    return values


ALL = ("joint", "colored", "general")
GENERAL = ("general",)

# name -> (values, schemes)
CASES = {
    "figure": (FIGURE_VALUES, ALL),
    "single": ([5], ALL),
    "pair": ([1, 2], ALL),
    "perm-100": (permutation(1, 100), ALL),
    "perm-5000": (permutation(2, 5000), ALL),
    "zigzag-41": ([i % 2 * 100 + i for i in range(41)], ALL),
    # payloads that fill whole bytes: joint on perm-3, colored and
    # general on perm-208, general on alphabet3-2012
    "perm-3": (permutation(6, 3), ALL),
    "perm-208": (permutation(7, 208), ALL),
    "alphabet3-2012": (alphabet(8, 2012, 3), GENERAL),
    "constant-50": ([7] * 50, GENERAL),
    "binary-5000": (alphabet(3, 5000, 2), GENERAL),
    "alphabet5-1000": (alphabet(4, 1000, 5), GENERAL),
    "monotone-runs-4000": (monotone_runs(5, 4000), GENERAL),
    # the benchmark's n
    "perm-20000": (permutation(9, 20000), ALL),
    "binary-20000": (alphabet(10, 20000, 2), GENERAL),
    "monotone-runs-20000": (monotone_runs(11, 20000), GENERAL),
}

DIGESTS = {
    ("figure", "joint"):
        "d40349d695144576a5b458dbf5907062961ce049a6fd2e804b43cd23d833cf55",
    ("figure", "colored"):
        "6557a9a2c73dd135eb2d64cd8dd9ad2725225133a7b99ee06beeff0f0a6dbea5",
    ("figure", "general"):
        "5d774f0cdc8d9fdaebf28df47ac35425f6de87830b86fa8579673010f1a0c5b9",
    ("single", "joint"):
        "240e0e918d7494065b4fbb7d69b08e0d00a18004740f9a42af4901f434cf27a1",
    ("single", "colored"):
        "c4267a1dd67c19bf134bc1ef480fa2812bbf19125503ce98436b96a522d73867",
    ("single", "general"):
        "b9277eb31f3c5a03dfd393ac9d6f8701e67888cd9c87b1c331877168135e4308",
    ("pair", "joint"):
        "dcdfc3977ed48ba71678e53d278473271402ed8dc344b79816fb2586a6470fa6",
    ("pair", "colored"):
        "4ada91bd26f8fbd7b106b19d0e49e095bf0968ab860614fe858e447717a013a7",
    ("pair", "general"):
        "8079b3d67ceb67c71095232581c84c77b511ab6b42a26a84589cfb0c4df12c76",
    ("perm-100", "joint"):
        "8a914f114bbb269b2c95b22897d1b5807452e4cf098a17a83631ead66c3a22fb",
    ("perm-100", "colored"):
        "df6ad9f4612dd5307c2eb07f38d9bbf08003369e07ecb6e0ba02144c19e23fee",
    ("perm-100", "general"):
        "8fde8c9abeec6de381f85c5433f7397c45c4a1f4ff2632efe0a767b7db8af5a1",
    ("perm-5000", "joint"):
        "bfbfc4f758085eab20e3f1cf66dd420b9f4da352af8c34733c4d17dd17b880ac",
    ("perm-5000", "colored"):
        "ef1169c88fb44311fd407bf94d828081b45885c1a28b2c18f10ff76655b0808e",
    ("perm-5000", "general"):
        "3b21624b59d752959622898d11bbfda70f983056217bd3f71d82a4976f1f7ee3",
    ("zigzag-41", "joint"):
        "af2e7e21745a28ed2c4e59dbe2dc647df29708eee0656f63210936d44618470f",
    ("zigzag-41", "colored"):
        "152a97ed54eb93732b778a6b8472c19106b7ea75346ffe534e867f4a4724ce0e",
    ("zigzag-41", "general"):
        "bbc714075e2cc72c6186f4e4de061fb9121468edf4e589ea2e53068127fbcc79",
    ("perm-3", "joint"):
        "f67451529eed5ed54786ecb9d968b0cbcd0f9dee151f617543b2d86083678aa5",
    ("perm-3", "colored"):
        "9eecce4fd07cd22f5ddb060b2200707bb69c0dc7a52f6392ecf0990a7a407496",
    ("perm-3", "general"):
        "3d842651a0fd7300e0679a8b243dd1e4ad60cb55cfecef7ae46a958e875e0f25",
    ("perm-208", "joint"):
        "485f6439d48ac120d24ef7e1dc03b7db8a557b56a96d07b11f376857a6297ef8",
    ("perm-208", "colored"):
        "d9f6d82ea6edfcb5046285f5f9cc04ea348740e40528fb6668ab18707a9dd6b7",
    ("perm-208", "general"):
        "1a498f4a1ad36c60fa818440f7d18e7c4adb9e3cc0edeadc2969e138d9461470",
    ("alphabet3-2012", "general"):
        "6da83bb921813be5a50e2b6352c8e618674772f334654088158f428e6c23eff9",
    ("constant-50", "general"):
        "5f3a37c2dd58b0e46ddf7cb3e93e45afbb7a58190766f72a7f8c8aaa0594d634",
    ("binary-5000", "general"):
        "377b24faaae9cae2032489ad854b1d7ce60cc22566762e0379ddc53f15cad0ad",
    ("alphabet5-1000", "general"):
        "00b83dd26eab1eaaa802dc07c22199238d88e1f96b2893c13d278928048e0e0a",
    ("monotone-runs-4000", "general"):
        "487b51960fd426777b7a2aaab002821ea98e8d6aca9ad57f421392cc1788ad0f",
    ("perm-20000", "joint"):
        "bf69ece6af81a51d683fa1d83245710c1765510a53be940aed9893d47505ac4e",
    ("perm-20000", "colored"):
        "63783be75009ac6a89553d6ca3755df40100540f7850f142dc670be5e52b692b",
    ("perm-20000", "general"):
        "5a6b262e7f58def56d966b3b50dd6bdb366a9ba4ede3b1275ab9918ddc672eae",
    ("binary-20000", "general"):
        "cdc5dba2b43b6ce4731d472dde1c2ac32f2b45ff5a3835eb58ace8ad906b9ad8",
    ("monotone-runs-20000", "general"):
        "27f2365f07103bd8e655379c429b295bb6c48710d5a41bd514a0f531e61b3c62",
}


def container_digest(values, scheme):
    return hashlib.sha256(serialize(encode(ValueArray(values), scheme))).hexdigest()


@pytest.mark.parametrize("name,scheme", [
    (name, scheme) for name, (_, schemes) in CASES.items() for scheme in schemes])
def test_container_bytes_pinned(name, scheme):
    values, _ = CASES[name]
    assert container_digest(values, scheme) == DIGESTS[name, scheme]
