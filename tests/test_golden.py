"""Golden CLI corpus: exit code and stdout sha256 of fixed invocations.

The digests were recorded before the package was refactored, so any
change to the bytes a command prints, or to its exit status, fails
here.  Every README example is covered in each output format it
accepts, and every json output must parse as strict RFC 8259 json (no
NaN or Infinity).  Refused commands, bad cache files and bad cache
paths are pinned by exit code and last stderr line, at most 120
characters, with nothing on stdout.  Commands run in-process through
``cli.main`` in an empty working directory with ``NUCLEUS_CACHE`` unset.
"""

import hashlib
import json
import shlex
from operator import sub

import pytest
from oracles import partition_counts

from nucleus import cli

GOLDEN = {
    # command: (exit code, sha256 of stdout)
    "table --rows 1-20,100": (0, "64dbec68182b8815856dd5c8ecb40cae19cdb0cb9aee6ca2b4c3e46a33f045e7"),
    "table --rows 1-20,100 --format csv": (0, "e015bd86a1b86aaf1b1c479bc7b79652c209d70c8d00ac3133dbb727d16c8c40"),
    "table --rows 1-20,100 --format json": (0, "a4777741dc2e6935432ae6161d0feb0cd61a9d34f8081f05efae4a05f27f7dce"),
    # Csv is written 512 rows at a time: the last slice here is one row,
    # and the --rows list crosses a slice boundary.
    "table --limit 1025 --format csv": (0, "932bbf35863b58a641f87ce851f29c7491495fa3e254c901d2005a4175226bf3"),
    "table --rows 1-600,900-1000 --format csv": (0, "7a0e0119151de3ab30705dd24e24e2888534283f4ea960a74f208ef9376dfae2"),
    "verify": (0, "82d79242a0ebc8dfedc71f6625990bd7dc4db6d109ce68b78394d77d79494a7d"),
    "verify --format csv": (0, "91d698311f225a99e55d2d50312d7f10e5df4dd03b8888761dedd5d538a416ce"),
    "verify --format json": (0, "76266e8221bbf42642fa14a006bae96a7aa54e47630db9d9b90f468ce86bf8c6"),
    "verify --show-errata": (0, "fc207fab849fd0b9e1d62e42b6d9e8e7aa5f4d3540bb9a141e98b26aa2e050ef"),
    "verify --show-errata --format json": (0, "05a20999e733dec93b6672b789d8cf3651e9b110f1b4378150525c1ccf392244"),
    "verify --show-errata --format csv": (0, "91d698311f225a99e55d2d50312d7f10e5df4dd03b8888761dedd5d538a416ce"),
    # Below n = 6 the errata lines have no k-skip line; below n = 4, none.
    "verify --limit 5 --enum-limit 5 --show-errata": (0, "c9a9146337b7a18b041796c923a0dd89b93b006de817ed77e08127444a0eb330"),
    "verify --limit 5 --enum-limit 5 --show-errata --format json": (0, "fa1aef47163358e3b228e9a942b8a01e55fc43be9f38fa5988360f47fd51bbe1"),
    "verify --limit 3 --enum-limit 3 --show-errata": (0, "eb1a6d84c1036aaf2942b5a4d1800676a3c205186eda22d7dee4dbf32c2bd9c1"),
    "verify --limit 3 --enum-limit 3 --show-errata --format json": (0, "f218d688dcac45e9247b44bdca88ec7635531c5f1059024ff50203c4d3aaeb97"),
    "congruence ramanujan 5 --limit 10000": (0, "21fcf7dea2a1c7f6a82e49105da223075c8f8df87997d8c26dde59d6f09f5004"),
    "congruence ramanujan 5 --limit 10000 --format csv": (0, "168354abae55e60cd389461bf91d311dba24fb2f6057b7d01496cc22b314ef15"),
    "congruence ramanujan 5 --limit 10000 --format json": (0, "b1f9055fcc8e275b242357305b872baec38a98b3b90c6c5e975dd22be972494a"),
    "congruence nu_window 7 --limit 200": (0, "b3f9bbf79b5a1d23bc16f0f5704813749da1d511bee0f3560cf5257ff70b8b7e"),
    "congruence nu_window 7 --limit 200 --format csv": (0, "e61b201f1c6012604f1fbfd92833fe5b541db2106640edb656e7ad098888cbde"),
    "congruence nu_window 7 --limit 200 --format json": (0, "6916f8400af3b5da0aa651584c28282a3f750d940c9565fff7f8dc7ac79b0809"),
    "congruence nu_k_progression 5 --limit 200": (0, "0cf97013443791acce03865c5f55565ae83889bbe24733f302eed6d421821028"),
    "congruence nu_k_progression 5 --limit 200 --format csv": (0, "f1947108fab9859f256bf0431f7c07a1903c6db684c962157d3f222e78aec00d"),
    "congruence nu_k_progression 5 --limit 200 --format json": (0, "5aca620d830e4f28c7d7bf447d21d20e5d5b4cabe6251f7f4a344e6ddec264c6"),
    "congruence gamma_weighted 11 --limit 200": (0, "361b0da8f8d0d9a027e6f898036c5b366ea9ba3f2979fed9c12f149bea32239b"),
    "congruence gamma_weighted 11 --limit 200 --format csv": (0, "d9cc2ee853b0292a10cc8caa203730d473f8178c65a6a673f2ff2646225de728"),
    "congruence gamma_weighted 11 --limit 200 --format json": (0, "26c8b472f6b185a4821afb3966b535ec26f63b27507709b29462ef288c98f9e2"),
    "congruence nu_window 11 --limit 2000 --format json": (0, "eb40ee16b431f62cbc4029d7fe53125353100fe4013c6fa978aabae6a19c4a78"),
    "congruence nu_k_progression 7 --limit 2000 --format csv": (0, "3e10402f6f6f88ae74ae08b604d03811e2b172277a24166e2302a2d3cbbf8531"),
    "congruence gamma_weighted 5 --limit 2000": (0, "5e9454b341d44d43589a2fb0606d42be9192b550d921673b2a0ccb41de469b01"),
    "congruence custom 2 0 3 --limit 50": (1,"462a43e2adb8747f50d043ab61cb0a3a853feded468aa0999e99149e750d1aca"),
    "congruence custom 2 0 3 --limit 50 --format csv": (1, "d08d4a9311dbff873c438c79613974a33eeb565b8257f780a24f8de5fd373e18"),
    "congruence custom 2 0 3 --limit 50 --format json": (1, "8e6b05fef6e203461ef24141af1c801992f4221c3abaaed4ad80d718bd928e18"),
    "congruence custom 2 0 3": (1, "3207c742db3673f22bd14b8ca4cf3bb56c2cb05fca403d9b46586ee729658ab9"),
    "congruence custom 2 0 3 --format csv": (1, "1aa538f70868f2ec590df2cebce6741b51bfe30575b76ae9e8bbf98d5c137df8"),
    "congruence custom 2 0 3 --format json": (1, "856eac40391975c884f9cbb8c8c3763d47b6140e4995479d58853f3ffea00820"),
    # Atkin (1968): p(17303n + 237) = 0 (mod 13); 17303 = 13 * 11**3.
    "congruence custom 17303 237 13 --limit 19": (0, "758580ee399179c5df86cbfb901120ccc14be1609fd3cddecf9228c949bedce6"),
    "congruence custom 17303 237 13 --limit 19 --format json": (0, "cb8c7398e20da83588d5dab197a6ac3c72f60029faec3996dc6368ee0142a9c0"),
    # Its derived families run over the step 17303, not the modulus 13; the
    # control window ends one before.  Recorded on the family table: the
    # parent took one integer, the modulus, for these families.
    "congruence nu_window 17303 237 13 --limit 19": (0, "154a8c61d68bdd71d79b79118a20258d3a2aef66a3baa071ce67bfb31eabaa36"),
    "congruence nu_window 17303 237 13 --limit 19 --format json": (0, "e136315bea0e7023792b2bc9de91e171346b9ec83e979df4c9c3d2f002aab5de"),
    "congruence nu_window 17303 236 13 --limit 19": (1, "a2898df68a33902c09858b7739e4353b3f4b28efe4d3d6b81cf9ee59ac58f2c6"),
    "congruence nu_window 17303 236 13 --limit 19 --format json": (1, "c92e8dde160800cd192f0ce95b477e6bf35fb1213f0a7d24f0663dea1ecc3046"),
    "congruence gamma_weighted 17303 237 13 --limit 19": (0, "a16c970607cff18792f8ab96e9732089ea2758f6dd0bbc3da3fe366154b70c5d"),
    "congruence gamma_weighted 17303 237 13 --limit 19 --format json": (0, "0a01c7bbf306af044406b9298c4f4165211b46c9e7825a652ec3b69b1d763fea"),
    "parity --limit 1000": (0, "d87a42621f45bf45fde77c7e3c3194c42fb2817a045c853d3a6a12b9731c3e43"),
    "parity --limit 1000 --format csv": (0, "8d69f16d1d63437eae30844c2c2866aa8d88acde1447ba8e4eff0c27386634a6"),
    "parity --limit 1000 --format json": (0, "0c7e2307864b90028bb8006a06c5a354c9b72c61406e1c387bf0bb668063e241"),
    "ratios --limit 100": (0, "ad3f826910cd14a5d35dba5566b551f9675d6f71dc3870a74e4d5b8a6261151e"),
    "ratios --limit 100 --format csv": (0, "9c1141d83185719744a571c0003e34c6d7c5585ef466c3148437f274595b8006"),
    "ratios --limit 100 --format json": (0, "28256700c6428aaad7695b26160573f27c7f5f9bcd11b0e7f9ecfb3a1a867489"),
    "ratios --limit 1025 --format csv": (0, "be99a2bc5d60a168d774ad2599a896a723cea111831ad0c7da56f6c3afc6b75b"),
    "ratios --estimator p --points 25,100,400": (0, "b04d95dac7b6f2b0749f18da0538c0e6f96a705edca4b5024db5a2550f457e49"),
    "ratios --estimator p --points 25,100,400 --format csv": (0, "b674ed41692731a4306474b6e7219c819663aa600864e94096e7a624984477ea"),
    "ratios --estimator p --points 25,100,400 --format json": (0, "fccf2a2a88bb0d0b1650ea313ba7621684d511fa6f1c88a54aa04e4e5d3a266a"),
    "ratios --estimator nu --form exact_difference": (0, "ebab7b7e6c61dfce6da7d61b7d1b787a3e3d41509e668436cade68f933bf3eee"),
    "ratios --estimator nu --form exact_difference --format csv": (0, "dc8181611bab9d832807cdd457513bfbe395ed3cd2c5e3effbc41fa4c8071ffa"),
    "ratios --estimator nu --form exact_difference --format json": (0, "838e3052b8f8c8578b3c7b3567506c44bb66a2a3e0e0a79e35a2913add1a2944"),
    "ratios --estimator nu --form simplified": (0, "f66428553ce26b4dc95f030060c804cd558c24b1520f24445164424db54c3a40"),
    "ratios --estimator nu --form simplified --format csv": (0, "69a463ca54447cfcf33b1df99543b32d9642b6f8b18be85bd9178a5f80cb7fa3"),
    "ratios --estimator nu --form simplified --format json": (0, "fe7e07a801b0609d586347227847df5ffc7f6d56b46852e186fb714fce807bc1"),
    "ratios --estimator gamma --form exact_difference": (0, "728adf6380bbc523dd1977e6ff9a8c7006d68a96039432c061bf78d0d26233bb"),
    "ratios --estimator gamma --form exact_difference --format csv": (0, "0d162e19a91ef5772eebb8df2859f7308f78778a683abfab97d8b90e1a9e48a3"),
    "ratios --estimator gamma --form exact_difference --format json": (0, "6253a3c9b7fad8cd8a7b7f638810e90af0751501963008fb97bc21576a55c463"),
    "ratios --estimator gamma --form simplified": (0, "9b92c9b28d22c31da1e8bc51d73df50e24903cd0c909fd9c66e0a0ded9b10210"),
    "ratios --estimator gamma --form simplified --format csv": (0, "95023fc61f31d0486cb4aa246403c4a9829e5ad1a94404270ca37f9ea4315072"),
    "ratios --estimator gamma --form simplified --format json": (0, "13ea7226f67b13cf8e914bcbd90b19bc3aec5ddf14624f38005400d7f252eb76"),
    "decay 5,2": (0, "69e3ef41e4366a58efe1b42749baa40ec321b73b7a83a3c70720a6b8e4dced5e"),
    "decay --dot 8": (0, "261d322a486a4aee84254f0a8b5df9b0086c4f476ecfac439c880fa6eb644ec8"),
    # decay --dot walks every nuclear partition of n through iter_parts.
    "decay --dot 30": (0, "d34a226f8a9b847325cd4a7ac6a54125b1032911975597ba886c4fd8983f0f04"),
    # The other write paths of decay: the empty partition as the digraph's
    # lone node, a digraph with no nuclear partition, the empty partition
    # as a target, and a ground state.
    "decay --dot 0": (0, "9fecbd28ef86450e6d35fb02760450d2895cf89d5ad7f8f90b59134b7f52e0eb"),
    "decay --dot 1": (0, "d266411e026644a814e30b276da7201bf96185da765776de55966ec062556ee4"),
    "decay []": (0, "5f4e1b03e8f0032a76aa4bb1cbcfa3c53306a3a7aba2bbed5d1abd32f58d4c53"),
    "decay 3,3": (0, "57b19c9826fca1a6f7551b9fb05f94dd5f438b1b17f741671338bb5248aee8cd"),
}


GOLDEN_ERRORS = {
    # command: (exit code, last stderr line); stdout must be empty.  Only the
    # last line is pinned: argparse words its usage lines differently across
    # Python versions.
    "congruence ramanujan 5 --limit -1": (2, "error: ramanujan starts at n = 0: the limit must be >= 0, got -1"),
    "congruence nu_window 7 --limit -3": (2, "error: nu_window starts at n = 1: the limit must be >= 1, got -3"),
    "congruence nu_window 7 --limit 0": (2, "error: nu_window starts at n = 1: the limit must be >= 1, got 0"),
    "congruence nu_window 17303 237 13 --limit 0": (
        2, "error: nu_window starts at n = 1: the limit must be >= 1, got 0"),
    "congruence ramanujan 6": (2, "error: modulus must be one of [5, 7, 11], got 6"),
    "congruence nu_window 13": (2, "error: modulus must be one of [5, 7, 11], got 13"),
    "congruence nu_k_progression 4": (2, "error: modulus must be one of [5, 7, 11], got 4"),
    "congruence gamma_weighted 6": (2, "error: modulus must be one of [5, 7, 11], got 6"),
    "congruence custom 5": (2, "nucleus congruence: error: family custom needs three integers: A B M"),
    "congruence nu_window 5 7": (
        2, "nucleus congruence: error: family nu_window needs M (5, 7 or 11) or three integers: A B M"),
    "decay 3,2,1": (2, "error: (3,2,1) is not nuclear: 1 part(s) equal 1"),
    "decay 1": (2, "error: (1) is not nuclear: 1 part(s) equal 1"),
    "decay 3,x": (2, "error: partition literal must be comma-separated integers, got '3,x'"),
    "decay --dot -1": (2, "error: cannot partition a negative total, got -1"),
    "decay --dot x": (2, "error: --dot expects the size n as an integer, got 'x'"),
    "table --rows 5-2": (2, "nucleus table: error: argument --rows: row spec must look like 1-20,100 "
                            "(nonnegative, ascending ranges), got '5-2'"),
    "table --rows abc": (2, "nucleus table: error: argument --rows: row spec must look like 1-20,100 "
                            "(nonnegative, ascending ranges), got 'abc'"),
    "table --limit 0": (2, "nucleus table: error: --limit must be >= 1, got 0"),
    "table --rows 1-5 --limit 3": (2, "nucleus table: error: --rows selects n=5 beyond --limit 3"),
    "verify --limit -1": (2, "nucleus verify: error: --limit must be >= 0, got -1"),
    "verify --enum-limit -1": (2, "nucleus verify: error: --enum-limit must be >= 0, got -1"),
    "verify --limit 20 --enum-limit 30": (2, "nucleus verify: error: --enum-limit cannot exceed --limit"),
    "verify --identities ,": (2, "nucleus verify: error: --identities selects no identities"),
    "verify --identities nope": (2, "nucleus verify: error: unknown identities: nope"),
    "verify --identities nu_chain,nu_chain": (2, "nucleus verify: error: repeated identities: nu_chain"),
    "verify --limit 5 --identities k_nuclear_shifted": (
        2, "error: --identities: nothing to check at these limits: k_nuclear_shifted (n = 6..5)"),
    "parity --limit 3": (2, "nucleus parity: error: --limit must be >= 4"),
    "ratios --limit 0": (2, "nucleus ratios: error: --limit must be >= 1"),
    "ratios --estimator p --form simplified": (
        2, "nucleus ratios: error: --form needs --estimator nu or gamma: the p estimate has no form"),
    "ratios --estimator p --points ,": (2, "nucleus ratios: error: --points selects no n values"),
    "ratios --estimator gamma --points 2": (
        2, "nucleus ratios: error: --points: the gamma estimate is defined for n >= 3, got 2"),
    "ratios --points 5": (2, "nucleus ratios: error: --points and --form need --estimator"),
    "ratios --estimator nu --limit 7 --points 25": (
        2, "nucleus ratios: error: argument --limit/-N: not allowed with argument --estimator"),
    "ratios --estimator p --points 5,x": (
        2, "nucleus ratios: error: argument --points: expected comma-separated integers, got '5,x'"),
    "cache build": (2, "nucleus cache: error: no cache path: pass --cache or set NUCLEUS_CACHE"),
    "cache build --limit -1 --cache c.csv": (2, "nucleus cache: error: --limit must be >= 0"),
    "cache check --limit 5 --cache c.csv": (
        2, "nucleus cache: error: --limit sizes a build: check reads the whole cache"),
    "congruence custom 1 0 1": (2, "error: modulus must be >= 2, got 1"),
    "congruence custom 0 0 5": (2, "error: progression must have a >= 1 and b >= 0, got (0, 0)"),
    "congruence gamma_weighted 7 5 5": (
        2, "error: gamma_weighted needs the modulus to divide the step, got (7, 5) mod 5"),
    "decay [5,2": (2, "error: unbalanced brackets in partition literal '[5,2'"),
    "decay 2,3": (2, "error: parts must be weakly decreasing, got (2, 3)"),
    "decay 3,0": (2, "error: parts must be positive integers, got 0"),
}

# The header and rows n = 0..3 of a consistent cache.
_HEAD = b"n,gamma,nu,p\n0,0,1,1\n1,0,0,1\n2,0,1,2\n3,0,1,3\n"


def _p_one_too_large(n, limit):
    """The cache of rows 0..limit with p(n) one too large: nu and gamma are
    the differences of the true p."""
    p = partition_counts(limit)
    nu = [1, *map(sub, p[1:], p)]
    gamma = [0, 0, 0, *map(sub, nu[3:], nu[2:])]
    p[n] += 1
    rows = "".join(f"{k},{g},{v},{q}\n" for k, (g, v, q) in enumerate(zip(gamma, nu, p)))
    return f"n,gamma,nu,p\n{rows}".encode()


CACHE_ERRORS = {
    # case: (the bytes of c.csv, the last stderr line of ``cache check
    # --cache c.csv``, which exits 3 with stdout empty).
    "empty": (b"", "cache error: empty cache file"),
    "header": (b"n,p\n0,1\n", "cache error: expected header 'n,gamma,nu,p', got 'n,p'"),
    "3 fields": (b"n,gamma,nu,p\n0,0,1\n", "cache error: line 2: expected 4 comma-separated fields, got 3"),
    "-0": (b"n,gamma,nu,p\n0,0,1,1\n1,-0,0,1\n",
           "cache error: line 3: gamma must be a nonnegative decimal integer, got '-0'"),
    "leading zero": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0,01\n",
                     "cache error: line 3: p must have no leading zero, got '01'"),
    # A byte outside printable ASCII is refused by its own line's field or
    # header check, and quoted as an escape, in at most 42 characters.
    "non-ASCII": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0,1\xc3\xa9\n",
                  r"cache error: line 3: p must be a nonnegative decimal integer, got '1\xc3\xa9'"),
    "non-ASCII inside a field": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0,1\n2,0,1\xe91,2\n",
                                 r"cache error: line 4: nu must be a nonnegative decimal integer, got '1\xe91'"),
    "BOM": (b"\xef\xbb\xbfn,gamma,nu,p\n0,0,1,1\n",
            r"cache error: expected header 'n,gamma,nu,p', got '\xef\xbb\xbfn,gamma,nu,p'"),
    "NUL header": (bytes(40) + b"\n0,0,1,1\n", "cache error: expected header 'n,gamma,nu,p', got '" + r"\x00" * 10 + "'"),
    "control p": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0," + b"\x01" * 40 + b"\n",
                  "cache error: line 3: p must be a nonnegative decimal integer, got '" + r"\x01" * 10 + "'"),
    # A bad byte past a field's first 40 is quoted by the bytes that end
    # with it, marked as a tail.
    "bad byte past 40": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0," + b"7" * 216 + b"\xe9\n",
                         "cache error: line 3: p must be a nonnegative decimal integer, got ...'" + "7" * 33 + r"\xe9'"),
    # More digits than int() converts, 4,300 by default.
    "5,001-digit p": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0," + b"7" * 5001 + b"\n",
                      "cache error: line 3: p has 5001 digits, more than int() converts"),
    # A row line is read as at most 64 KiB, its LF included.
    "long row line": (b"n,gamma,nu,p\n0,0,1,1\n" + b"7" * 65536, "cache error: line 3: longer than 65535 bytes"),
    "gap": (b"n,gamma,nu,p\n0,0,1,1\n2,0,1,2\n", "cache error: row n=1: n must be 1, got 2"),
    # Every field is parsed before the row is compared with the one its p
    # implies, so a bad field is reported ahead of a wrong n.
    "gap and bad gamma": (b"n,gamma,nu,p\n0,0,1,1\n2,x,0,1\n",
                          "cache error: line 3: gamma must be a nonnegative decimal integer, got 'x'"),
    "row 0": (b"n,gamma,nu,p\n0,0,1,2\n", "cache error: row n=0: p must be 1, got 2"),
    "nu": (b"n,gamma,nu,p\n0,0,1,1\n1,0,1,1\n", "cache error: row n=1: nu must be 0, got 1"),
    "gamma below 3": (b"n,gamma,nu,p\n0,0,1,1\n1,0,0,1\n2,1,1,2\n", "cache error: row n=2: gamma must be 0, got 1"),
    "gamma": (_HEAD + b"4,0,2,5\n", "cache error: row n=4: gamma must be 1, got 0"),
    # A wrong p shows first in its own row's nu.
    "p(50) + 1": (_p_one_too_large(50, 51), "cache error: row n=50: nu must be 30702, got 30701"),
    "no final LF": (_HEAD + b"4,1,2,5", "cache error: line 6: the last row must end in LF"),
    "header alone": (b"n,gamma,nu,p\n", "cache error: cache has a header but no rows (row for n=0 is required)"),
    # Every row is consistent, but p(6) is 12, not 11: only ``check_p`` tells.
    "p": (_HEAD + b"4,1,2,5\n5,0,2,7\n6,3,5,12\n", "cache error: row n=6: p mod 67108859 must be 11, got 12"),
}

PATH_ERRORS = {
    # command, run where d is an empty directory: its last stderr line.  The
    # strerror text is Linux's.
    "cache check --cache d": "cache error: cannot read d: Is a directory",
    "cache build --cache missing/c.csv": "cache error: cannot write missing/c.csv: No such file or directory",
    "table --cache d": "cache error: cannot read d: Is a directory",
}


def _output(capsys, command):
    code = cli.main(shlex.split(command))
    return code, capsys.readouterr().out


def _digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _run(capsys, command):
    code, out = _output(capsys, command)
    return code, _digest(out)


def _reject_constant(name):
    raise ValueError(f"{name} is not json (RFC 8259)")


@pytest.fixture
def scratch_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv("NUCLEUS_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_matches_golden(capsys, scratch_cwd, command):
    code, out = _output(capsys, command)
    assert (code, _digest(out)) == GOLDEN[command]
    if "--format json" in command:
        json.loads(out, parse_constant=_reject_constant)


def _refusal(capsys, command):
    """The exit code and last stderr line of a refused command, whose
    stdout must be empty and whose last line is at most 120 characters."""
    try:
        code = cli.main(shlex.split(command))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    last = captured.err.splitlines()[-1]
    assert captured.out == ""
    assert len(last) <= 120
    return code, last


@pytest.mark.parametrize("command", list(GOLDEN_ERRORS))
def test_refused_command_matches_golden(capsys, scratch_cwd, command):
    assert _refusal(capsys, command) == GOLDEN_ERRORS[command]
    assert not any(scratch_cwd.iterdir())  # no cache file is written


@pytest.mark.parametrize("case", list(CACHE_ERRORS))
def test_refused_cache_file_matches_golden(capsys, scratch_cwd, case):
    data, line = CACHE_ERRORS[case]
    (scratch_cwd / "c.csv").write_bytes(data)
    assert _refusal(capsys, "cache check --cache c.csv") == (3, line)
    assert [path.name for path in scratch_cwd.iterdir()] == ["c.csv"]
    assert (scratch_cwd / "c.csv").read_bytes() == data


@pytest.mark.parametrize("command", list(PATH_ERRORS))
def test_refused_cache_path_matches_golden(capsys, scratch_cwd, command):
    (scratch_cwd / "d").mkdir()
    assert _refusal(capsys, command) == (3, PATH_ERRORS[command])
    assert [path.name for path in scratch_cwd.rglob("*")] == ["d"]


CACHE_BUILD = "cache build --limit 5000 --cache counts.csv"
CACHE_CHECK = "cache check --cache counts.csv"
CACHE_GOLDEN = {
    CACHE_BUILD: (0, "13cd5c2fb693f79dfdd732baf3db52c8788b54b722d41cbf570df01c746e8009"),
    CACHE_CHECK: (0, "70677306e88969532d0eb30d3807985815764c4b8b800d9918a6e94c416b9c83"),
    "counts.csv": "70ecf076349495f7b287d4f5f64d74ce066f1bd0486de9939de21e6fddc88af2",
}


def test_cache_example_matches_golden(capsys, scratch_cwd):
    build = _run(capsys, CACHE_BUILD)
    check = _run(capsys, CACHE_CHECK)
    written = hashlib.sha256((scratch_cwd / "counts.csv").read_bytes()).hexdigest()
    assert {CACHE_BUILD: build, CACHE_CHECK: check, "counts.csv": written} == CACHE_GOLDEN
