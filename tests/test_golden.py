"""Golden output: the sha256 of stdout and the exit code of cheap CLI runs.

Covers every subcommand and every --format, including the genus0 suite
with its recorded-misprint note. A refactor must leave every digest as is.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from realhurwitz.cli import main

GOLDEN = [
    ("table --max-degree 2 --max-m 3", 0,
     "85045ba53b7045e96d9041f5a824c5ceaaf9f704e82a9632df2e8a33acb611d3"),
    ("table --max-degree 2 --max-m 4 --connected --format csv", 0,
     "cc16c816569b48e720d4081643292c71569365114a40679c2b624df21937ff7d"),
    ("table --max-degree 4 --max-m 8 --connected --format csv", 0,
     "b08fca5eaef7c027ea9f0134e686b25e0e02b6269c403a9a82ae8ae7356a6bc2"),
    ("table --max-degree 2 --max-m 4 --format json", 0,
     "bdb179c6db0c45f0158c52695d9fb4a19f66e558241753d0a036036c3be1e89c"),
    ("verify --suite paper", 0,
     "48b65d1f69e073689603d5b4e1783bad3203aab70e5412ca11c572a9c794a660"),
    ("verify --suite genus0 --max-m 4 --max-degree 4", 0,
     "e248c321505be57e50a8947ea89e50f87269b898124fc8e1829b30f33ce5fbfa"),
    ("verify --suite genus0", 0,
     "4715e0b717dd7b98f7f2d7750f88275d0d6c95bf3b2cf266b34c82fd48c768a8"),
    ("verify --suite genus0 --max-m 10 --max-degree 8", 0,
     "70aede3eb96ff76d24e548caef14827e4bc4c6010d38d167fd35e5d85b9be0f2"),
    ("verify --suite oracle --max-size 3", 0,
     "ecc084a953d072c719207f09c67d9173cf6235c4261427252ae00de639be04c8"),
    ("verify --suite oracle --max-size 5", 0,
     "0da12ed95c7b19b0087577ddea7a159b5d94aec81b344ad90ad321979b79e93e"),
    ("verify --suite oracle --max-size 6", 0,
     "487071e6a56caa21bbe332ffc5c50c8da62c88f3e979baa36869d9b86fab5e40"),
    ("verify --suite spectral", 0,
     "4a9cb8283c0a4dcf893d33a84286c1f457edca72428cae764def4783b0db810a"),
    ("verify --suite nonsep", 0,
     "5f50aef2a2b6243f6c602ac95e3415e2abea1e6c14e00acb7aa83d961f426a1b"),
    ("block --nplus 2 --nminus 1 --operator wminus --format csv", 0,
     "701363753d1330c7bd06b31ce4ad35c736f9535326194644b808a631641f3a58"),
    ("block --nplus 1 --nminus 1 --format json", 0,
     "6a767ca612708476e22c39dd0a7df3681d66260c2e7ea5a4b9205715abc0bb18"),
    ("block --nplus 2 --nminus 2 --operator wmean", 0,
     "278d02d8077f42772cef8b1e119b0c3262fe71d6af9e68373cae4a9b48577735"),
    ("block --nplus 3 --nminus 2 --operator wminus --format json", 0,
     "cc1ab7c43b582e8b02c9823444032bc856da3c4e33ab4f15d77e3c444a01c3a0"),
    ("spectrum --nplus 1 --nminus 1 --format json", 0,
     "858c3b726748f84b88c732e4ed5eafee47c8d54dcd64d1ccd41fc71650804eee"),
    # the exact path and the float path of the CSV dump
    ("spectrum --nplus 1 --nminus 1 --format csv", 0,
     "c8791f2786a02860827729e478670b61b6ae1e98fc6764129ba469d8fe6b7f55"),
    ("spectrum --nplus 4 --nminus 2 --format csv", 0,
     "ec224573cec21e55a5f50d9e203b60574cf376b101738d0804366343c9bcb64b"),
    # the other exact blocks with more than one type through total degree 7
    ("spectrum --nplus 4 --nminus 1 --format json", 0,
     "0b9cda2d78ffc2798d3241cfd5250a7f6ced4ceb7e4a08e08d0471a700282825"),
    ("spectrum --nplus 1 --nminus 4 --format csv", 0,
     "ca4fd00c6b498f42071a5af94e03b0f2bab7434016f82a4586dd19b8415df599"),
    ("spectrum --nplus 2 --nminus 1", 0,
     "bcd231820148bfce7551b20bb592ffef213c1a75e5e75b88d64ed48ab3f3adc7"),
    ("spectrum --nplus 3 --nminus 3 --format json", 0,
     "4b0f25cca036eb92c33f30a459e5523551561b190d3711b542f5398e2462103c"),
    ("spectrum --nplus 4 --nminus 3 --format json", 0,
     "13b40ad559cd47d7ed1c20e615b52ec69bd1c93ba06b87145a057e84856fe5df"),
    ("oracle --nplus 2 --nminus 1 --m 3 --format csv", 0,
     "cd16b0496a71b6cd359c04858aefea4f45c2ada9cd08c7156bd9c698944a7338"),
    ("nonsep --max-n 3 --max-m 4 --connected --format json", 0,
     "98da5ddc9282f75fe47233dcec4f923a5305630e380ef8f5319a9604ff3be018"),
    ("nonsep --max-n 3 --max-m 3", 0,
     "87bf8c4be04d83e264db48d30fd6d0038369d59bdaec565a115a2c39237ff0d0"),
    ("nonsep --max-n 4 --max-m 4 --format csv", 0,
     "cc1e7a03457a77f9b13b6052de66e20abfcbe50891c284908a16714e9bd17719"),
    # empty tables still print their header
    ("nonsep --max-n 0 --max-m 0 --connected --format csv", 0,
     "b3681dc304a8696c0f7bc042f9f5fe5f8694b65ec5d77ea1a2d159a1c6874715"),
    ("table --max-degree 0 --max-m 0 --connected --format json", 0,
     "fb2989323b717f2e869a06272d8ee4b35b4e516d6a555f4ce3d19f9ee3606ff0"),
    ("oracle --nplus 2 --nminus 2 --m 3", 0,
     "8c1e79667bb3fbe8be5a6346fe38e163817ff660ea95a29a90a163b4b53494ae"),
    ("oracle --nplus 3 --nminus 2 --m 4 --format json", 0,
     "48261cc30e52783cf8d049184cc6cec178c265cc6adf2762d2cfbf41760b4744"),
    # the text report with its printed-row comparison lines
    ("spectrum --nplus 1 --nminus 1", 0,
     "d8400ce7067d99d7a1fdadc7fe2e82f09c308fe6feff8395da04f7056c7b6070"),
    # Fraction entries of the mean operator, read from the sparse columns
    ("block --nplus 3 --nminus 3 --operator wmean --format csv", 0,
     "ea15254b8fee57bc05ad0e589651d1593c902b0af99d57dba656908488729eff"),
    # the dense text and JSON dumps, zeros included, of an int and a Fraction block
    ("block --nplus 3 --nminus 3 --operator wplus", 0,
     "65db6c2f57124c595d139d67017b23849b5ddc6a5658d100cd0ea44c3504bd0f"),
    ("block --nplus 3 --nminus 3 --operator wplus --format json", 0,
     "2811528f3fdd6c90c3e33415c00fb27bea18caf373f9af08382cab797016d15b"),
    ("block --nplus 3 --nminus 3 --operator wmean", 0,
     "a40b6c470bb41a08c0c2d350e1e6edb42ed54b74cfae2e801fe0be11a8225200"),
    ("block --nplus 3 --nminus 3 --operator wmean --format json", 0,
     "521ea96c85654f0c2a850a84153682e5eb54ce5da93bb2971545dd8b08c7e0b3"),
    # an all-zero block: the header alone
    ("block --nplus 0 --nminus 0 --format csv", 0,
     "07d5715c00028074d50660ab8adfe8a27999329d9537663d0316615e09677fef"),
    ("spectrum --nplus 3 --nminus 3 --format csv", 0,
     "ee78bdb68a0f76902c77c6271809361448d6bd285e456968b5d0cda7ea6aea62"),
    # a failed certification prints nothing on stdout
    ("spectrum --nplus 2 --nminus 1 --tol 1e-300", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[command for command, _, _ in GOLDEN])
def test_golden_output(command, code, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(command.split())
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
